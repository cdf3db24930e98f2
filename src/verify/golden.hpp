// Golden-reference regression layer.
//
// Each paper experiment (src/verify/experiments.hpp) returns a
// GoldenRecord holding every number its bench prints, plus a `claims`
// quantity with the paper's shape claims. The benches publish that record;
// tests/goldens/<name>.json pins it. Every quantity carries its own
// absolute/relative tolerance, stored IN the golden file, so the tolerance
// policy is versioned together with the numbers it guards. `ctest -L
// verify` recomputes each experiment and compares; `verify_runner golden
// --regen` rewrites the files after an intentional physics change.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "verify/json.hpp"

namespace sfc::verify {

/// Per-quantity tolerance: a value passes when
///   |actual - expected| <= abs + rel * |expected|.
struct Tolerance {
  double abs = 0.0;
  double rel = 0.0;
};

/// One named quantity of a golden record: a flat vector of doubles with
/// optional per-element labels ("T25_mac3", "nmr_0", ...).
struct Quantity {
  std::vector<double> values;
  std::vector<std::string> labels;  ///< empty, or one per value
  Tolerance tol;
};

/// A named set of quantities — one canonical experiment.
class GoldenRecord {
 public:
  GoldenRecord() = default;
  GoldenRecord(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  static constexpr int kSchemaVersion = 1;

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  const std::map<std::string, Quantity>& quantities() const {
    return quantities_;
  }

  void set(const std::string& quantity, std::vector<double> values,
           std::vector<std::string> labels, Tolerance tol);
  void set_scalar(const std::string& quantity, double value, Tolerance tol);
  /// Append one paper claim to the `claims` quantity: 1 when it holds, 0
  /// when it fails, labelled with the claim and pinned exactly.
  void claim(const std::string& label, bool holds);
  const Quantity& at(const std::string& quantity) const;

  Json to_json() const;
  static GoldenRecord from_json(const Json& j);

 private:
  std::string name_;
  std::string description_;
  std::map<std::string, Quantity> quantities_;
};

/// One element that fell outside its tolerance band.
struct Mismatch {
  std::string quantity;
  std::size_t index = 0;
  std::string label;
  double expected = 0.0;
  double actual = 0.0;
  double allowed = 0.0;  ///< abs + rel * |expected|
};

struct GoldenCompare {
  bool pass = true;
  std::size_t values_compared = 0;
  std::vector<Mismatch> mismatches;          ///< capped at 16
  std::vector<std::string> missing_quantities;  ///< in golden, not in actual
  std::vector<std::string> extra_quantities;    ///< in actual, not in golden
  std::vector<std::string> size_mismatches;

  std::string summary() const;
};

/// Compare a freshly computed record against the stored golden. The
/// golden's tolerances are authoritative; the actual record's are ignored.
GoldenCompare compare_to_golden(const GoldenRecord& golden,
                                const GoldenRecord& actual);

GoldenRecord load_golden(const std::string& path);
void save_golden(const std::string& path, const GoldenRecord& record);

// ---------------------------------------------------------------------------
// Canonical experiment registry
// ---------------------------------------------------------------------------

struct GoldenCase {
  std::string name;      ///< also the file stem under the goldens dir
  std::string file() const { return name + ".json"; }
  std::function<GoldenRecord()> build;  ///< recompute from the live code
};

/// The experiments of experiments.hpp, in a stable order: dc_op_point,
/// then the paper's Figs. 1, 3, 4, 7, 8, 9 and Table II. Fig. 9 runs at
/// every hardware thread; its samples do not depend on the thread count.
const std::vector<GoldenCase>& golden_cases();

/// Directory the goldens live in: SFC_GOLDEN_DIR when compiled in (tests,
/// verify_runner), else "tests/goldens" relative to the working directory.
std::string default_golden_dir();

/// Run one case against the goldens in `dir`.
GoldenCompare run_golden_case(const GoldenCase& c, const std::string& dir);

}  // namespace sfc::verify
