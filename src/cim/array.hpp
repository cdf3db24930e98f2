// CiMRow: one row of the CiM array (Fig. 6) - n cells, per-cell C0, EN
// switches and the shared accumulation capacitor Cacc. Owns the circuit
// and re-runs the full MAC cycle (write-independent read transient) at any
// temperature.
#pragma once

#include <optional>
#include <vector>

#include "cim/cell.hpp"
#include "spice/engine.hpp"

namespace sfc::cim {

/// Result of one MAC cycle: its physics only. The solver work it took is
/// counted by the trace ledger (spice.newton.iterations, DESIGN.md §11).
struct MacResult {
  bool converged = false;
  /// Final voltage on the accumulation capacitor [V] (the MAC output).
  double v_acc = 0.0;
  /// Per-cell output voltage V_Oi sampled at the end of the cell phase [V].
  std::vector<double> v_cell;
  /// Net energy delivered by all supplies over the cycle [J].
  double energy_joules = 0.0;
  /// Ops per row MAC: n multiplications + 1 accumulation (paper Sec. IV-A).
  int ops = 0;
  /// Full waveform record (only populated when requested).
  sfc::spice::TransientResult waveforms;

  double energy_per_op() const {
    return ops > 0 ? energy_joules / ops : 0.0;
  }
};

/// Input bits of MAC value `k` on a `cells`-wide row: the first k high.
std::vector<int> level_inputs(int cells, int k);

class CiMRow {
 public:
  explicit CiMRow(ArrayConfig cfg);

  // The cached engine holds a reference to circuit_; pin the row in place.
  CiMRow(const CiMRow&) = delete;
  CiMRow& operator=(const CiMRow&) = delete;

  int cells() const { return cfg_.cells_per_row; }
  const ArrayConfig& config() const { return cfg_; }

  /// Program stored weights using the paper's +-4 V pulse protocol at the
  /// given (write-time) temperature.
  void program(const std::vector<int>& weights,
               double write_temperature_c = 27.0);

  /// Force polarization states directly (+1 for '1', -1 for '0'); bypasses
  /// write dynamics for experiments that are not about programming.
  void set_stored(const std::vector<int>& weights);

  /// Stored bits currently held by the FeFETs.
  std::vector<int> stored() const;

  /// Monte Carlo hook: per-cell FeFET threshold shifts [V].
  void set_fefet_vth_shifts(const std::vector<double>& shifts);

  /// Run one MAC cycle with the given input bits at `temperature_c`.
  MacResult evaluate(const std::vector<int>& inputs, double temperature_c,
                     bool keep_waveforms = false);

  /// The MAC-level ladder: evaluate(level_inputs(n, k), temperature_c) for
  /// k = 0..n in k order, on the stored weights. With every weight stored
  /// '1', entry k is the row output for MAC value k.
  std::vector<MacResult> evaluate_levels(double temperature_c);

  /// Direct access for tests.
  const CellHandles& cell(int i) const {
    return cells_.at(static_cast<std::size_t>(i));
  }
  sfc::spice::Circuit& circuit() { return circuit_; }

  /// Node name of the accumulation capacitor.
  static constexpr const char* kAccNode = "acc";

 private:
  ArrayConfig cfg_;
  sfc::spice::Circuit circuit_;
  std::vector<CellHandles> cells_;
  sfc::spice::VSource* en_ = nullptr;
  /// Engine kept across evaluate() calls so the solver workspace — the
  /// compiled stamp pattern and LU plan — is reused between MAC cycles on
  /// the same array (results are independent of workspace state).
  std::optional<sfc::spice::Engine> engine_;
};

}  // namespace sfc::cim
