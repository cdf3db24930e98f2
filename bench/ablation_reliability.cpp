// Extension experiment (beyond the paper): NVM reliability of the
// proposed array.
//   1. Retention: MAC level separability after years of storage at
//      27 / 85 degC (thermal depolarization closes the memory window).
//   2. Read disturb: the WL underdrive that protects the MAC=0 margin
//      applies -0.2 V to unselected cells; billions of reads slowly
//      depolarize a stored '1'. This quantifies that design trade-off.
#include <cstdio>
#include <vector>

#include "cim/mac.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

namespace {

constexpr double kYear = 3.156e7;

NmrSummary nmr_after(void (*prepare)(CiMRow&)) {
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  prepare(row);
  // Level sweep with the prepared (aged/disturbed) FeFETs.
  std::vector<LevelRange> levels(9);
  for (int k = 0; k <= 8; ++k) {
    levels[static_cast<std::size_t>(k)].mac = k;
    levels[static_cast<std::size_t>(k)].lo = 1e30;
    levels[static_cast<std::size_t>(k)].hi = -1e30;
  }
  for (double t : {0.0, 27.0, 85.0}) {
    const std::vector<MacResult> ladder = row.evaluate_levels(t);
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      if (!ladder[k].converged) {
        throw_not_converged("ablation_reliability", cfg, t,
                            static_cast<int>(k), "input-driven zeros");
      }
      levels[k].lo = std::min(levels[k].lo, ladder[k].v_acc);
      levels[k].hi = std::max(levels[k].hi, ladder[k].v_acc);
    }
  }
  return summarize_nmr(levels);
}

}  // namespace

int main() {
  std::printf("== Extension: retention and read-disturb of the 2T-1FeFET "
              "array ==\n\n");

  // --- retention -----------------------------------------------------------
  util::Table retention({"storage", "P(low-VTH cell)", "VTH shift [mV]",
                         "NMR_min (0-85C)", "separable"});
  struct Bake {
    const char* label;
    double seconds;
    double temp;
  };
  const Bake bakes[] = {{"fresh", 0.0, 27.0},
                        {"1 year @ 27C", 1 * kYear, 27.0},
                        {"10 years @ 27C", 10 * kYear, 27.0},
                        {"1 year @ 85C", 1 * kYear, 85.0},
                        {"10 years @ 85C", 10 * kYear, 85.0},
                        {"10 years @ 125C", 10 * kYear, 125.0}};
  for (const Bake& bake : bakes) {
    fefet::PreisachModel probe;
    probe.write_bit(true, 27.0);
    const double vth_fresh = probe.vth(27.0);
    probe.age(bake.seconds, bake.temp);
    const double vth_aged = probe.vth(27.0);

    static double bake_seconds;
    static double bake_temp;
    bake_seconds = bake.seconds;
    bake_temp = bake.temp;
    const NmrSummary nmr = nmr_after([](CiMRow& row) {
      for (int i = 0; i < row.cells(); ++i) {
        row.cell(i).fefet->ferroelectric().age(bake_seconds, bake_temp);
      }
    });
    retention.add_row({bake.label, util::fmt(probe.polarization(), 4),
                       util::fmt((vth_aged - vth_fresh) * 1e3, 3),
                       util::fmt(nmr.nmr_min, 3),
                       nmr.separable ? "yes" : "NO"});
  }
  std::printf("%s\n", retention.render().c_str());

  // --- read disturb --------------------------------------------------------
  util::Table disturb({"unselected reads (WL = -0.2 V)", "P(stored '1')",
                       "NMR_min (0-85C)", "separable"});
  const long cycle_counts[] = {0L, 1000000L, 100000000L, 1000000000L,
                               10000000000L};
  for (long cycles : cycle_counts) {
    fefet::PreisachModel probe;
    probe.write_bit(true, 27.0);
    probe.read_disturb(-0.2, 5e-9, cycles, 85.0);

    static long disturb_cycles;
    disturb_cycles = cycles;
    const NmrSummary nmr = nmr_after([](CiMRow& row) {
      for (int i = 0; i < row.cells(); ++i) {
        row.cell(i).fefet->ferroelectric().read_disturb(-0.2, 5e-9,
                                                        disturb_cycles, 85.0);
      }
    });
    char label[64];
    std::snprintf(label, sizeof(label), "%.0e cycles @ 85C",
                  static_cast<double>(cycles));
    disturb.add_row({cycles == 0 ? "none" : label,
                     util::fmt(probe.polarization(), 5),
                     util::fmt(nmr.nmr_min, 3),
                     nmr.separable ? "yes" : "NO"});
  }
  std::printf("%s\n", disturb.render().c_str());

  std::printf(
      "takeaways:\n"
      "  * a decade-class bake at 85 degC costs a few percent of\n"
      "    polarization and single-digit mV of VTH - the array stays\n"
      "    separable (retention is not the limiter of this design);\n"
      "  * the WL underdrive (-0.2 V) that fixes the MAC=0 margin is a\n"
      "    genuine trade-off: around 1e9 opposing reads the accumulated\n"
      "    disturb erodes the stored '1' enough to break separability.\n"
      "    At the 145 MHz MAC rate that is only seconds of continuous\n"
      "    worst-case (always-unselected) activity, so a deployed design\n"
      "    needs either a smaller underdrive, periodic rewrite, or\n"
      "    disturb-aware scheduling - none of which the paper discusses.\n");
  return 0;
}
