// Extension: global process corners (die-to-die VTH / mobility shifts) on
// top of the paper's local Monte Carlo (Fig. 9). A real product must keep
// the MAC levels separable over corners x temperature simultaneously.
#include <cstdio>

#include "cim/energy.hpp"
#include "cim/mac.hpp"
#include "cim/montecarlo.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

int main() {
  std::printf("== Extension: process corners x temperature ==\n\n");

  const std::vector<double> temps = {0.0, 27.0, 85.0};

  util::Table table({"corner", "dVTH [mV]", "mobility", "NMR_min (0-85C)",
                     "separable", "E/op @27C [fJ]", "MC max err [%FS]"});
  for (const ProcessCorner& corner : standard_corners()) {
    const ArrayConfig cfg =
        apply_corner(ArrayConfig::proposed_2t1fefet(), corner);
    const NmrSummary nmr = summarize_nmr(mac_level_sweep(cfg, temps).levels());
    const EnergySummary energy = measure_energy(cfg, 27.0);
    MonteCarloConfig mc;
    mc.runs = 25;
    mc.mac_values = {0, 2, 4, 6, 8};
    const MonteCarloResult mcr = run_montecarlo(cfg, mc);
    table.add_row({corner.name, util::fmt(corner.dvth * 1e3, 3),
                   util::fmt(corner.mobility_scale, 3),
                   util::fmt(nmr.nmr_min, 3),
                   nmr.separable ? "yes" : "NO",
                   util::fmt(energy.mean_energy_per_op * 1e15, 4),
                   util::fmt(mcr.max_error_percent, 3)});
  }
  std::printf("%s\n", table.render().c_str());

  // Mitigation for the slow corner: the failing term is the WL read
  // headroom (WL - VTH_fefet), which a per-die WL trim restores.
  std::printf("slow-corner mitigation: WL read-level trim (SS corner):\n");
  util::Table trim({"V_wl_read [V]", "NMR_min (0-85C)", "separable"});
  for (double wl : {0.35, 0.37, 0.40}) {
    ArrayConfig cfg =
        apply_corner(ArrayConfig::proposed_2t1fefet(), standard_corners()[1]);
    cfg.bias.v_wl_read = wl;
    const NmrSummary nmr = summarize_nmr(mac_level_sweep(cfg, temps).levels());
    trim.add_row({util::fmt(wl, 3), util::fmt(nmr.nmr_min, 3),
                  nmr.separable ? "yes" : "NO"});
  }
  std::printf("%s\n", trim.render().c_str());

  std::printf(
      "reading:\n"
      "  * the ratiometric FeFET/M2 bias absorbs most of a global VTH\n"
      "    shift (their drifts cancel inside node A), but the *WL read\n"
      "    headroom* WL - VTH_fefet does not cancel: the slow corner\n"
      "    (+30 mV) eats it and NMR_min goes slightly negative - a real\n"
      "    margin limitation the paper does not evaluate;\n"
      "  * a 20-50 mV per-die WL trim (standard practice for subthreshold\n"
      "    designs) restores full separability at the slow corner;\n"
      "  * the fast corner *gains* margin, and energy moves only a few\n"
      "    percent across corners;\n"
      "  * local sigma_VT (Fig. 9) remains the dominant variation term.\n");
  return 0;
}
