// Fig. 7 reproduction: normalized output current of the proposed
// 2T-1FeFET cell vs temperature (reference 27 degC). Paper: max
// fluctuation 26.6% at 0 degC, improving to 12.4% above 20 degC -
// close to the saturation-mode baseline while reading at 0.35 V.
#include <cstdio>
#include <vector>

#include "cim/mac.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

int main() {
  std::printf(
      "== Fig. 7: 2T-1FeFET cell normalized output current vs T ==\n"
      "   (average C0 charging current over the 5 ns cell phase)\n\n");

  // 0..85 degC in 5 degC steps, plus the 27 degC reference point.
  std::vector<double> temps, warm;
  for (double t = 0.0; t <= 85.0 + 1e-9; t += 5.0) {
    temps.push_back(t);
    if (t == 25.0) temps.push_back(27.0);
  }
  for (double t : temps) {
    if (t >= 20.0) warm.push_back(t);
  }

  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  const CellFluctuation f = cell_fluctuation(cfg, temps);

  util::Table table({"T [degC]", "V_out [V]", "I_avg [A]", "I/I(27C)"});
  util::CsvWriter csv("bench_fig7_2t_cell.csv",
                      {"temp_c", "v_out", "i_avg", "normalized"});
  for (std::size_t i = 0; i < f.temps_c.size(); ++i) {
    table.add_row({util::fmt(f.temps_c[i], 3), util::fmt(f.v_out[i], 4),
                   util::fmt(f.current[i], 4), util::fmt(f.normalized[i], 4)});
    csv.row({f.temps_c[i], f.v_out[i], f.current[i], f.normalized[i]});
  }
  std::printf("%s\n", table.render().c_str());

  const double fluct_all = f.max;
  const double fluct_warm = cell_fluctuation(cfg, warm).max;
  // Baseline references for the shape comparison.
  const std::vector<double> anchors = {0.0, 27.0, 85.0};
  const double f_sat =
      cell_fluctuation(ArrayConfig::baseline_1r_saturation(), anchors).max;
  const double f_sub =
      cell_fluctuation(ArrayConfig::baseline_1r_subthreshold(), anchors).max;

  std::printf(
      "max fluctuation 0-85 degC:  measured %5.1f%%   paper 26.6%%\n"
      "max fluctuation 20-85 degC: measured %5.1f%%   paper 12.4%%\n"
      "shape checks:\n"
      "  2T-1FeFET < subthreshold 1FeFET-1R (%5.1f%%): %s\n"
      "  2T-1FeFET comparable to saturated 1FeFET-1R (%5.1f%%): %s\n",
      fluct_all * 100.0, fluct_warm * 100.0, f_sub * 100.0,
      fluct_all < f_sub ? "yes" : "NO", f_sat * 100.0,
      fluct_all < 1.5 * f_sat ? "yes" : "NO");
  return 0;
}
