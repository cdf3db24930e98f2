// Fig. 3 reproduction: output current of the baseline 1FeFET-1R cell from
// 0 to 85 degC, normalized to the 27 degC reference, for
//   (a) V_read = 1.3 V  (saturation region - the operating point of [17]),
//   (b) V_read = 0.35 V (subthreshold region).
// Paper numbers: max fluctuation 20.6% (saturation) vs 52.1% (subthreshold).
#include <cstdio>
#include <vector>

#include "cim/mac.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

int main() {
  std::printf(
      "== Fig. 3: 1FeFET-1R cell output current vs temperature ==\n"
      "   (current-mode readout at the SL virtual ground, stored '1', "
      "input '1')\n\n");

  // 0..85 degC in 5 degC steps, plus the 27 degC reference point.
  std::vector<double> temps;
  for (double t = 0.0; t <= 85.0 + 1e-9; t += 5.0) {
    temps.push_back(t);
    if (t == 25.0) temps.push_back(27.0);
  }

  const CellFluctuation sat =
      cell_fluctuation(ArrayConfig::baseline_1r_saturation(), temps);
  const CellFluctuation sub =
      cell_fluctuation(ArrayConfig::baseline_1r_subthreshold(), temps);

  util::Table table({"T [degC]", "I_sat [A]", "I_sat/I27", "I_sub [A]",
                     "I_sub/I27"});
  util::CsvWriter csv("bench_fig3_1fefet1r.csv",
                      {"temp_c", "i_saturation", "norm_saturation",
                       "i_subthreshold", "norm_subthreshold"});
  for (std::size_t i = 0; i < sat.temps_c.size(); ++i) {
    table.add_row({util::fmt(sat.temps_c[i], 3), util::fmt(sat.current[i], 4),
                   util::fmt(sat.normalized[i], 4),
                   util::fmt(sub.current[i], 4),
                   util::fmt(sub.normalized[i], 4)});
    csv.row({sat.temps_c[i], sat.current[i], sat.normalized[i],
             sub.current[i], sub.normalized[i]});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "max normalized fluctuation over 0-85 degC (reference 27 degC):\n"
      "  (a) saturation   (1.3 V read):  measured %6.1f%%   paper 20.6%%\n"
      "  (b) subthreshold (0.35 V read): measured %6.1f%%   paper 52.1%%\n"
      "  shape check: subthreshold %s saturation (paper: yes)\n",
      sat.max * 100.0, sub.max * 100.0,
      sub.max > sat.max ? "worse than" : "NOT worse than");
  return 0;
}
