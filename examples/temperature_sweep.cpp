// Temperature-resilience walkthrough: compare the proposed 2T-1FeFET row
// against the subthreshold 1FeFET-1R baseline over the full 0-85 degC
// range, printing the per-MAC output bands and the resulting noise
// margins - the experiment behind the paper's Figs. 4 and 8(a).
//
//   $ ./temperature_sweep [n_cells]
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "cim/mac.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace sfc::cim;

  std::optional<std::uint64_t> cells_arg = 8;
  if (argc > 1) cells_arg = sfc::util::parse_unsigned(argv[1], 10, 16);
  if (!cells_arg || *cells_arg == 0) {
    std::fprintf(stderr, "usage: %s [n_cells in 1..16]\n", argv[0]);
    return 1;
  }
  const int cells = static_cast<int>(*cells_arg);

  const std::vector<double> temps = {0.0, 20.0, 27.0, 55.0, 85.0};

  for (const auto& [name, make] :
       {std::pair<const char*, ArrayConfig (*)()>{
            "2T-1FeFET (proposed)", &ArrayConfig::proposed_2t1fefet},
        {"1FeFET-1R subthreshold (baseline)",
         &ArrayConfig::baseline_1r_subthreshold}}) {
    ArrayConfig cfg = make();
    cfg.cells_per_row = cells;
    std::printf("=== %s, %d cells/row ===\n", name, cells);

    const std::vector<LevelRange> levels =
        mac_level_sweep(cfg, temps).levels();

    // Text rendering of the level bands.
    double v_max = 1e-9;
    for (const auto& level : levels) v_max = std::max(v_max, level.hi);
    const int columns = 56;
    for (const auto& level : levels) {
      const int lo = static_cast<int>(level.lo / v_max * columns);
      const int hi = static_cast<int>(level.hi / v_max * columns);
      std::string bar(static_cast<std::size_t>(columns + 1), ' ');
      for (int c = lo; c <= hi; ++c) bar[static_cast<std::size_t>(c)] = '#';
      std::printf("  MAC=%d |%s| [%.4f, %.4f] V\n", level.mac, bar.c_str(),
                  level.lo, level.hi);
    }
    const NmrSummary summary = summarize_nmr(levels);
    std::printf("  NMR_min = %+.3f at MAC=%d -> %s\n\n", summary.nmr_min,
                summary.argmin_mac,
                summary.separable
                    ? "all levels separable over 0-85 degC"
                    : "levels OVERLAP: computation errors under drift");
  }
  return 0;
}
