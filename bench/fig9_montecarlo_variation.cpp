// Fig. 9 reproduction: impact of process variation (100 Monte Carlo runs,
// sigma_VT = 54 mV, 27 degC) on the CiM output, as an error histogram.
// Paper: highest error ~25%; below 10% with 4 cells per row.
//
// --threads N fans the independent runs out over N worker threads
// (N = 0 uses all hardware threads); the samples are bit-identical to a
// serial run for any N.
#include <climits>
#include <cstdio>
#include <optional>
#include <string>

#include "cim/montecarlo.hpp"
#include "trace/cli.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"

using namespace sfc;
using namespace sfc::cim;

int main(int argc, char** argv) {
  trace::install_cli_observability(&argc, argv);
  MonteCarloConfig mc;
  mc.runs = 100;
  mc.sigma_vt_fefet = 0.054;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::uint64_t> threads;
    if (arg == "--threads" && i + 1 < argc) {
      threads = util::parse_unsigned(argv[++i], 10, INT_MAX);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = util::parse_unsigned(argv[i] + 10, 10, INT_MAX);
    }
    if (!threads) {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--trace OUT.json] "
                   "[--metrics OUT.json]\n",
                   argv[0]);
      return 1;
    }
    mc.exec.threads = static_cast<int>(*threads);
  }

  std::printf(
      "== Fig. 9: Monte Carlo process variation (100 runs, sigma=54 mV, "
      "27 degC) ==\n\n");

  const MonteCarloResult r8 =
      run_montecarlo(ArrayConfig::proposed_2t1fefet(), mc);
  std::printf(
      "fan-out: %d thread(s), %zu runs, wall %.1f ms (task time %.1f ms, "
      "effective concurrency %.2fx)\n\n",
      r8.job.threads_used, r8.job.tasks, r8.job.wall_ms,
      r8.job.task_ms_total(), r8.job.speedup());
  const auto errors = r8.errors();
  util::Histogram hist(0.0, 30.0, 15);
  hist.add_all(errors);
  std::printf("error histogram (%% of full-scale output, %zu samples):\n%s\n",
              errors.size(), hist.ascii(48).c_str());

  util::CsvWriter csv("bench_fig9_mc.csv",
                      {"run", "mac", "v_acc", "error_percent"});
  for (const auto& s : r8.samples) {
    csv.row({static_cast<double>(s.run), static_cast<double>(s.mac), s.v_acc,
             s.error_percent});
  }

  ArrayConfig cfg4 = ArrayConfig::proposed_2t1fefet();
  cfg4.cells_per_row = 4;
  const MonteCarloResult r4 = run_montecarlo(cfg4, mc);

  std::printf(
      "8 cells/row: max error %5.1f%% of full scale (mean %4.1f%%, p95 "
      "%4.1f%%); worst %4.2f level spacings   (paper: max ~25%%)\n"
      "4 cells/row: max error %5.1f%% of full scale; worst %4.2f level "
      "spacings   (paper: below 10%%, comparable to 1FeFET-1R)\n"
      "shape checks:\n"
      "  max error within ~2x of paper's 25%%: %s\n"
      "  4-cell row more robust per level spacing (the ADC-relevant "
      "normalization): %s\n",
      r8.max_error_percent, r8.mean_error_percent,
      util::percentile(errors, 95.0), r8.max_error_levels,
      r4.max_error_percent, r4.max_error_levels,
      (r8.max_error_percent > 5.0 && r8.max_error_percent < 50.0) ? "yes"
                                                                  : "NO",
      r4.max_error_levels <= r8.max_error_levels ? "yes" : "NO");
  return 0;
}
