// Fig. 9 bench (sigma_VT Monte Carlo): prints the record of
// verify::fig9_montecarlo_variation, writes it to
// fig9_montecarlo_variation.json and exits 1 if a paper claim fails.
// --threads N fans the independent runs out over N worker threads
// (N = 0 uses all hardware threads); the record is bit-identical to a
// serial run for any N. Takes --trace OUT.json / --metrics OUT.json.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "trace/cli.hpp"
#include "util/parse.hpp"
#include "verify/experiments.hpp"

int main(int argc, char** argv) {
  sfc::trace::install_cli_observability(&argc, argv);
  sfc::exec::ExecPolicy exec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::uint64_t> threads;
    if (arg == "--threads" && i + 1 < argc) {
      threads = sfc::util::parse_unsigned(argv[++i], 10, INT_MAX);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = sfc::util::parse_unsigned(argv[i] + 10, 10, INT_MAX);
    }
    if (!threads) {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--trace OUT.json] "
                   "[--metrics OUT.json]\n",
                   argv[0]);
      return 1;
    }
    exec.threads = static_cast<int>(*threads);
  }
  return sfc::verify::publish(sfc::verify::fig9_montecarlo_variation(exec));
}
