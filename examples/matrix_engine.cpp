// Matrix-vector products on the circuit-accurate CiM tile: program a
// binary weight matrix into 2T-1FeFET rows, multiply by input vectors at
// several temperatures, and plot the analog accumulation levels.
//
//   $ ./matrix_engine [rows] [columns]
#include <cstdint>
#include <cstdio>
#include <optional>

#include "cim/tile.hpp"
#include "util/parse.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace sfc;
  using namespace sfc::cim;

  std::optional<std::uint64_t> rows_arg = 4;
  std::optional<std::uint64_t> columns_arg = 16;
  if (argc > 1) rows_arg = util::parse_unsigned(argv[1], 10, 16);
  if (argc > 2) columns_arg = util::parse_unsigned(argv[2], 10, 64);
  if (!rows_arg || !columns_arg || *rows_arg == 0 || *columns_arg == 0) {
    std::fprintf(stderr, "usage: %s [rows<=16] [columns<=64]\n", argv[0]);
    return 1;
  }
  const int rows = static_cast<int>(*rows_arg);
  const int columns = static_cast<int>(*columns_arg);

  util::Rng rng(99);
  std::vector<std::vector<int>> weights(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(columns)));
  std::vector<int> input(static_cast<std::size_t>(columns));
  for (auto& row : weights) {
    for (int& b : row) b = rng.bernoulli(0.5) ? 1 : 0;
  }
  for (int& b : input) b = rng.bernoulli(0.5) ? 1 : 0;

  std::printf("calibrating the ADC references (circuit level)...\n");
  const BehavioralArrayModel adc = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});

  CiMTile tile(ArrayConfig::proposed_2t1fefet(), weights);
  std::printf("tile: %d x %d weights -> %d segment(s) of 8 cells per row\n\n",
              rows, columns, tile.segments_per_row());

  for (double t : {0.0, 27.0, 85.0}) {
    const CiMTile::Result r = tile.multiply(input, t, adc);
    std::printf("T = %5.1f degC:  y = [", t);
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", r.values[i]);
    }
    std::printf("]  expected [");
    for (std::size_t i = 0; i < r.expected.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", r.expected[i]);
    }
    std::printf("]  errors=%d  energy=%.2f fJ\n", r.errors(),
                r.energy_joules * 1e15);
  }

  // Plot the raw analog levels of row 0 across temperature.
  std::printf("\nanalog V_acc of row 0's segments vs temperature:\n");
  util::AsciiPlot plot(56, 12);
  const char glyphs[] = {'o', '*', '#'};
  int gi = 0;
  for (double t : {0.0, 27.0, 85.0}) {
    const CiMTile::Result r = tile.multiply(input, t, adc);
    std::vector<double> xs, ys;
    for (std::size_t s = 0; s < r.v_acc[0].size(); ++s) {
      xs.push_back(static_cast<double>(s));
      ys.push_back(r.v_acc[0][s]);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.0fC", t);
    plot.add_series(label, xs, ys, glyphs[gi++ % 3]);
  }
  std::printf("%s", plot.render().c_str());
  std::printf("\n(x axis: segment index; the per-temperature level shifts "
              "stay inside one ADC bin)\n");
  return 0;
}
