// Fig. 8 bench (2T-1FeFET row levels, NMR and energy per op): prints the
// record of verify::fig8_2t1fefet_array, writes it to
// fig8_2t1fefet_array.json and exits 1 if a paper claim fails. Takes
// --trace OUT.json / --metrics OUT.json.
#include "trace/cli.hpp"
#include "verify/experiments.hpp"

int main(int argc, char** argv) {
  sfc::trace::install_cli_observability(&argc, argv);
  return sfc::verify::publish(sfc::verify::fig8_2t1fefet_array());
}
