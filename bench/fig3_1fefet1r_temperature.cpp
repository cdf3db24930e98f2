// Fig. 3 bench (1FeFET-1R cell current vs temperature): prints the record
// of verify::fig3_1fefet1r_temperature, writes it to
// fig3_1fefet1r_temperature.json and exits 1 if a paper claim fails.
#include "verify/experiments.hpp"

int main() {
  return sfc::verify::publish(sfc::verify::fig3_1fefet1r_temperature());
}
