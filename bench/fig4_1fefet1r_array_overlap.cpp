// Fig. 4 bench (1FeFET-1R row levels overlap over 0-85 degC): prints the
// record of verify::fig4_1fefet1r_array_overlap, writes it to
// fig4_1fefet1r_array_overlap.json and exits 1 if a paper claim fails.
#include "verify/experiments.hpp"

int main() {
  return sfc::verify::publish(sfc::verify::fig4_1fefet1r_array_overlap());
}
