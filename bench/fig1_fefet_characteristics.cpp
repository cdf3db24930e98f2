// Fig. 1 bench (FeFET I_D-V_G vs temperature): prints the record of
// verify::fig1_fefet_characteristics, writes it to
// fig1_fefet_characteristics.json and exits 1 if a paper claim fails.
#include "verify/experiments.hpp"

int main() {
  return sfc::verify::publish(sfc::verify::fig1_fefet_characteristics());
}
