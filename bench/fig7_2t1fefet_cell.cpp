// Fig. 7 bench (2T-1FeFET cell current vs temperature): prints the record
// of verify::fig7_2t1fefet_cell, writes it to fig7_2t1fefet_cell.json and
// exits 1 if a paper claim fails.
#include "verify/experiments.hpp"

int main() {
  return sfc::verify::publish(sfc::verify::fig7_2t1fefet_cell());
}
