// Table II bench: prints the cited designs' columns (reference_designs())
// and the "This Work" row, whose accuracy cell points at accuracy_vgg_cim,
// then the record of verify::table2_comparison; writes it to
// table2_comparison.json and exits 1 if a paper claim fails.
#include <cstdio>

#include "cim/reference_designs.hpp"
#include "util/table.hpp"
#include "verify/experiments.hpp"

using namespace sfc;

int main() {
  const verify::GoldenRecord record = verify::table2_comparison();
  const auto value = [&](const char* q) { return record.at(q).values[0]; };

  util::Table table({"Work", "Device", "Process", "Cell", "Dataset",
                     "Network", "Accuracy", "Energy", "TOPS/W"});
  for (const auto& row : cim::reference_designs()) {
    table.add_row({row.work, row.device, row.process, row.cell, row.dataset,
                   row.network, row.accuracy, row.energy,
                   row.tops_per_watt > 0 ? util::fmt(row.tops_per_watt, 5)
                                         : "NA"});
  }
  const cim::DesignRow ours = cim::this_work_row(
      0.0, value("mean_energy_per_op"), value("tops_per_watt"),
      value("energy_per_inference"));
  table.add_row({ours.work, ours.device, ours.process, ours.cell,
                 ours.dataset, ours.network, "see accuracy_vgg_cim",
                 ours.energy, util::fmt(ours.tops_per_watt, 5)});
  std::printf("== Table II: performance summary ==\n\n%s\n"
              "* SynthCIFAR: procedural CIFAR-10 stand-in (DESIGN.md).\n\n",
              table.render().c_str());
  return verify::publish(record);
}
