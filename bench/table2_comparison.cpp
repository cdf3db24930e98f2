// Table II reproduction: performance summary across CiM designs. The six
// literature rows are cited values; the "This Work" row is measured by
// this reproduction: energy per op from the circuit simulation, energy per
// inference from the row-MAC count of the VGG that accuracy_vgg_cim runs.
// Accuracy needs a trained network, so that cell points at accuracy_vgg_cim.
#include <cstdio>

#include "cim/behavioral.hpp"
#include "cim/energy.hpp"
#include "cim/reference_designs.hpp"
#include "data/synth_cifar.hpp"
#include "nn/cim_engine.hpp"
#include "nn/vgg.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

namespace {

/// Row MACs of one 8-bit VGG(1/8 width) inference on the CiM fabric. The
/// count depends only on the network shape and the wordlength, so one
/// forward of an untrained, quantized net gives the count accuracy_vgg_cim
/// gets from its trained net.
long long vgg_row_ops_per_inference() {
  const nn::Sequential net = nn::build_vgg(nn::VggConfig::reduced(0.125));
  data::SynthCifarConfig dcfg;
  dcfg.train_per_class = 1;
  const data::Dataset images = data::make_synth_cifar_train(dcfg);
  const nn::QuantizedNetwork qnet = nn::QuantizedNetwork::from_model(
      net, images, static_cast<int>(images.size()));
  const BehavioralArrayModel model =
      BehavioralArrayModel::calibrate(ArrayConfig::proposed_2t1fefet(), {27.0});
  nn::CimDotEngine engine(model, nn::CimDotEngine::Options{});
  qnet.forward(images.images[0], engine);
  return static_cast<long long>(engine.row_ops());
}

}  // namespace

int main() {
  std::printf("== Table II: performance summary ==\n\n");

  // Measure this work. Each row MAC is one 8-cell MAC = 9 paper-ops.
  const EnergySummary energy =
      measure_energy(ArrayConfig::proposed_2t1fefet(), 27.0);
  const long long row_ops = vgg_row_ops_per_inference();
  const double energy_per_inference =
      static_cast<double>(row_ops) * 9.0 * energy.mean_energy_per_op;

  util::Table table({"Work", "Device", "Process", "Cell", "Dataset",
                     "Network", "Accuracy", "Energy", "TOPS/W"});
  for (const auto& row : reference_designs()) {
    table.add_row({row.work, row.device, row.process, row.cell, row.dataset,
                   row.network, row.accuracy, row.energy,
                   row.tops_per_watt > 0 ? util::fmt(row.tops_per_watt, 5)
                                         : "NA"});
  }
  const DesignRow ours =
      this_work_row(0.0, energy.mean_energy_per_op, energy.tops_per_watt,
                    energy_per_inference);
  table.add_row({ours.work, ours.device, ours.process, ours.cell,
                 ours.dataset, ours.network, "see accuracy_vgg_cim",
                 ours.energy, util::fmt(ours.tops_per_watt, 5)});
  std::printf("%s\n", table.render().c_str());
  std::printf("* SynthCIFAR: procedural CIFAR-10 stand-in (DESIGN.md).\n");
  std::printf(
      "  This Work per inference: %lld row MACs of one VGG(1/8 width) "
      "forward at 8 bits.\n\n",
      row_ops);

  const auto refs = reference_designs();
  const double e_ours = energy.mean_energy_per_op;
  std::printf(
      "energy ratios vs this work (paper: ReRAM 64.6x, MTJ 445.9x over "
      "3.14 fJ):\n");
  for (const auto& row : refs) {
    const double ratio = energy_ratio_vs(row, e_ours);
    if (ratio > 0.0) {
      std::printf("  %-5s %-6s : %8.1fx more energy per op\n",
                  row.work.c_str(), row.device.c_str(), ratio);
    }
  }
  std::printf(
      "\nshape checks:\n"
      "  this work has the lowest per-op energy of all rows with per-op "
      "data: %s\n"
      "  TOPS/W within the FeFET-CiM order of magnitude (paper 2866): "
      "measured %.0f\n",
      [&] {
        for (const auto& row : refs) {
          if (row.energy_per_op_joules > 0.0 &&
              row.energy_per_op_joules < e_ours) {
            return "NO";
          }
        }
        return "yes";
      }(),
      energy.tops_per_watt);
  return 0;
}
