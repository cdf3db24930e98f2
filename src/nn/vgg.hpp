// VGG network builder following the paper's Table I, plus a width-scaled
// variant that trains in minutes on a CPU while keeping the same topology
// (7 conv + 3 pool + 3 FC, same dropout schedule).
#pragma once

#include <string>
#include <vector>

#include "nn/model.hpp"

namespace sfc::nn {

struct VggConfig {
  /// Channel widths of the 7 conv layers (Table I: 64 64 128 128 256 256 256).
  std::vector<int> conv_channels = {64, 64, 128, 128, 256, 256, 256};
  /// Hidden widths of FC1/FC2 (Table I: 4096, 4096).
  int fc_hidden = 4096;
  /// Dropout schedule from Table I.
  bool with_dropout = true;
  std::uint64_t init_seed = 2024;

  /// The exact Table-I network.
  static VggConfig paper();
  /// Width-scaled variant for CPU-feasible training (factor of the paper's
  /// widths, e.g. 0.125 -> conv 8 8 16 16 32 32 32, fc 512).
  static VggConfig reduced(double width_factor = 0.125);
};

/// Build the network (Conv-ReLU-Dropout blocks, pools, FC head).
Sequential build_vgg(const VggConfig& cfg);

/// Table I as printable rows: layer | input map | output map | nonlinearity.
struct VggTableRow {
  std::string layer;
  std::string input_map;
  std::string output_map;
  std::string nonlinearity;
};
/// Table I read off a network: its layers walked from a 3x32x32 input. A
/// Conv2d, MaxPool2d or Dense opens a row; the ReLU and Dropout after it
/// set that row's nonlinearity ("-" without them).
std::vector<VggTableRow> vgg_table(const Sequential& net);

}  // namespace sfc::nn
