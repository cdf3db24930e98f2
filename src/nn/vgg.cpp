#include "nn/vgg.hpp"

#include <algorithm>
#include <cassert>

#include "data/synth_cifar.hpp"
#include "util/table.hpp"

namespace sfc::nn {

/// FC3 scores the dataset's classes (CIFAR-10).
constexpr int kClasses = data::Dataset::kNumClasses;

VggConfig VggConfig::paper() { return VggConfig{}; }

VggConfig VggConfig::reduced(double width_factor) {
  VggConfig cfg;
  for (int& c : cfg.conv_channels) {
    c = std::max(4, static_cast<int>(c * width_factor));
  }
  cfg.fc_hidden = std::max(32, static_cast<int>(cfg.fc_hidden * width_factor));
  return cfg;
}

Sequential build_vgg(const VggConfig& cfg) {
  assert(cfg.conv_channels.size() == 7);
  sfc::util::Rng rng(cfg.init_seed);
  Sequential net;
  const auto& ch = cfg.conv_channels;

  // Block 1: conv1(dropout 0.3) conv2, pool.
  net.add<Conv2d>(3, ch[0], 3, true, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.3);
  net.add<Conv2d>(ch[0], ch[1], 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);

  // Block 2: conv3(dropout 0.4) conv4, pool.
  net.add<Conv2d>(ch[1], ch[2], 3, true, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.4);
  net.add<Conv2d>(ch[2], ch[3], 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);

  // Block 3: conv5(0.4) conv6(0.4) conv7, pool.
  net.add<Conv2d>(ch[3], ch[4], 3, true, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.4);
  net.add<Conv2d>(ch[4], ch[5], 3, true, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.4);
  net.add<Conv2d>(ch[5], ch[6], 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);

  // Head: flatten(4*4*ch6) -> FC1 -> FC2 -> FC3.
  const int flat = 4 * 4 * ch[6];
  net.add<Flatten>();
  net.add<Dense>(flat, cfg.fc_hidden, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.5);
  net.add<Dense>(cfg.fc_hidden, cfg.fc_hidden, rng);
  net.add<Relu>();
  if (cfg.with_dropout) net.add<Dropout>(0.5);
  net.add<Dense>(cfg.fc_hidden, kClasses, rng);
  return net;
}

std::vector<VggTableRow> vgg_table(const Sequential& net) {
  // Table I writes a CHW shape as height x width x channels and a flat one
  // of N as 1x1xN.
  const auto map = [](const std::vector<int>& s) {
    const std::string c = std::to_string(s[0]);
    return s.size() == 1 ? "1x1x" + c
                         : std::to_string(s[1]) + 'x' + std::to_string(s[2]) +
                               'x' + c;
  };
  std::vector<VggTableRow> rows;
  std::vector<int> shape = {3, 32, 32};  // a CIFAR-10 image
  int convs = 0, pools = 0, fcs = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const Layer& layer = net.layer(i);
    const std::vector<int> in = shape;
    shape = layer.output_shape(in);
    // A Conv2d, MaxPool2d or Dense opens a row; the ReLU and dropout after
    // it are that row's nonlinearity.
    std::string name;
    if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      const std::string k = std::to_string(conv->kernel());
      name = std::to_string(conv->out_channels()) + ' ' + k + 'x' + k +
             " Conv" + std::to_string(++convs);
    } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
      const std::string w = std::to_string(pool->window());
      name = '[' + w + ',' + w + "] MaxPool" + std::to_string(++pools);
    } else if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      name = std::to_string(dense->in_features()) + 'x' +
             std::to_string(dense->out_features()) + " FC" +
             std::to_string(++fcs);
    } else if (!rows.empty()) {
      std::string& nl = rows.back().nonlinearity;
      if (dynamic_cast<const Relu*>(&layer) != nullptr) {
        nl = "ReLU";
      } else if (const auto* drop = dynamic_cast<const Dropout*>(&layer)) {
        nl = (nl == "-" ? "" : nl + ",") + "dropout(" +
             util::fmt(drop->rate()) + ")";
      }
    }
    if (!name.empty()) rows.push_back({name, map(in), map(shape), "-"});
  }
  return rows;
}

}  // namespace sfc::nn
