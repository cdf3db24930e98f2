#include "nn/vgg.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "data/synth_cifar.hpp"

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

std::vector<VggTableRow> vgg_table(const VggConfig& cfg) {
  std::vector<VggTableRow> rows;
  char buf[64];
  const auto& ch = cfg.conv_channels;
  auto map3 = [&buf](int s, int c) {
    std::snprintf(buf, sizeof(buf), "%dx%dx%d", s, s, c);
    return std::string(buf);
  };
  auto conv_name = [&buf](int n, int idx) {
    std::snprintf(buf, sizeof(buf), "%d 3x3 Conv%d", n, idx);
    return std::string(buf);
  };

  int size = 32;
  int in_ch = 3;
  const double drops[7] = {0.3, 0.0, 0.4, 0.0, 0.4, 0.4, 0.0};
  int conv_idx = 1;
  int pool_idx = 1;
  for (int block = 0; block < 3; ++block) {
    const int convs = block == 2 ? 3 : 2;
    for (int k = 0; k < convs; ++k, ++conv_idx) {
      const int out_ch = ch[static_cast<std::size_t>(conv_idx - 1)];
      VggTableRow row;
      row.layer = conv_name(out_ch, conv_idx);
      row.input_map = map3(size, in_ch);
      row.output_map = map3(size, out_ch);
      const double drop = drops[conv_idx - 1];
      row.nonlinearity = (cfg.with_dropout && drop > 0.0)
                             ? ("ReLU,dropout(" + std::to_string(drop).substr(0, 3) + ")")
                             : "ReLU";
      rows.push_back(row);
      in_ch = out_ch;
    }
    VggTableRow pool;
    std::snprintf(buf, sizeof(buf), "[2,2] MaxPool%d", pool_idx++);
    pool.layer = buf;
    pool.input_map = map3(size, in_ch);
    size /= 2;
    pool.output_map = map3(size, in_ch);
    pool.nonlinearity = "-";
    rows.push_back(pool);
  }

  const int flat = size * size * in_ch;
  auto fc_row = [&](const std::string& name, int in, int out,
                    const std::string& nl) {
    VggTableRow row;
    row.layer = name;
    std::snprintf(buf, sizeof(buf), "1x1x%d", in);
    row.input_map = buf;
    std::snprintf(buf, sizeof(buf), "1x1x%d", out);
    row.output_map = buf;
    row.nonlinearity = nl;
    rows.push_back(row);
  };
  std::snprintf(buf, sizeof(buf), "%dx%d FC1", flat, cfg.fc_hidden);
  fc_row(buf, flat, cfg.fc_hidden,
         cfg.with_dropout ? "ReLU,dropout(0.5)" : "ReLU");
  std::snprintf(buf, sizeof(buf), "%dx%d FC2", cfg.fc_hidden, cfg.fc_hidden);
  fc_row(buf, cfg.fc_hidden, cfg.fc_hidden,
         cfg.with_dropout ? "ReLU,dropout(0.5)" : "ReLU");
  std::snprintf(buf, sizeof(buf), "%dx%d FC3", cfg.fc_hidden, kClasses);
  fc_row(buf, cfg.fc_hidden, kClasses, "-");
  return rows;
}

}  // namespace sfc::nn
