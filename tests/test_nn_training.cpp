// End-to-end training tests: a small CNN must learn SynthCIFAR well above
// chance; the trainer must reduce loss; VGG builders must match Table I.
#include <gtest/gtest.h>

#include "nn/trainer.hpp"
#include "nn/vgg.hpp"

namespace sfc::nn {
namespace {

sfc::data::SynthCifarConfig tiny_data() {
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 24;
  cfg.test_per_class = 8;
  cfg.noise_sigma = 0.06;
  return cfg;
}

Sequential tiny_cnn(std::uint64_t seed = 11) {
  sfc::util::Rng rng(seed);
  Sequential net;
  net.add<Conv2d>(3, 6, 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);   // 16x16
  net.add<Conv2d>(6, 10, 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);   // 8x8
  net.add<MaxPool2d>(2);   // 4x4
  net.add<Flatten>();
  net.add<Dense>(10 * 4 * 4, 10, rng);
  return net;
}

TEST(Training, LossDecreasesAndBeatsChance) {
  const auto train = sfc::data::make_synth_cifar_train(tiny_data());
  const auto test = sfc::data::make_synth_cifar_test(tiny_data());
  Sequential net = tiny_cnn();

  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.05;
  Trainer trainer(net, cfg);
  const auto history = trainer.fit(train);
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  EXPECT_GT(history.back().train_accuracy, 0.5);

  const double test_acc = Trainer::evaluate(net, test);
  EXPECT_GT(test_acc, 0.4);  // chance is 0.1
}

TEST(Training, DeterministicGivenSeeds) {
  const auto train = sfc::data::make_synth_cifar_train(tiny_data());
  auto run = [&] {
    Sequential net = tiny_cnn(123);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.seed = 77;
    Trainer trainer(net, cfg);
    return trainer.fit(train).back().mean_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Training, EpochCallbackFires) {
  const auto train = sfc::data::make_synth_cifar_train(tiny_data());
  Sequential net = tiny_cnn();
  TrainConfig cfg;
  cfg.epochs = 3;
  Trainer trainer(net, cfg);
  int calls = 0;
  trainer.fit(train, [&](const EpochStats& s) {
    EXPECT_EQ(s.epoch, calls);
    ++calls;
  });
  EXPECT_EQ(calls, 3);
}

// The paper's Table I, cell for cell, read off the network build_vgg
// returns: 7 conv + 3 pool + 3 FC, FC1's input 4*4*256 = 4096.
TEST(Vgg, PaperTableStructure) {
  const std::vector<std::vector<std::string>> table1 = {
      {"64 3x3 Conv1", "32x32x3", "32x32x64", "ReLU,dropout(0.3)"},
      {"64 3x3 Conv2", "32x32x64", "32x32x64", "ReLU"},
      {"[2,2] MaxPool1", "32x32x64", "16x16x64", "-"},
      {"128 3x3 Conv3", "16x16x64", "16x16x128", "ReLU,dropout(0.4)"},
      {"128 3x3 Conv4", "16x16x128", "16x16x128", "ReLU"},
      {"[2,2] MaxPool2", "16x16x128", "8x8x128", "-"},
      {"256 3x3 Conv5", "8x8x128", "8x8x256", "ReLU,dropout(0.4)"},
      {"256 3x3 Conv6", "8x8x256", "8x8x256", "ReLU,dropout(0.4)"},
      {"256 3x3 Conv7", "8x8x256", "8x8x256", "ReLU"},
      {"[2,2] MaxPool3", "8x8x256", "4x4x256", "-"},
      {"4096x4096 FC1", "1x1x4096", "1x1x4096", "ReLU,dropout(0.5)"},
      {"4096x4096 FC2", "1x1x4096", "1x1x4096", "ReLU,dropout(0.5)"},
      {"4096x10 FC3", "1x1x4096", "1x1x10", "-"},
  };
  const auto rows = vgg_table(build_vgg(VggConfig::paper()));
  ASSERT_EQ(rows.size(), table1.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((std::vector<std::string>{rows[i].layer, rows[i].input_map,
                                        rows[i].output_map,
                                        rows[i].nonlinearity}),
              table1[i])
        << "row " << i;
  }
}

TEST(Vgg, BuiltNetworkShapesPropagate) {
  const VggConfig cfg = VggConfig::reduced(0.0625);  // conv 4.. fc 256
  Sequential net = build_vgg(cfg);
  LayerContext ctx;
  sfc::util::Rng rng(1);
  Tensor x({3, 32, 32});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform());
  }
  const Tensor logits = net.forward(x, ctx);
  EXPECT_EQ(logits.shape(), (std::vector<int>{10}));
}

TEST(Vgg, ReducedKeepsTopology) {
  const VggConfig cfg = VggConfig::reduced(0.125);
  EXPECT_EQ(cfg.conv_channels.size(), 7u);
  EXPECT_EQ(cfg.conv_channels[0], 8);
  EXPECT_EQ(cfg.conv_channels[6], 32);
  EXPECT_EQ(cfg.fc_hidden, 512);
  const auto rows = vgg_table(build_vgg(cfg));
  EXPECT_EQ(rows.size(), 13u);
}

TEST(Vgg, PaperParameterCountIsLarge) {
  // Sanity: the full Table-I network is tens of millions of parameters
  // (dominated by FC1/FC2 4096x4096); we only count, never train it here.
  Sequential net = build_vgg(VggConfig::paper());
  EXPECT_GT(net.num_parameters(), 30'000'000u);
}

}  // namespace
}  // namespace sfc::nn
