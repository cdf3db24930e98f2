// Quantization + CiM dot-engine tests: int8 inference must track float
// inference; the bit-serial CiM engine with an ideal (exactly decoding)
// array must equal the digital int8 reference bit-for-bit; temperature
// and noise must corrupt it in controlled ways.
#include <gtest/gtest.h>

#include <iterator>

#include "cim/behavioral.hpp"
#include "nn/cim_engine.hpp"
#include "nn/trainer.hpp"
#include "nn/vgg.hpp"

namespace sfc::nn {
namespace {

sfc::data::SynthCifarConfig tiny_data() {
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 24;
  cfg.test_per_class = 6;
  cfg.noise_sigma = 0.06;
  return cfg;
}

struct TrainedFixture {
  sfc::data::Dataset train = sfc::data::make_synth_cifar_train(tiny_data());
  sfc::data::Dataset test = sfc::data::make_synth_cifar_test(tiny_data());
  Sequential net;
  QuantizedNetwork qnet;

  TrainedFixture() {
    sfc::util::Rng rng(21);
    net.add<Conv2d>(3, 6, 3, true, rng);
    net.add<Relu>();
    net.add<MaxPool2d>(2);
    net.add<Conv2d>(6, 10, 3, true, rng);
    net.add<Relu>();
    net.add<MaxPool2d>(2);
    net.add<MaxPool2d>(2);
    net.add<Flatten>();
    net.add<Dense>(160, 10, rng);
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 8;
    cfg.learning_rate = 0.05;
    Trainer trainer(net, cfg);
    trainer.fit(train);
    qnet = QuantizedNetwork::from_model(net, train, 16);
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

TEST(IdealDotEngine, ExactIntegerDot) {
  IdealDotEngine engine;
  const std::vector<std::uint8_t> a = {1, 2, 3, 255};
  const std::vector<std::int8_t> w = {1, -1, 2, -127};
  EXPECT_EQ(engine.dot(a, w), 1 - 2 + 6 - 255LL * 127);
}

TEST(Quantize, Int8TracksFloatAccuracy) {
  auto& f = fixture();
  const double float_acc = Trainer::evaluate(f.net, f.test);
  IdealDotEngine ideal;
  const double int8_acc = f.qnet.evaluate(f.test, ideal);
  EXPECT_GT(float_acc, 0.4);
  EXPECT_GT(int8_acc, float_acc - 0.15);  // small quantization drop
}

TEST(Quantize, MacCountMatchesArchitecture) {
  auto& f = fixture();
  // conv1: 32*32*6*3*9, conv2: 16*16*10*6*9, fc: 160*10.
  const std::int64_t expected =
      32LL * 32 * 6 * 3 * 9 + 16LL * 16 * 10 * 6 * 9 + 160LL * 10;
  EXPECT_EQ(f.qnet.macs_per_inference(), expected);
}

// from_model's activation scales for a small untrained network, bit for
// bit: one conv without a folded ReLU feeds negative values to the pool,
// a ReLU after that pool folds into nothing, and a valid-padded conv sees
// the negatives. A drift in the float calibration moves a bit here.
TEST(Quantize, ActivationScalesArePinned) {
  sfc::util::Rng rng(5);
  Sequential net;
  net.add<Conv2d>(3, 4, 3, true, rng);
  net.add<Relu>();
  net.add<Dropout>(0.3);
  net.add<Conv2d>(4, 4, 3, true, rng);
  net.add<MaxPool2d>(2);
  net.add<Relu>();
  net.add<Conv2d>(4, 6, 3, false, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<Flatten>();
  net.add<Dense>(6 * 7 * 7, 8, rng);
  net.add<Relu>();
  net.add<Dense>(8, 10, rng);
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 1;
  const QuantizedNetwork qn = QuantizedNetwork::from_model(
      net, sfc::data::make_synth_cifar_train(cfg), 4);
  // conv, conv, pool, conv, pool, flatten, dense, dense; an op without
  // weights keeps the 1e-6 floor over 255 levels.
  const float want[] = {0x1.5e75b2p-8f, 0x1.e5daa8p-8f,  0x1.0d7cf6p-28f,
                        0x1.c39f7ap-8f, 0x1.0d7cf6p-28f, 0x1.0d7cf6p-28f,
                        0x1.26a838p-9f, 0x1.b862aep-10f};
  ASSERT_EQ(qn.ops().size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(qn.ops()[i].act_out_scale, want[i]) << "op " << i;
  }
}

TEST(CimEngine, BitSerialEqualsIdealWithPerfectArray) {
  // With the proposed array at its design temperature every 8-cell count
  // decodes exactly, so the bit-serial path must match the integer dot
  // bit-for-bit - on full network inference, not just a toy vector.
  auto& f = fixture();
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  CimDotEngine::Options opts;
  opts.temperature_c = 27.0;
  CimDotEngine cim(model, opts);
  IdealDotEngine ideal;
  for (int i = 0; i < 4; ++i) {
    const auto& img = f.test.images[static_cast<std::size_t>(i)];
    const Tensor a = f.qnet.forward(img, ideal);
    const Tensor b = f.qnet.forward(img, cim);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_FLOAT_EQ(a[k], b[k]) << "image " << i << " logit " << k;
    }
  }
  EXPECT_EQ(cim.row_errors(), 0);
  EXPECT_GT(cim.row_ops(), 0);
}

TEST(CimEngine, RawDotsMatchAcrossLengths) {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  CimDotEngine::Options opts;
  CimDotEngine cim(model, opts);
  IdealDotEngine ideal;
  sfc::util::Rng rng(31);
  for (const std::size_t len : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    std::vector<std::uint8_t> a(len);
    std::vector<std::int8_t> w(len);
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
      w[i] = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(255)) - 127);
    }
    EXPECT_EQ(cim.dot(a, w), ideal.dot(a, w)) << "len=" << len;
  }
}

TEST(CimEngine, RowOpsAccounting) {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  CimDotEngine cim(model, {});
  const std::vector<std::uint8_t> a(16, 1);
  const std::vector<std::int8_t> w(16, 1);
  cim.dot(a, w);
  // 16 elements = 2 groups; 8 activation planes x 7 weight planes x
  // (pos+neg) = 112 plane passes x 2 groups.
  EXPECT_EQ(cim.row_ops(), 2LL * 2 * 8 * 7);
  cim.reset_counters();
  EXPECT_EQ(cim.row_ops(), 0);
}

TEST(CimEngine, MiscountingArrayCorruptsDots) {
  // Build a deliberately broken model: thresholds shifted so counts
  // decode wrong at high temperature (use the subthreshold baseline).
  static const sfc::cim::BehavioralArrayModel baseline =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::baseline_1r_subthreshold(),
          {0.0, 27.0, 85.0});
  CimDotEngine::Options opts;
  opts.temperature_c = 85.0;
  CimDotEngine cim(baseline, opts);
  IdealDotEngine ideal;
  // Half-active groups: mid MAC counts are where the drifted baseline
  // levels cross the fixed ADC thresholds.
  std::vector<std::uint8_t> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = (i % 2) ? 255 : 0;
  std::vector<std::int8_t> w(64, 127);
  const auto got = cim.dot(a, w);
  const auto want = ideal.dot(a, w);
  EXPECT_NE(got, want);
  EXPECT_GT(cim.row_errors(), 0);
}

TEST(CimEngine, NoiseDrawsAreDeterministicPerSeed) {
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 4;
  mc.sigma_vt_fefet = 0.054;
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  CimDotEngine::Options opts;
  opts.with_variation_noise = true;
  opts.noise_seed = 5;
  std::vector<std::uint8_t> a(64, 200);
  std::vector<std::int8_t> w(64, 100);
  CimDotEngine e1(model, opts), e2(model, opts);
  EXPECT_EQ(e1.dot(a, w), e2.dot(a, w));
}

// dot() is a one-row dot_batch: two dot calls on one engine draw the same
// noise rows, and count the same row ops and decode errors, as one
// two-row batch on a fresh engine.
TEST(CimEngine, DotIsOneRowBatch) {
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 4;
  mc.sigma_vt_fefet = 0.054;
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  CimDotEngine::Options opts;
  opts.with_variation_noise = true;
  opts.noise_seed = 7;
  constexpr std::size_t kLen = 72;
  sfc::util::Rng rng(41);
  std::vector<std::uint8_t> a(kLen);
  std::vector<std::int8_t> w(2 * kLen);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto& v : w) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(255)) -
                                 127);
  }
  CimDotEngine by_dot(model, opts), by_batch(model, opts);
  const std::span<const std::int8_t> rows(w);
  const std::int64_t d0 = by_dot.dot(a, rows.first(kLen));
  const std::int64_t d1 = by_dot.dot(a, rows.subspan(kLen));
  std::int64_t out[2] = {0, 0};
  by_batch.dot_batch(a, w, kLen, 2, out);
  EXPECT_EQ(d0, out[0]);
  EXPECT_EQ(d1, out[1]);
  EXPECT_EQ(by_dot.row_ops(), by_batch.row_ops());
  EXPECT_EQ(by_dot.row_errors(), by_batch.row_errors());
  EXPECT_GT(by_dot.row_errors(), 0);  // the noise moved some counts
}

}  // namespace
}  // namespace sfc::nn
