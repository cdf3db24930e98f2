// Quantization + CiM dot-engine tests: int8 inference must track float
// inference; the bit-serial CiM engine with an ideal (exactly decoding)
// array must equal the digital int8 reference bit-for-bit; temperature
// and noise must corrupt it in controlled ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cim/behavioral.hpp"
#include "exec/stream.hpp"
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

/// The proposed row calibrated with a sigma_VT = 54 mV Monte Carlo.
const sfc::cim::BehavioralArrayModel& noisy_model() {
  static const sfc::cim::BehavioralArrayModel model = [] {
    sfc::cim::MonteCarloConfig mc;
    mc.runs = 4;
    mc.sigma_vt_fefet = 0.054;
    return sfc::cim::BehavioralArrayModel::calibrate(
        sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  }();
  return model;
}

/// The 1FeFET-1R baseline row calibrated over perfbench's temperatures.
const sfc::cim::BehavioralArrayModel& baseline_model() {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::baseline_1r_subthreshold(),
          {0.0, 27.0, 55.0, 85.0});
  return model;
}

/// A model with the given levels at 27 degC and one sigma for all of them;
/// `hot` levels, if given, are its levels at 85 degC.
sfc::cim::BehavioralArrayModel fake_model(std::vector<double> levels,
                                          double sigma,
                                          const std::vector<double>& hot = {}) {
  const std::size_t counts = levels.size();
  std::vector<double> temps = {27.0};
  if (!hot.empty()) {
    temps.push_back(85.0);
    levels.insert(levels.end(), hot.begin(), hot.end());
  }
  return sfc::cim::BehavioralArrayModel(
      static_cast<int>(counts) - 1, std::move(temps), std::move(levels),
      std::vector<double>(counts, sigma));
}

/// Evenly spaced levels: every count decodes exactly.
const std::vector<double> kEvenLevels = {0.10, 0.15, 0.20, 0.25, 0.30,
                                         0.35, 0.40, 0.45, 0.50};

/// Even levels at 27 degC whose 85 degC levels read count 0 as 1 and
/// count 7 as 6: delta = +1, 0 x 6, -1, 0 over counts 0..8, three steps.
sfc::cim::BehavioralArrayModel drifted_model(double sigma = 0.0) {
  return fake_model(kEvenLevels, sigma,
                    {0.16, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.42, 0.50});
}

/// decode(k) - k over counts 0..8 at temperature t.
std::vector<int> decode_errors(const sfc::cim::BehavioralArrayModel& model,
                               double t) {
  std::vector<int> delta;
  for (int k = 0; k <= 8; ++k) delta.push_back(model.mac(k, t) - k);
  return delta;
}

/// Activations and weights with many all-ones planes, so that 8-element
/// groups reach every count 0..8 on both the positive and the negative
/// weight planes; the sign changes only between groups.
void ones_heavy_inputs(std::size_t len, std::uint64_t seed,
                       std::vector<std::uint8_t>* a,
                       std::vector<std::int8_t>* w) {
  sfc::util::Rng rng(seed);
  a->resize(len);
  w->resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    (*a)[i] = rng.bernoulli(0.7)
                  ? 255
                  : static_cast<std::uint8_t>(rng.uniform_index(256));
    const int mag = rng.bernoulli(0.7)
                        ? 127
                        : static_cast<int>(rng.uniform_index(128));
    (*w)[i] = static_cast<std::int8_t>((i / 8) % 3 == 1 ? -mag : mag);
  }
}

/// ones_heavy_inputs with every activation of each odd 64-element word
/// and 3 in 4 of the rest zeroed, and each even word's weights of one sign
/// (negative in words 2, 6, ...): at least half of the 64-element words of
/// a row's plane pairs are all zero, at any length.
void sparse_inputs(std::size_t len, std::uint64_t seed,
                   std::vector<std::uint8_t>* a, std::vector<std::int8_t>* w) {
  ones_heavy_inputs(len, seed, a, w);
  sfc::util::Rng rng(seed + 1);
  for (std::size_t i = 0; i < len; ++i) {
    if ((i / 64) % 2 == 1 || rng.bernoulli(0.75)) (*a)[i] = 0;
    const int mag = std::abs(static_cast<int>((*w)[i]));
    (*w)[i] = static_cast<std::int8_t>((i / 128) % 2 == 1 ? -mag : mag);
  }
}

/// Row lengths around the 8-element group and the 64-element word.
const std::vector<std::size_t> kRowLengths = {1,  7,  8,   9,  63,
                                              64, 65, 200, 512};

struct ReplayedRow {
  std::int64_t result = 0;
  std::int64_t errors = 0;
  std::int64_t words = 0;       ///< 64-element words over all plane pairs
  std::int64_t zero_words = 0;  ///< words whose 8 groups all count 0
};

/// One row as BehavioralArrayModel::mac computes it, in the engine's loop
/// order: activation plane p, weight plane q, the positive then the
/// negative magnitudes, then 64-element words and their 8-element groups.
/// The planes hold the low opts.activation_bits bits of each activation and
/// the low opts.weight_bits - 1 bits of each weight magnitude. With noise,
/// row 0 of an engine draws from stream (noise_seed, 0); without, each
/// group reads mac(count, T).
ReplayedRow replay_row(const sfc::cim::BehavioralArrayModel& model,
                       const CimDotEngine::Options& opts,
                       const std::vector<std::uint8_t>& a,
                       const std::vector<std::int8_t>& w) {
  sfc::util::Rng rng = sfc::exec::stream_rng(opts.noise_seed, 0);
  sfc::util::Rng* noise = opts.with_variation_noise ? &rng : nullptr;
  ReplayedRow row;
  const std::size_t groups = (a.size() + 63) / 64 * 8;
  for (int p = 0; p < opts.activation_bits; ++p) {
    for (int q = 0; q < opts.weight_bits - 1; ++q) {
      for (const int sign : {1, -1}) {
        std::int64_t sum = 0;
        int word_count = 0;  // the true counts of the word's groups so far
        for (std::size_t g = 0; g < groups; ++g) {
          int count = 0;
          for (std::size_t e = g * 8; e < std::min(a.size(), g * 8 + 8); ++e) {
            const int wv = w[e];
            count += ((a[e] >> p) & 1) && wv * sign > 0 &&
                     (((wv * sign) >> q) & 1);
          }
          const int digital = model.mac(count, opts.temperature_c, noise);
          row.errors += digital != count;
          sum += digital;
          word_count += count;
          if (g % 8 == 7) {
            ++row.words;
            row.zero_words += word_count == 0;
            word_count = 0;
          }
        }
        row.result += sign * (sum << (p + q));
      }
    }
  }
  return row;
}

/// dot() on a fresh engine equals replay_row, result and row errors.
ReplayedRow expect_replays(const sfc::cim::BehavioralArrayModel& model,
                           const CimDotEngine::Options& opts,
                           const std::vector<std::uint8_t>& a,
                           const std::vector<std::int8_t>& w) {
  CimDotEngine engine(model, opts);
  const std::int64_t got = engine.dot(a, w);
  const ReplayedRow want = replay_row(model, opts, a, w);
  EXPECT_EQ(got, want.result) << "len=" << a.size();
  EXPECT_EQ(engine.row_errors(), want.errors) << "len=" << a.size();
  return want;
}

CimDotEngine::Options noisy_options() {
  CimDotEngine::Options opts;
  opts.with_variation_noise = true;
  opts.noise_seed = 11;
  return opts;
}

TEST(IdealDotEngine, ExactIntegerDot) {
  IdealDotEngine engine;
  const std::vector<std::uint8_t> a = {1, 2, 3, 255};
  const std::vector<std::int8_t> w = {1, -1, 2, -127};
  EXPECT_EQ(engine.dot(a, w), 1 - 2 + 6 - 255LL * 127);
}

TEST(IdealDotEngine, RejectsLengthMismatch) {
  IdealDotEngine engine;
  const std::vector<std::uint8_t> a(16, 255);
  const std::vector<std::int8_t> w(15, 127);
  EXPECT_THROW(engine.dot(a, w), std::invalid_argument);
}

// IdealDotEngine keeps DotEngine's serial dot_batch.
TEST(DotEngine, DefaultBatchRejectsShortWeightSpan) {
  IdealDotEngine engine;
  const std::vector<std::uint8_t> a(16, 255);
  const std::vector<std::int8_t> w(3 * 16, 127);
  std::int64_t out[3] = {0, 0, 0};
  const std::span<const std::int8_t> rows(w);
  EXPECT_THROW(engine.dot_batch(a, rows.first(w.size() - 1), 16, 3, out),
               std::invalid_argument);
  EXPECT_THROW(engine.dot_batch(a, rows.first(15), 0, 1, out),
               std::invalid_argument);
  engine.dot_batch(a, rows, 16, 3, out);
  EXPECT_EQ(out[2], 16LL * 255 * 127);
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

// forward reads the image by the network's geometry, so an image of
// another size is refused instead of read past its end.
TEST(Quantize, ForwardRejectsImagesOfAnotherSize) {
  sfc::util::Rng rng(5);
  Sequential net;
  net.add<Conv2d>(3, 4, 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<Flatten>();
  net.add<Dense>(4 * 16 * 16, 10, rng);
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 1;
  const sfc::data::Dataset data = sfc::data::make_synth_cifar_train(cfg);
  const QuantizedNetwork qn = QuantizedNetwork::from_model(net, data, 2);
  IdealDotEngine ideal;
  EXPECT_EQ(qn.forward(data.images[0], ideal).size(), 10u);
  EXPECT_THROW(qn.forward(sfc::data::Image{}, ideal), std::invalid_argument);
  sfc::data::Image gray;  // one channel, 32 x 32
  gray.pixels.assign(32 * 32, 0.5f);
  EXPECT_THROW(qn.forward(gray, ideal), std::invalid_argument);
}

// A pooling layer's window carries into its op: a 4x4 pool turns the
// 2x32x32 conv output into the 128 inputs of the dense layer, where a 2x2
// pool would hand it 512.
TEST(Quantize, PoolOpKeepsTheLayersWindow) {
  sfc::util::Rng rng(5);
  Sequential net;
  net.add<Conv2d>(3, 2, 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(4);
  net.add<Flatten>();
  net.add<Dense>(2 * 8 * 8, 10, rng);
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 1;
  const sfc::data::Dataset data = sfc::data::make_synth_cifar_train(cfg);
  const QuantizedNetwork qn = QuantizedNetwork::from_model(net, data, 2);
  ASSERT_EQ(qn.ops().size(), 4u);  // conv, pool, flatten, dense
  EXPECT_EQ(qn.ops()[1].kind, QuantOp::Kind::kPool);
  EXPECT_EQ(qn.ops()[1].pool_window, 4);
  IdealDotEngine ideal;
  EXPECT_EQ(qn.forward(data.images[0], ideal).size(), 10u);
}

// A model whose layer shapes do not chain is refused, with or without
// calibration images: the 3x32x32 image leaves the conv as 2,048 features
// where the dense layer takes 100, and five 2x2 pools leave a 1x1 image,
// which neither a valid 3x3 conv nor another pool can take.
TEST(Quantize, FromModelRejectsShapesThatDoNotChain) {
  sfc::util::Rng rng(5);
  Sequential wide;
  wide.add<Conv2d>(3, 2, 3, true, rng);
  wide.add<Flatten>();
  wide.add<Dense>(100, 10, rng);
  Sequential small_conv;
  for (int i = 0; i < 5; ++i) small_conv.add<MaxPool2d>(2);
  small_conv.add<Conv2d>(3, 2, 3, false, rng);
  small_conv.add<Flatten>();
  small_conv.add<Dense>(2, 10, rng);
  Sequential small_pool;
  for (int i = 0; i < 6; ++i) small_pool.add<MaxPool2d>(2);
  small_pool.add<Flatten>();
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 1;
  const sfc::data::Dataset data = sfc::data::make_synth_cifar_train(cfg);
  for (const Sequential* net : {&wide, &small_conv, &small_pool}) {
    EXPECT_THROW(QuantizedNetwork::from_model(*net, data, 2),
                 std::invalid_argument);
    EXPECT_THROW(QuantizedNetwork::from_model(*net, data, 0),
                 std::invalid_argument);
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
      EXPECT_EQ(a[k], b[k]) << "image " << i << " logit " << k;
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
  // Every tail shape of the 16- and 8-element steps, and a long row.
  std::vector<std::size_t> lengths(49);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(4100);
  for (const std::size_t len : lengths) {
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
  const auto& model = noisy_model();
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
  const auto& model = noisy_model();
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

// The noisy row op returns what BehavioralArrayModel::mac returns, draw
// for draw, whether or not the draw can move the decode, at any row length
// and wordlength: every word takes its 8 draws as 4 pairs. Ones-heavy rows
// reach every count. In sparse rows at least half of the words are all
// zero, and count 0's floor lies below every u1, so those words' draws
// advance the stream and flip nothing.
TEST(CimEngine, NoisyRowReplaysModelMac) {
  std::int64_t errors = 0;
  for (const int bits : {2, 4, 8}) {
    CimDotEngine::Options opts = noisy_options();
    opts.activation_bits = bits;
    opts.weight_bits = bits;
    for (const std::size_t len : kRowLengths) {
      SCOPED_TRACE(testing::Message() << bits << " bits, len " << len);
      std::vector<std::uint8_t> a;
      std::vector<std::int8_t> w;
      ones_heavy_inputs(len, 60 + len, &a, &w);
      errors += expect_replays(noisy_model(), opts, a, w).errors;
      sparse_inputs(len, 70 + len, &a, &w);
      const ReplayedRow sparse = expect_replays(noisy_model(), opts, a, w);
      EXPECT_GE(2 * sparse.zero_words, sparse.words);
      errors += sparse.errors;
    }
  }
  EXPECT_GT(errors, 0);  // the noise moved some counts
}

// All-zero words on both sides of the count-0 floor. Levels 0 and 1
// coincide, so count 0 sits on its threshold (a zero gap, as in
// ZeroGapLevelsReplayModelMac): its floor is 1, every count-0 draw
// evaluates the deviate, and about half of them read 1. The drifted model
// at 85 degC has sigma 0, so its floors are 0 and every count-0 group reads
// decoded(0) = 1 without a deviate.
TEST(CimEngine, AllZeroWordsReplayModelMac) {
  const auto zero_gap = fake_model(
      {0.10, 0.10, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}, 0.004);
  ASSERT_EQ(zero_gap.thresholds()[0], 0.10);
  const auto drifted = drifted_model();
  struct Fabric {
    const sfc::cim::BehavioralArrayModel* model;
    double temperature_c;
  };
  for (const Fabric& fabric :
       {Fabric{&zero_gap, 27.0}, Fabric{&drifted, 85.0}}) {
    SCOPED_TRACE(fabric.temperature_c);
    CimDotEngine::Options opts = noisy_options();
    opts.temperature_c = fabric.temperature_c;
    std::int64_t zero_words = 0;
    std::int64_t errors = 0;
    for (const std::size_t len : kRowLengths) {
      SCOPED_TRACE(len);
      std::vector<std::uint8_t> a;
      std::vector<std::int8_t> w;
      sparse_inputs(len, 80 + len, &a, &w);
      const ReplayedRow row = expect_replays(*fabric.model, opts, a, w);
      EXPECT_GE(2 * row.zero_words, row.words);
      zero_words += row.zero_words;
      errors += row.errors;
    }
    // Count 0 misdecodes, so the zero words alone give errors.
    EXPECT_GT(errors, 0);
    EXPECT_GT(zero_words, 0);
  }
}

// Noise on a miscounting fabric: the drifted model at 85 degC with
// sigma = 0.01 V, a fifth of the level spacing. A noisy row is its
// noiseless value, miscount correction included, plus the decodes its
// draws flip; draws flip misdecoded groups (count 0 reads 1 and count 7
// reads 6) as well as exact ones. Ones-heavy rows reach every count, and in
// sparse rows at least half of the words are all zero, so their count-0
// groups misdecode and sometimes draw below count 0's floor.
TEST(CimEngine, NoisyMiscountingRowReplaysModelMac) {
  const auto model = drifted_model(0.01);
  ASSERT_EQ(decode_errors(model, 85.0),
            (std::vector<int>{1, 0, 0, 0, 0, 0, 0, -1, 0}));
  using Inputs = void (*)(std::size_t, std::uint64_t,
                          std::vector<std::uint8_t>*,
                          std::vector<std::int8_t>*);
  std::int64_t moved = 0;  // rows whose noise moved the value or errors
  for (const int bits : {2, 4, 8}) {
    CimDotEngine::Options opts = noisy_options();
    opts.temperature_c = 85.0;
    opts.activation_bits = bits;
    opts.weight_bits = bits;
    CimDotEngine::Options clean = opts;
    clean.with_variation_noise = false;
    for (const std::size_t len : kRowLengths) {
      for (const Inputs inputs :
           {Inputs{ones_heavy_inputs}, Inputs{sparse_inputs}}) {
        SCOPED_TRACE(testing::Message() << bits << " bits, len " << len);
        std::vector<std::uint8_t> a;
        std::vector<std::int8_t> w;
        inputs(len, 100 + len, &a, &w);
        const ReplayedRow noisy = expect_replays(model, opts, a, w);
        const ReplayedRow noiseless = replay_row(model, clean, a, w);
        EXPECT_GT(noiseless.errors, 0);
        moved += noisy.result != noiseless.result ||
                 noisy.errors != noiseless.errors;
      }
    }
  }
  EXPECT_GT(moved, 0);
}

// sigma = 0 (no variation calibrated): every draw keeps its level, so a
// noisy row equals the noiseless one, and both replay mac().
TEST(CimEngine, ZeroSigmaNoisyRowIsNoiseless) {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  std::vector<std::uint8_t> a;
  std::vector<std::int8_t> w;
  ones_heavy_inputs(200, 12, &a, &w);
  CimDotEngine clean(model, {});
  const ReplayedRow noisy = expect_replays(model, noisy_options(), a, w);
  EXPECT_EQ(noisy.result, clean.dot(a, w));
  EXPECT_EQ(noisy.errors, 0);
}

// Design levels 3 and 4 coincide, so their threshold sits on both levels
// (a zero gap): counts 3 and 4 always evaluate the deviate, and about half
// of their draws cross the threshold.
TEST(CimEngine, ZeroGapLevelsReplayModelMac) {
  const auto model = fake_model(
      {0.10, 0.15, 0.20, 0.25, 0.25, 0.35, 0.40, 0.45, 0.50}, 0.004);
  ASSERT_EQ(model.thresholds()[3], 0.25);
  std::vector<std::uint8_t> a;
  std::vector<std::int8_t> w;
  ones_heavy_inputs(200, 22, &a, &w);
  const ReplayedRow row = expect_replays(model, noisy_options(), a, w);
  EXPECT_GT(row.errors, 0);
}

// A noiseless group reads mac(count, T) = count + delta(count). The row's
// integer dot plus its correction, summed over the steps of delta, must
// equal that group by group, and so must the row errors. The baseline
// gives three step patterns; the drifted model misdecodes count 0, so the
// zero-count groups that pad a row's last 64-bit word count as errors.
TEST(CimEngine, NoiselessRowReplaysModelDecode) {
  const auto& baseline = baseline_model();
  const std::vector<int> cold = decode_errors(baseline, 0.0);
  const std::vector<int> warm = decode_errors(baseline, 55.0);
  const std::vector<int> hot = decode_errors(baseline, 85.0);
  EXPECT_NE(cold, warm);
  EXPECT_NE(cold, hot);
  EXPECT_NE(warm, hot);
  EXPECT_EQ(decode_errors(baseline, 27.0), std::vector<int>(9, 0));
  const auto drifted = drifted_model();
  ASSERT_EQ(decode_errors(drifted, 85.0),
            (std::vector<int>{1, 0, 0, 0, 0, 0, 0, -1, 0}));

  struct Fabric {
    const sfc::cim::BehavioralArrayModel* model;
    double temperature_c;
  };
  for (const Fabric& fabric : {Fabric{&baseline, 0.0}, Fabric{&baseline, 55.0},
                               Fabric{&baseline, 85.0},
                               Fabric{&drifted, 85.0}}) {
    SCOPED_TRACE(fabric.temperature_c);
    CimDotEngine::Options opts;
    opts.temperature_c = fabric.temperature_c;
    std::int64_t errors = 0;
    for (const std::size_t len : kRowLengths) {
      std::vector<std::uint8_t> a;
      std::vector<std::int8_t> w;
      ones_heavy_inputs(len, 40 + len, &a, &w);
      errors += expect_replays(*fabric.model, opts, a, w).errors;
    }
    EXPECT_GT(errors, 0);  // the fabric misdecoded some groups
  }
}

/// A model whose counts decode exactly at 27 degC and as j + delta[j] at
/// 85 degC: its 85 degC level for count j is the design level of
/// j + delta[j].
sfc::cim::BehavioralArrayModel decoding_model(const std::vector<int>& delta) {
  std::vector<double> hot;
  for (int j = 0; j <= 8; ++j) {
    hot.push_back(kEvenLevels[static_cast<std::size_t>(j + delta[j])]);
  }
  return fake_model(kEvenLevels, 0.0, hot);
}

/// ones_heavy_inputs with 3 in 4 weights zeroed: groups with every
/// activation nonzero but few nonzero activation-weight pairs.
void sparse_weights(std::size_t len, std::uint64_t seed,
                    std::vector<std::uint8_t>* a,
                    std::vector<std::int8_t>* w) {
  ones_heavy_inputs(len, seed, a, w);
  sfc::util::Rng rng(seed + 1);
  for (auto& v : *w) {
    if (rng.bernoulli(0.75)) v = 0;
  }
}

// Every shape of decode step, replayed group by group through mac(): one
// step down at each k = 1..8, a +2 step followed by a -2 one, and count 0
// misdecoding. Ones-heavy rows reach every count; sparse activations leave
// groups with fewer than k nonzero activations, and sparse weights groups
// with fewer than k nonzero activation-weight pairs, which reach no step.
// A row of 4,100 elements has 513 groups, so a plane pair's count of
// groups reaching a step can pass 255.
TEST(CimEngine, EveryDecodeStepReplaysModelDecode) {
  std::vector<std::vector<int>> deltas;
  for (int k = 1; k <= 8; ++k) {
    std::vector<int> delta(9, 0);
    for (int j = k; j <= 8; ++j) delta[static_cast<std::size_t>(j)] = -1;
    deltas.push_back(delta);
  }
  deltas.push_back({0, 0, 2, 2, 2, 0, 0, 0, 0});
  deltas.push_back({1, 1, 1, 0, 0, 0, 0, 0, 0});
  using Inputs = void (*)(std::size_t, std::uint64_t,
                          std::vector<std::uint8_t>*,
                          std::vector<std::int8_t>*);
  for (const std::vector<int>& delta : deltas) {
    const auto model = decoding_model(delta);
    ASSERT_EQ(decode_errors(model, 85.0), delta);
    CimDotEngine::Options opts;
    opts.temperature_c = 85.0;
    std::int64_t errors = 0;
    for (const int bits : {2, 4, 8}) {
      opts.activation_bits = bits;
      opts.weight_bits = bits;
      for (const std::size_t len : kRowLengths) {
        for (const Inputs inputs :
             {Inputs{ones_heavy_inputs}, Inputs{sparse_inputs},
              Inputs{sparse_weights}}) {
          SCOPED_TRACE(testing::Message() << bits << " bits, len " << len);
          std::vector<std::uint8_t> a;
          std::vector<std::int8_t> w;
          inputs(len, 90 + len, &a, &w);
          errors += expect_replays(model, opts, a, w).errors;
        }
      }
    }
    std::vector<std::uint8_t> a;
    std::vector<std::int8_t> w;
    ones_heavy_inputs(4100, 91, &a, &w);
    errors += expect_replays(model, opts, a, w).errors;
    EXPECT_GT(errors, 0);
  }
}

// A row rewritten in place between two dot() calls is packed again: the
// second call equals a fresh engine's, although the rewritten element
// changes only group 0's counts.
TEST(CimEngine, RowRewrittenInPlaceIsPackedAgain) {
  const auto model = decoding_model({0, 0, 0, 0, 0, 0, 0, 0, -1});
  CimDotEngine::Options opts;
  opts.temperature_c = 85.0;
  const std::vector<std::uint8_t> a(200, 255);
  std::vector<std::int8_t> w(200, 127);
  CimDotEngine engine(model, opts);
  IdealDotEngine ideal;
  // All 25 groups count 8, which reads 7, on every positive plane pair.
  EXPECT_EQ(engine.dot(a, w) - ideal.dot(a, w), -25LL * 255 * 127);
  w[1] = 0;  // group 0 now counts 7, which decodes exactly
  const std::int64_t got = engine.dot(a, w);
  CimDotEngine fresh(model, opts);
  EXPECT_EQ(got, fresh.dot(a, w));
  EXPECT_EQ(got - ideal.dot(a, w), -24LL * 255 * 127);
}

// The planes hold only the wordlength's bits: a weight of -128 has no
// magnitude bit below 2^7, and a b-bit engine sees the low b bits of an
// activation and the low b - 1 of a weight magnitude. The exact fabric's
// row is the masked integer dot; a miscounting fabric's row replays mac().
TEST(CimEngine, RowsTruncateValuesWiderThanTheWordlength) {
  std::vector<std::uint8_t> a;
  std::vector<std::int8_t> w;
  ones_heavy_inputs(200, 52, &a, &w);
  for (std::size_t i = 0; i < w.size(); i += 3) w[i] = -128;
  ASSERT_GT(std::count(a.begin(), a.end(), 255), 0);
  // Rows of 16,875 16-element steps of the largest products of one sign,
  // every 97th weight -128: at 8 bits each 32-bit lane of the exact
  // fabric's kernel sums about 2.16e9 in magnitude over the row, past
  // 2^31, unless the kernel flushes its lanes.
  const std::vector<std::uint8_t> long_a(270000, 255);
  std::vector<std::int8_t> long_pos(long_a.size(), 127);
  std::vector<std::int8_t> long_neg(long_a.size(), -127);
  for (std::size_t i = 0; i < long_a.size(); i += 97) {
    long_pos[i] = -128;
    long_neg[i] = -128;
  }

  const auto exact = fake_model(kEvenLevels, 0.0);
  for (int bits = 2; bits <= 8; ++bits) {
    SCOPED_TRACE(bits);
    CimDotEngine::Options opts;
    opts.activation_bits = bits;
    opts.weight_bits = bits;
    const auto masked_dot = [bits](std::span<const std::uint8_t> x,
                                   std::span<const std::int8_t> y) {
      const int a_mask = (1 << bits) - 1;
      const int w_mask = (1 << (bits - 1)) - 1;
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const int mag = std::abs(static_cast<int>(y[i])) & w_mask;
        sum += static_cast<std::int64_t>(x[i] & a_mask) *
               (y[i] < 0 ? -mag : mag);
      }
      return sum;
    };
    const std::int64_t masked = masked_dot(a, w);
    CimDotEngine engine(exact, opts);
    EXPECT_EQ(engine.dot(a, w), masked);
    EXPECT_EQ(expect_replays(exact, opts, a, w).result, masked);
    EXPECT_EQ(engine.dot(long_a, long_pos), masked_dot(long_a, long_pos));
    EXPECT_EQ(engine.dot(long_a, long_neg), masked_dot(long_a, long_neg));

    opts.temperature_c = 85.0;
    EXPECT_GT(expect_replays(baseline_model(), opts, a, w).errors, 0);
  }
}

TEST(CimEngine, RejectsRowsOtherThanEightCells) {
  const auto four_cells = fake_model({0.1, 0.2, 0.3, 0.4, 0.5}, 0.0);
  EXPECT_THROW(CimDotEngine(four_cells, {}), std::invalid_argument);
}

TEST(CimEngine, RejectsWordlengthsOutsideTwoToEight) {
  const auto model = fake_model(kEvenLevels, 0.0);
  for (const int bits : {1, 9}) {
    CimDotEngine::Options opts;
    opts.activation_bits = bits;
    EXPECT_THROW(CimDotEngine(model, opts), std::invalid_argument) << bits;
    opts = {};
    opts.weight_bits = bits;
    EXPECT_THROW(CimDotEngine(model, opts), std::invalid_argument) << bits;
  }
  CimDotEngine::Options opts;
  opts.activation_bits = 2;
  opts.weight_bits = 2;
  EXPECT_NO_THROW(CimDotEngine(model, opts));
}

TEST(CimEngine, DotRejectsLengthMismatch) {
  const auto model = fake_model(kEvenLevels, 0.0);
  CimDotEngine engine(model, {});
  const std::vector<std::uint8_t> a(16, 255);
  const std::vector<std::int8_t> w(15, 127);
  EXPECT_THROW(engine.dot(a, w), std::invalid_argument);
  EXPECT_EQ(engine.row_ops(), 0);
}

TEST(CimEngine, BatchRejectsShortWeightSpan) {
  const auto model = fake_model(kEvenLevels, 0.0);
  CimDotEngine engine(model, {});
  const std::vector<std::uint8_t> a(16, 255);
  const std::vector<std::int8_t> w(3 * 16, 127);
  std::int64_t out[3] = {0, 0, 0};
  const std::span<const std::int8_t> rows(w);
  EXPECT_THROW(engine.dot_batch(a, rows.first(w.size() - 1), 16, 3, out),
               std::invalid_argument);
  EXPECT_EQ(engine.row_ops(), 0);
  engine.dot_batch(a, rows, 16, 3, out);
  EXPECT_EQ(out[2], 16LL * 255 * 127);
}

}  // namespace
}  // namespace sfc::nn
