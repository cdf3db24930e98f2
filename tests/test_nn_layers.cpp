// NN layer tests: forward-shape correctness, finite-difference gradient
// checks for every trainable layer, pooling/dropout semantics, and the
// softmax/cross-entropy head.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace sfc::nn {
namespace {

Tensor random_tensor(std::vector<int> shape, sfc::util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// Finite-difference check of dLoss/dInput and dLoss/dParams for a layer,
/// where Loss = sum(w_i * y_i) with fixed random weights w.
void check_gradients(Layer& layer, const Tensor& input, double tol) {
  sfc::util::Rng rng(7);
  LayerContext ctx;
  Tensor y = layer.forward(input, ctx);
  Tensor loss_w = random_tensor(y.shape(), rng);

  auto loss_of = [&](const Tensor& out) {
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) l += loss_w[i] * out[i];
    return l;
  };

  // Analytic gradients.
  layer.zero_gradients();
  Tensor grad_out = loss_w;
  const Tensor grad_in = layer.backward(grad_out);

  // FD on the input.
  const double h = 1e-3;
  Tensor x = input;
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 17)) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(h);
    const double lp = loss_of(layer.forward(x, ctx));
    x[i] = orig - static_cast<float>(h);
    const double lm = loss_of(layer.forward(x, ctx));
    x[i] = orig;
    const double fd = (lp - lm) / (2.0 * h);
    EXPECT_NEAR(grad_in[i], fd, tol + std::fabs(fd) * 0.02) << "input idx " << i;
  }

  // Restore the cached forward state, then FD on parameters.
  layer.zero_gradients();
  layer.forward(input, ctx);
  layer.backward(grad_out);
  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    const Tensor& g = *grads[pi];
    for (std::size_t i = 0; i < p.size(); i += std::max<std::size_t>(1, p.size() / 13)) {
      const float orig = p[i];
      p[i] = orig + static_cast<float>(h);
      const double lp = loss_of(layer.forward(input, ctx));
      p[i] = orig - static_cast<float>(h);
      const double lm = loss_of(layer.forward(input, ctx));
      p[i] = orig;
      const double fd = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(g[i], fd, tol + std::fabs(fd) * 0.02)
          << "param " << pi << " idx " << i;
    }
  }
}

TEST(Conv2d, OutputShapeSamePadding) {
  sfc::util::Rng rng(1);
  Conv2d conv(3, 8, 3, true, rng);
  EXPECT_EQ(conv.output_shape({3, 32, 32}), (std::vector<int>{8, 32, 32}));
  LayerContext ctx;
  const Tensor y = conv.forward(random_tensor({3, 8, 8}, rng), ctx);
  EXPECT_EQ(y.shape(), (std::vector<int>{8, 8, 8}));
}

TEST(Conv2d, ValidPaddingShrinks) {
  sfc::util::Rng rng(1);
  Conv2d conv(1, 1, 3, false, rng);
  EXPECT_EQ(conv.output_shape({1, 8, 8}), (std::vector<int>{1, 6, 6}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  sfc::util::Rng rng(1);
  Conv2d conv(1, 1, 3, true, rng);
  conv.weight().fill(0.0f);
  conv.weight()[4] = 1.0f;  // center tap
  conv.bias().fill(0.0f);
  LayerContext ctx;
  const Tensor x = random_tensor({1, 5, 5}, rng);
  const Tensor y = conv.forward(x, ctx);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-6);
  }
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  sfc::util::Rng rng(2);
  Conv2d conv(2, 3, 3, true, rng);
  check_gradients(conv, random_tensor({2, 6, 6}, rng), 2e-2);
}

TEST(Dense, ForwardMatchesManualDot) {
  sfc::util::Rng rng(3);
  Dense dense(4, 2, rng);
  Tensor x({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  LayerContext ctx;
  const Tensor y = dense.forward(x, ctx);
  for (int o = 0; o < 2; ++o) {
    float expect = dense.bias()[static_cast<std::size_t>(o)];
    for (int i = 0; i < 4; ++i) {
      expect += dense.weight()[static_cast<std::size_t>(o * 4 + i)] * x[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(o)], expect, 1e-6);
  }
}

TEST(Dense, GradientsMatchFiniteDifferences) {
  sfc::util::Rng rng(4);
  Dense dense(10, 5, rng);
  check_gradients(dense, random_tensor({10}, rng), 1e-2);
}

// A layer fed the wrong shape throws in every build instead of reading
// past its input: 16 floats into a 4096-input Dense, 4 channels into a
// 3-channel Conv2d, a flat vector into a pool, a window below 2.
TEST(Layers, WrongInputShapeThrows) {
  sfc::util::Rng rng(6);
  LayerContext ctx;
  Dense dense(4096, 10, rng);
  EXPECT_THROW(dense.forward(random_tensor({16}, rng), ctx),
               std::invalid_argument);
  EXPECT_THROW(dense.output_shape({16}), std::invalid_argument);
  Conv2d conv(3, 8, 3, true, rng);
  EXPECT_THROW(conv.forward(random_tensor({4, 8, 8}, rng), ctx),
               std::invalid_argument);
  EXPECT_THROW(conv.output_shape({4, 32, 32}), std::invalid_argument);
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(random_tensor({16}, rng), ctx),
               std::invalid_argument);
  EXPECT_THROW(MaxPool2d(1), std::invalid_argument);
  try {
    dense.forward(random_tensor({16}, rng), ctx);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Dense(4096->10): input shape [16], expected 4096 features");
  }
  // A spatial input smaller than the kernel or the window has no output.
  Conv2d valid(1, 1, 3, false, rng);
  EXPECT_THROW(valid.output_shape({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(valid.forward(random_tensor({1, 1, 1}, rng), ctx),
               std::invalid_argument);
  EXPECT_THROW(valid.output_shape({1, 3, 2}), std::invalid_argument);
  EXPECT_EQ(valid.output_shape({1, 3, 3}), (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(conv.output_shape({3, 1, 1}), (std::vector<int>{8, 1, 1}));
  EXPECT_THROW(pool.output_shape({2, 1, 1}), std::invalid_argument);
  EXPECT_THROW(pool.forward(random_tensor({2, 1, 1}, rng), ctx),
               std::invalid_argument);
  EXPECT_THROW(pool.output_shape({2, 2, 1}), std::invalid_argument);
  EXPECT_EQ(pool.output_shape({2, 2, 3}), (std::vector<int>{2, 1, 1}));
  try {
    valid.output_shape({1, 1, 1});
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Conv2d(1->1, k=3): input shape [1, 1, 1], expected "
                 "[1, H, W] with H, W >= 3");
  }
  try {
    pool.output_shape({2, 1, 1});
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "MaxPool2d(2x2): input shape [2, 1, 1], expected "
                 "[C, H, W] with H, W >= 2");
  }
}

TEST(MaxPool, ForwardAndRouting) {
  MaxPool2d pool(2);
  Tensor x({1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  LayerContext ctx;
  const Tensor y = pool.forward(x, ctx);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  // Gradient routes only to the argmax.
  Tensor g({1, 1, 1}, {2.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(Relu, ForwardBackward) {
  Relu relu;
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  LayerContext ctx;
  const Tensor y = relu.forward(x, ctx);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g({4}, {1.0f, 1.0f, 1.0f, 1.0f});
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop(0.5);
  LayerContext ctx;  // training = false
  sfc::util::Rng rng(5);
  const Tensor x = random_tensor({100}, rng);
  const Tensor y = drop.forward(x, ctx);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingPreservesExpectation) {
  Dropout drop(0.4);
  sfc::util::Rng rng(6);
  LayerContext ctx;
  ctx.training = true;
  ctx.rng = &rng;
  Tensor x({2000});
  x.fill(1.0f);
  double sum = 0.0;
  int zeros = 0;
  const Tensor y = drop.forward(x, ctx);
  for (std::size_t i = 0; i < y.size(); ++i) {
    sum += y[i];
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(sum / 2000.0, 1.0, 0.08);  // inverted dropout
  EXPECT_NEAR(zeros / 2000.0, 0.4, 0.05);
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  sfc::util::Rng rng(8);
  const Tensor x = random_tensor({2, 3, 4}, rng);
  LayerContext ctx;
  const Tensor y = flat.forward(x, ctx);
  EXPECT_EQ(y.shape(), (std::vector<int>{24}));
  const Tensor back = flat.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(back[i], x[i]);
}

TEST(Softmax, SumsToOne) {
  Tensor logits({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor probs = softmax(logits);
  float sum = 0.0f;
  for (std::size_t i = 0; i < probs.size(); ++i) sum += probs[i];
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_EQ(argmax(probs), 3);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({3}, {1000.0f, 1001.0f, 999.0f});
  const Tensor probs = softmax(logits);
  EXPECT_TRUE(std::isfinite(probs[0]));
  EXPECT_EQ(argmax(probs), 1);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  Tensor logits({5}, {0.2f, -0.5f, 1.0f, 0.0f, 0.3f});
  Tensor grad;
  softmax_cross_entropy(logits, 2, &grad);
  const double h = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(h);
    lm[i] -= static_cast<float>(h);
    const double fd = (softmax_cross_entropy(lp, 2, nullptr) -
                       softmax_cross_entropy(lm, 2, nullptr)) /
                      (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-3);
  }
}

TEST(Sequential, ShapePropagationAndParamCount) {
  sfc::util::Rng rng(9);
  Sequential net;
  net.add<Conv2d>(1, 2, 3, true, rng);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<Flatten>();
  net.add<Dense>(2 * 4 * 4, 10, rng);
  const std::vector<std::vector<int>> expected = {
      {2, 8, 8}, {2, 8, 8}, {2, 4, 4}, {32}, {10}};
  std::vector<int> shape = {1, 8, 8};
  ASSERT_EQ(net.num_layers(), expected.size());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    shape = net.layer(i).output_shape(shape);
    EXPECT_EQ(shape, expected[i]) << net.layer(i).name();
  }
  // params: conv 2*1*9+2=20, dense 32*10+10=330.
  EXPECT_EQ(net.num_parameters(), 350u);
}

TEST(Sequential, SaveLoadWeightsRoundTrip) {
  sfc::util::Rng rng(10);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  Sequential b;
  b.add<Dense>(4, 3, rng);  // different init
  const std::string path = "/tmp/sfc_weights_test.bin";
  a.save_weights(path);
  b.load_weights(path);
  LayerContext ctx;
  const Tensor x({4}, {1.0f, -1.0f, 0.5f, 2.0f});
  const Tensor ya = a.forward(x, ctx);
  const Tensor yb = b.forward(x, ctx);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

/// Every parameter of `net`, flattened in parameter order.
std::vector<float> all_weights(Sequential& net) {
  std::vector<float> w;
  for (Tensor* p : net.parameters()) {
    w.insert(w.end(), p->data(), p->data() + p->size());
  }
  return w;
}

// A weight file that is cut short, has a byte past its last tensor, or
// holds another network's shapes throws, and the load leaves every weight
// as it was: a caller that falls back to training starts from its own
// initialization, not from half a file.
TEST(Sequential, BadWeightFilesThrowAndLeaveEveryWeightUnchanged) {
  sfc::util::Rng rng(11);
  Sequential saved;
  saved.add<Dense>(4, 3, rng);
  saved.add<Dense>(3, 2, rng);
  Sequential other_shape;
  other_shape.add<Dense>(4, 3, rng);
  other_shape.add<Dense>(3, 3, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sfc_weights_bad_test.bin")
          .string();
  saved.save_weights(path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto write = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  };

  Sequential target;
  target.add<Dense>(4, 3, rng);  // different init from `saved`
  target.add<Dense>(3, 2, rng);
  const std::vector<float> before = all_weights(target);
  for (const std::string& bytes :
       {good.substr(0, good.size() - 4), good + '\0', std::string("sfc")}) {
    write(bytes);
    EXPECT_THROW(target.load_weights(path), std::runtime_error)
        << bytes.size() << " bytes";
    EXPECT_EQ(all_weights(target), before) << bytes.size() << " bytes";
  }
  write(good);
  const std::vector<float> other_before = all_weights(other_shape);
  EXPECT_THROW(other_shape.load_weights(path), std::runtime_error);
  EXPECT_EQ(all_weights(other_shape), other_before);

  target.load_weights(path);
  EXPECT_EQ(all_weights(target), all_weights(saved));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sfc::nn
