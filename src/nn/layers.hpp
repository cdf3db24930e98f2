// NN layers with forward + backward passes (single-sample CHW tensors).
// Implements exactly what the paper's Table I network needs: 3x3 same-pad
// convolution, 2x2 max-pooling, dense, ReLU, dropout; plus flatten and the
// softmax/cross-entropy head in loss.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace sfc::nn {

struct LayerContext {
  bool training = false;
  sfc::util::Rng* rng = nullptr;  ///< required when training dropout layers
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual Tensor forward(const Tensor& input, const LayerContext& ctx) = 0;
  /// Gradient w.r.t. the input; accumulates parameter gradients internally.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  virtual std::vector<Tensor*> parameters() { return {}; }
  virtual std::vector<Tensor*> gradients() { return {}; }
  virtual void zero_gradients();

  virtual std::string name() const = 0;
  /// Output shape given an input shape (vgg_table walks a network by it).
  /// Throws std::invalid_argument, naming the layer and both shapes, when
  /// the layer cannot take `in`; forward checks its input the same way.
  virtual std::vector<int> output_shape(const std::vector<int>& in) const = 0;
};

/// 3x3 (or kxk) same/valid convolution, stride 1.
class Conv2d final : public Layer {
 public:
  /// He-normal initialization from `rng`.
  Conv2d(int in_channels, int out_channels, int kernel, bool same_padding,
         sfc::util::Rng& rng);

  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weight_, &grad_bias_}; }
  std::string name() const override;
  std::vector<int> output_shape(const std::vector<int>& in) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int padding() const { return padding_; }
  const Tensor& weight() const { return weight_; }  ///< [out][in][k][k]
  const Tensor& bias() const { return bias_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  int in_channels_, out_channels_, kernel_, padding_;
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  Tensor cached_input_;
};

/// window x window max pooling, stride window (Table I: 2x2).
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(int window = 2);

  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override;
  std::vector<int> output_shape(const std::vector<int>& in) const override;
  int window() const { return window_; }

 private:
  int window_;
  std::vector<int> in_shape_;
  std::vector<std::size_t> argmax_;  ///< winning input index per output
};

/// Fully connected layer on a flat vector.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, sfc::util::Rng& rng);

  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weight_, &grad_bias_}; }
  std::string name() const override;
  std::vector<int> output_shape(const std::vector<int>& in) const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }  ///< [out][in]
  const Tensor& bias() const { return bias_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  int in_features_, out_features_;
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  Tensor cached_input_;
};

class Relu final : public Layer {
 public:
  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  std::vector<int> output_shape(const std::vector<int>& in) const override {
    return in;
  }

 private:
  Tensor cached_input_;
};

/// Inverted dropout: active only in training mode.
class Dropout final : public Layer {
 public:
  explicit Dropout(double rate);

  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override;
  std::vector<int> output_shape(const std::vector<int>& in) const override {
    return in;
  }
  double rate() const { return rate_; }

 private:
  double rate_;
  std::vector<float> mask_;
};

/// CHW -> flat vector.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, const LayerContext& ctx) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }
  std::vector<int> output_shape(const std::vector<int>& in) const override;

 private:
  std::vector<int> in_shape_;
};

}  // namespace sfc::nn
