// Sequential model container + softmax cross-entropy head + weight
// serialization.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace sfc::nn {

class Sequential {
 public:
  Sequential() = default;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& input, const LayerContext& ctx);
  /// Backward from the loss gradient at the output.
  void backward(const Tensor& grad_output);

  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  void zero_gradients();

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Total parameter count.
  std::size_t num_parameters();

  /// Binary weight (de)serialization; shapes must match exactly. Both
  /// throw std::runtime_error on failure. load_weights checks the whole
  /// file, to its last byte, before it assigns any weight, so a failed
  /// load leaves every weight unchanged.
  void save_weights(const std::string& path);
  void load_weights(const std::string& path);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Numerically stable softmax.
Tensor softmax(const Tensor& logits);

/// Cross-entropy loss of logits vs target class. Returns loss; fills
/// grad (same shape as logits) with d loss / d logits.
float softmax_cross_entropy(const Tensor& logits, int target, Tensor* grad);

/// Index of the max logit.
int argmax(const Tensor& values);

}  // namespace sfc::nn
