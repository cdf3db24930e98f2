#include "nn/model.hpp"

#include <cassert>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace sfc::nn {

Tensor Sequential::forward(const Tensor& input, const LayerContext& ctx) {
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->forward(x, ctx);
  }
  return x;
}

void Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> params;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> grads;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) grads.push_back(g);
  }
  return grads;
}

void Sequential::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : parameters()) n += p->size();
  return n;
}

void Sequential::save_weights(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  const char magic[8] = {'s', 'f', 'c', 'n', 'n', 'w', '0', '1'};
  out.write(magic, sizeof(magic));
  for (Tensor* p : parameters()) {
    const auto n = static_cast<std::uint64_t>(p->size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(p->data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
}

void Sequential::load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, 8) != "sfcnnw01") {
    throw std::runtime_error("bad weight file " + path);
  }
  for (Tensor* p : parameters()) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || n != p->size()) {
      throw std::runtime_error("weight shape mismatch in " + path);
    }
    in.read(reinterpret_cast<char*>(p->data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!in) throw std::runtime_error("truncated weight file " + path);
  }
}

Tensor softmax(const Tensor& logits) {
  Tensor out = logits;
  float peak = -1e30f;
  for (std::size_t i = 0; i < out.size(); ++i) peak = std::max(peak, out[i]);
  float sum = 0.0f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::exp(out[i] - peak);
    sum += out[i];
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] /= sum;
  return out;
}

float softmax_cross_entropy(const Tensor& logits, int target, Tensor* grad) {
  assert(target >= 0 && static_cast<std::size_t>(target) < logits.size());
  const Tensor probs = softmax(logits);
  const float p_target =
      std::max(probs[static_cast<std::size_t>(target)], 1e-12f);
  if (grad != nullptr) {
    *grad = probs;
    (*grad)[static_cast<std::size_t>(target)] -= 1.0f;
  }
  return -std::log(p_target);
}

int argmax(const Tensor& values) {
  int best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace sfc::nn
