#include "nn/model.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
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

namespace {
constexpr char kWeightMagic[8] = {'s', 'f', 'c', 'n', 'n', 'w', '0', '1'};
}  // namespace

void Sequential::save_weights(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(kWeightMagic, sizeof(kWeightMagic));
  for (Tensor* p : parameters()) {
    const auto n = static_cast<std::uint64_t>(p->size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(p->data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  out.close();
  if (!out) throw std::runtime_error("failed writing " + path);
}

void Sequential::load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string file(static_cast<std::size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(file.data(), static_cast<std::streamsize>(file.size()));
  if (!in) throw std::runtime_error("cannot read " + path);
  // Check the whole file before any weight changes: the magic, every
  // tensor's size and bytes, and nothing after the last tensor.
  if (file.compare(0, sizeof(kWeightMagic),
                   std::string(kWeightMagic, sizeof(kWeightMagic))) != 0) {
    throw std::runtime_error("bad weight file " + path);
  }
  const std::vector<Tensor*> params = parameters();
  std::vector<std::size_t> offsets;
  std::size_t pos = sizeof(kWeightMagic);
  for (const Tensor* p : params) {
    std::uint64_t n = 0;
    if (file.size() - pos < sizeof(n)) {
      throw std::runtime_error("truncated weight file " + path);
    }
    std::memcpy(&n, file.data() + pos, sizeof(n));
    pos += sizeof(n);
    if (n != p->size()) {
      throw std::runtime_error("weight shape mismatch in " + path);
    }
    if ((file.size() - pos) / sizeof(float) < n) {
      throw std::runtime_error("truncated weight file " + path);
    }
    offsets.push_back(pos);
    pos += n * sizeof(float);
  }
  if (pos != file.size()) {
    throw std::runtime_error("trailing bytes in weight file " + path);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->data(), file.data() + offsets[i],
                params[i]->size() * sizeof(float));
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
