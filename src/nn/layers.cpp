#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sfc::nn {
namespace {

/// The layers' shape check: thrown in every build, since a layer fed the
/// wrong shape would read past its input.
[[noreturn]] void reject_input(const Layer& layer, const std::vector<int>& in,
                               const std::string& expected) {
  throw std::invalid_argument(layer.name() + ": input shape " +
                              Tensor::shape_text(in) + ", expected " +
                              expected);
}

}  // namespace

void Layer::zero_gradients() {
  for (Tensor* g : gradients()) g->fill(0.0f);
}

// ------------------------------------------------------------------ Conv2d

Conv2d::Conv2d(int in_channels, int out_channels, int kernel,
               bool same_padding, sfc::util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(same_padding ? kernel / 2 : 0),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  // He-normal: std = sqrt(2 / fan_in).
  const double std_dev =
      std::sqrt(2.0 / (static_cast<double>(in_channels) * kernel * kernel));
  for (std::size_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = static_cast<float>(rng.normal(0.0, std_dev));
  }
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ")";
}

std::vector<int> Conv2d::output_shape(const std::vector<int>& in) const {
  // The kernel must fit the padded input at least once.
  const int side = std::max(1, kernel_ - 2 * padding_);
  if (in.size() != 3 || in[0] != in_channels_ || in[1] < side ||
      in[2] < side) {
    reject_input(*this, in,
                 "[" + std::to_string(in_channels_) + ", H, W] with H, W >= " +
                     std::to_string(side));
  }
  const int h = in[1] + 2 * padding_ - kernel_ + 1;
  const int w = in[2] + 2 * padding_ - kernel_ + 1;
  return {out_channels_, h, w};
}

Tensor Conv2d::forward(const Tensor& input, const LayerContext& /*ctx*/) {
  Tensor out(output_shape(input.shape()));
  cached_input_ = input;
  const int in_h = input.dim(1);
  const int in_w = input.dim(2);
  const int out_h = out.dim(1);
  const int out_w = out.dim(2);

  for (int oc = 0; oc < out_channels_; ++oc) {
    const float b = bias_[static_cast<std::size_t>(oc)];
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        out.at(oc, oy, ox) = b;
      }
    }
    for (int ic = 0; ic < in_channels_; ++ic) {
      for (int ky = 0; ky < kernel_; ++ky) {
        for (int kx = 0; kx < kernel_; ++kx) {
          const float w = weight_[static_cast<std::size_t>(
              ((oc * in_channels_ + ic) * kernel_ + ky) * kernel_ + kx)];
          if (w == 0.0f) continue;
          // Valid input range for this kernel tap.
          const int y_lo = std::max(0, padding_ - ky);
          const int y_hi = std::min(out_h, in_h + padding_ - ky);
          const int x_lo = std::max(0, padding_ - kx);
          const int x_hi = std::min(out_w, in_w + padding_ - kx);
          for (int oy = y_lo; oy < y_hi; ++oy) {
            const int iy = oy + ky - padding_;
            for (int ox = x_lo; ox < x_hi; ++ox) {
              const int ix = ox + kx - padding_;
              out.at(oc, oy, ox) += w * input.at(ic, iy, ix);
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int in_h = input.dim(1);
  const int in_w = input.dim(2);
  const int out_h = grad_output.dim(1);
  const int out_w = grad_output.dim(2);
  Tensor grad_in({in_channels_, in_h, in_w});

  for (int oc = 0; oc < out_channels_; ++oc) {
    // Bias gradient.
    float gb = 0.0f;
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        gb += grad_output.at(oc, oy, ox);
      }
    }
    grad_bias_[static_cast<std::size_t>(oc)] += gb;

    for (int ic = 0; ic < in_channels_; ++ic) {
      for (int ky = 0; ky < kernel_; ++ky) {
        for (int kx = 0; kx < kernel_; ++kx) {
          const std::size_t widx = static_cast<std::size_t>(
              ((oc * in_channels_ + ic) * kernel_ + ky) * kernel_ + kx);
          const float w = weight_[widx];
          float gw = 0.0f;
          const int y_lo = std::max(0, padding_ - ky);
          const int y_hi = std::min(out_h, in_h + padding_ - ky);
          const int x_lo = std::max(0, padding_ - kx);
          const int x_hi = std::min(out_w, in_w + padding_ - kx);
          for (int oy = y_lo; oy < y_hi; ++oy) {
            const int iy = oy + ky - padding_;
            for (int ox = x_lo; ox < x_hi; ++ox) {
              const int ix = ox + kx - padding_;
              const float go = grad_output.at(oc, oy, ox);
              gw += go * input.at(ic, iy, ix);
              grad_in.at(ic, iy, ix) += go * w;
            }
          }
          grad_weight_[widx] += gw;
        }
      }
    }
  }
  return grad_in;
}

// --------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(int window) : window_(window) {
  if (window < 2) {
    throw std::invalid_argument("MaxPool2d: window " + std::to_string(window) +
                                " is below 2");
  }
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + "x" +
         std::to_string(window_) + ")";
}

std::vector<int> MaxPool2d::output_shape(const std::vector<int>& in) const {
  if (in.size() != 3 || in[1] < window_ || in[2] < window_) {
    reject_input(*this, in,
                 "[C, H, W] with H, W >= " + std::to_string(window_));
  }
  return {in[0], in[1] / window_, in[2] / window_};
}

Tensor MaxPool2d::forward(const Tensor& input, const LayerContext& /*ctx*/) {
  Tensor out(output_shape(input.shape()));
  in_shape_ = input.shape();
  const int channels = out.dim(0);
  const int out_h = out.dim(1);
  const int out_w = out.dim(2);
  argmax_.assign(out.size(), 0);

  std::size_t oi = 0;
  for (int c = 0; c < channels; ++c) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox, ++oi) {
        float best = -1e30f;
        std::size_t best_idx = 0;
        for (int dy = 0; dy < window_; ++dy) {
          for (int dx = 0; dx < window_; ++dx) {
            const int iy = oy * window_ + dy;
            const int ix = ox * window_ + dx;
            const float v = input.at(c, iy, ix);
            if (v > best) {
              best = v;
              best_idx =
                  (static_cast<std::size_t>(c) * static_cast<std::size_t>(input.dim(1)) +
                   static_cast<std::size_t>(iy)) *
                      static_cast<std::size_t>(input.dim(2)) +
                  static_cast<std::size_t>(ix);
            }
          }
        }
        out[oi] = best;
        argmax_[oi] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_in(in_shape_);
  for (std::size_t oi = 0; oi < grad_output.size(); ++oi) {
    grad_in[argmax_[oi]] += grad_output[oi];
  }
  return grad_in;
}

// ------------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, sfc::util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  const double std_dev = std::sqrt(2.0 / static_cast<double>(in_features));
  for (std::size_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = static_cast<float>(rng.normal(0.0, std_dev));
  }
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

std::vector<int> Dense::output_shape(const std::vector<int>& in) const {
  if (Tensor::count(in) != static_cast<std::size_t>(in_features_)) {
    reject_input(*this, in, std::to_string(in_features_) + " features");
  }
  return {out_features_};
}

Tensor Dense::forward(const Tensor& input, const LayerContext& /*ctx*/) {
  Tensor out(output_shape(input.shape()));
  cached_input_ = input;
  const float* x = input.data();
  for (int o = 0; o < out_features_; ++o) {
    const float* w = weight_.data() +
                     static_cast<std::size_t>(o) * static_cast<std::size_t>(in_features_);
    float acc = bias_[static_cast<std::size_t>(o)];
    for (int i = 0; i < in_features_; ++i) acc += w[i] * x[i];
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  assert(static_cast<int>(grad_output.size()) == out_features_);
  Tensor grad_in({in_features_});
  const float* x = cached_input_.data();
  for (int o = 0; o < out_features_; ++o) {
    const float go = grad_output[static_cast<std::size_t>(o)];
    grad_bias_[static_cast<std::size_t>(o)] += go;
    float* gw = grad_weight_.data() +
                static_cast<std::size_t>(o) * static_cast<std::size_t>(in_features_);
    const float* w = weight_.data() +
                     static_cast<std::size_t>(o) * static_cast<std::size_t>(in_features_);
    for (int i = 0; i < in_features_; ++i) {
      gw[i] += go * x[i];
      grad_in[static_cast<std::size_t>(i)] += go * w[i];
    }
  }
  return grad_in;
}

// -------------------------------------------------------------------- Relu

Tensor Relu::forward(const Tensor& input, const LayerContext& /*ctx*/) {
  cached_input_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] < 0.0f) out[i] = 0.0f;
  }
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  Tensor grad_in = grad_output;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    if (cached_input_[i] <= 0.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

// ----------------------------------------------------------------- Dropout

Dropout::Dropout(double rate) : rate_(rate) {
  assert(rate >= 0.0 && rate < 1.0);
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

Tensor Dropout::forward(const Tensor& input, const LayerContext& ctx) {
  if (!ctx.training || rate_ == 0.0) {
    mask_.clear();
    return input;
  }
  assert(ctx.rng != nullptr && "training dropout needs an RNG");
  const float keep = static_cast<float>(1.0 - rate_);
  mask_.assign(input.size(), 0.0f);
  Tensor out = input;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (ctx.rng->uniform() < keep) {
      mask_[i] = 1.0f / keep;  // inverted dropout keeps expectation
      out[i] *= mask_[i];
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  Tensor grad_in = grad_output;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

// ----------------------------------------------------------------- Flatten

std::vector<int> Flatten::output_shape(const std::vector<int>& in) const {
  return {static_cast<int>(Tensor::count(in))};
}

Tensor Flatten::forward(const Tensor& input, const LayerContext& /*ctx*/) {
  in_shape_ = input.shape();
  return input.reshaped({static_cast<int>(input.size())});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(in_shape_);
}

}  // namespace sfc::nn
