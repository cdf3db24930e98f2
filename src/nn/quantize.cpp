#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/trainer.hpp"

namespace sfc::nn {
namespace {

struct Geometry {
  int c = 0, h = 0, w = 0;
  bool flat = false;
  int features() const { return flat ? c : c * h * w; }
  std::vector<int> shape() const {
    return flat ? std::vector<int>{c} : std::vector<int>{c, h, w};
  }
};

/// The shape check of every op, thrown in every build: an op fed the
/// wrong geometry would read past its activations.
[[noreturn]] void reject_geometry(const char* op, const Geometry& g,
                                  const std::string& expected) {
  throw std::invalid_argument(std::string("QuantizedNetwork: ") + op +
                              " op input " + Tensor::shape_text(g.shape()) +
                              ", expected " + expected);
}

/// The geometry after `op`; throws std::invalid_argument when `op` cannot
/// take `g`.
Geometry advance(const Geometry& g, const QuantOp& op) {
  Geometry out = g;
  switch (op.kind) {
    case QuantOp::Kind::kConv: {
      // The kernel must fit the padded input at least once.
      const int side = std::max(1, op.kernel - 2 * op.padding);
      if (g.flat || g.c != op.in_channels || g.h < side || g.w < side) {
        reject_geometry("conv", g,
                        "[" + std::to_string(op.in_channels) +
                            ", H, W] with H, W >= " + std::to_string(side));
      }
      out.c = op.out_channels;
      out.h = g.h + 2 * op.padding - op.kernel + 1;
      out.w = g.w + 2 * op.padding - op.kernel + 1;
      break;
    }
    case QuantOp::Kind::kPool:
      if (g.flat || g.h < op.pool_window || g.w < op.pool_window) {
        reject_geometry("pool", g,
                        "[C, H, W] with H, W >= " +
                            std::to_string(op.pool_window));
      }
      out.h = g.h / op.pool_window;
      out.w = g.w / op.pool_window;
      break;
    case QuantOp::Kind::kFlatten:
      out.c = g.c * g.h * g.w;
      out.h = out.w = 1;
      out.flat = true;
      break;
    case QuantOp::Kind::kDense:
      if (g.features() != op.in_features) {
        reject_geometry("dense", g,
                        std::to_string(op.in_features) + " features");
      }
      out.c = op.out_features;
      out.h = out.w = 1;
      out.flat = true;
      break;
  }
  return out;
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    m = std::max(m, std::fabs(t[i]));
  }
  return m;
}

/// Gathers the zero-padded input patch of conv output pixel (oy, ox), in
/// the weight layout [in_channel][ky][kx].
void gather_patch(const QuantOp& op, const Geometry& g,
                  const std::vector<std::uint8_t>& act, int oy, int ox,
                  std::vector<std::uint8_t>* patch) {
  std::size_t pi = 0;
  for (int ic = 0; ic < op.in_channels; ++ic) {
    for (int ky = 0; ky < op.kernel; ++ky) {
      const int iy = oy + ky - op.padding;
      for (int kx = 0; kx < op.kernel; ++kx, ++pi) {
        const int ix = ox + kx - op.padding;
        (*patch)[pi] =
            (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w)
                ? 0
                : act[static_cast<std::size_t>((ic * g.h + iy) * g.w + ix)];
      }
    }
  }
}

/// Requantizes one output pixel of a conv/dense op from its integer dot
/// products: channel c is rescaled by the activation and weight scales,
/// biased and passed through the folded ReLU, then stored as a float logit
/// in logits[c] when `logits` is set (the network's last op), else as a
/// uint8 code at the op's calibrated scale in codes[c * stride].
void requantize(const QuantOp& op, const std::vector<std::int64_t>& dots,
                float a_scale, long act_levels, float* logits,
                std::uint8_t* codes, std::size_t stride) {
  for (std::size_t c = 0; c < dots.size(); ++c) {
    float y = static_cast<float>(dots[c]) * a_scale * op.w_scale + op.bias[c];
    if (op.relu && y < 0.0f) y = 0.0f;
    if (logits != nullptr) {
      logits[c] = y;
    } else {
      codes[c * stride] = static_cast<std::uint8_t>(
          std::clamp(std::lround(y / op.act_out_scale), 0L, act_levels));
    }
  }
}

std::vector<std::int8_t> quantize_weights(const Tensor& w, int magnitude_max,
                                          float* scale_out) {
  const float peak = std::max(max_abs(w), 1e-8f);
  const auto mag = static_cast<float>(magnitude_max);
  const float scale = peak / mag;
  std::vector<std::int8_t> q(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float v = std::round(w[i] / scale);
    q[i] = static_cast<std::int8_t>(std::clamp(v, -mag, mag));
  }
  *scale_out = scale;
  return q;
}

}  // namespace

void DotEngine::require_equal_lengths(std::size_t a, std::size_t w,
                                      const char* who) {
  if (a != w) {
    throw std::invalid_argument(std::string(who) + ": length mismatch");
  }
}

void DotEngine::require_rows(std::size_t length, std::size_t weights,
                             std::size_t row_stride, std::size_t rows,
                             const char* who) {
  // (rows - 1) * row_stride + length <= weights, without overflow.
  if (rows > 0 &&
      (weights < length ||
       (rows > 1 && row_stride > (weights - length) / (rows - 1)))) {
    throw std::invalid_argument(std::string(who) +
                                ": weight span shorter than its rows");
  }
}

void DotEngine::dot_batch(std::span<const std::uint8_t> a,
                          std::span<const std::int8_t> weights,
                          std::size_t row_stride, std::size_t rows,
                          std::int64_t* out) {
  require_rows(a.size(), weights.size(), row_stride, rows,
               "DotEngine::dot_batch");
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot(a, weights.subspan(r * row_stride, a.size()));
  }
}

std::int64_t IdealDotEngine::dot(std::span<const std::uint8_t> a,
                                 std::span<const std::int8_t> w) {
  require_equal_lengths(a.size(), w.size(), "IdealDotEngine::dot");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(w[i]);
  }
  return acc;
}

QuantizedNetwork QuantizedNetwork::from_model(
    const Sequential& model, const sfc::data::Dataset& calibration,
    int max_calibration_images, QuantizeOptions options) {
  QuantizedNetwork qn;
  qn.options_ = options;
  const int wmag = options.weight_magnitude_max();
  const float act_levels = static_cast<float>(options.activation_levels());

  // Pass 1: structural conversion.
  for (std::size_t li = 0; li < model.num_layers(); ++li) {
    const Layer& layer = model.layer(li);
    if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kConv;
      op.in_channels = conv->in_channels();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.padding = conv->padding();
      op.weight = quantize_weights(conv->weight(), wmag, &op.w_scale);
      op.bias.assign(conv->bias().data(),
                     conv->bias().data() + conv->bias().size());
      qn.ops_.push_back(std::move(op));
    } else if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kDense;
      op.in_features = dense->in_features();
      op.out_features = dense->out_features();
      op.weight = quantize_weights(dense->weight(), wmag, &op.w_scale);
      op.bias.assign(dense->bias().data(),
                     dense->bias().data() + dense->bias().size());
      qn.ops_.push_back(std::move(op));
    } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kPool;
      op.pool_window = pool->window();
      qn.ops_.push_back(std::move(op));
    } else if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
      QuantOp op;
      op.kind = QuantOp::Kind::kFlatten;
      qn.ops_.push_back(std::move(op));
    } else if (dynamic_cast<const Relu*>(&layer) != nullptr) {
      if (qn.ops_.empty()) {
        throw std::runtime_error("QuantizedNetwork: leading ReLU unsupported");
      }
      qn.ops_.back().relu = true;
    } else if (dynamic_cast<const Dropout*>(&layer) != nullptr) {
      // Inference no-op.
    } else {
      throw std::runtime_error("QuantizedNetwork: unsupported layer " +
                               layer.name());
    }
  }

  // The ops' shapes must chain from the input image.
  Geometry g{qn.input_channels_, qn.input_size_, qn.input_size_, false};
  for (const QuantOp& op : qn.ops_) g = advance(g, op);

  // Pass 2: activation-scale calibration. A float twin of the ops - conv
  // and dense layers holding the dequantized weights (what the integer
  // path will compute), a ReLU where one is folded into them - runs the
  // calibration images through nn's own layers, and the peak output of
  // every conv/dense op sets its uint8 scale.
  sfc::util::Rng unused_init(0);  // the twin's weights are overwritten
  std::vector<Sequential> twin(qn.ops_.size());
  for (std::size_t oi = 0; oi < qn.ops_.size(); ++oi) {
    const QuantOp& op = qn.ops_[oi];
    Tensor* weight = nullptr;
    Tensor* bias = nullptr;
    switch (op.kind) {
      case QuantOp::Kind::kConv: {
        Conv2d& conv = twin[oi].add<Conv2d>(op.in_channels, op.out_channels,
                                            op.kernel, op.padding > 0,
                                            unused_init);
        weight = &conv.weight();
        bias = &conv.bias();
        break;
      }
      case QuantOp::Kind::kDense: {
        Dense& dense =
            twin[oi].add<Dense>(op.in_features, op.out_features, unused_init);
        weight = &dense.weight();
        bias = &dense.bias();
        break;
      }
      case QuantOp::Kind::kPool:
        twin[oi].add<MaxPool2d>(op.pool_window);
        break;
      case QuantOp::Kind::kFlatten:
        twin[oi].add<Flatten>();
        break;
    }
    if (weight == nullptr) continue;
    for (std::size_t i = 0; i < op.weight.size(); ++i) {
      (*weight)[i] = static_cast<float>(op.weight[i]) * op.w_scale;
    }
    for (std::size_t i = 0; i < op.bias.size(); ++i) (*bias)[i] = op.bias[i];
    if (op.relu) twin[oi].add<Relu>();
  }

  std::vector<float> act_max(qn.ops_.size(), 1e-6f);
  const int num_cal = std::min<int>(
      max_calibration_images, static_cast<int>(calibration.images.size()));
  const LayerContext inference;
  for (int ci = 0; ci < num_cal; ++ci) {
    Tensor x = to_tensor(calibration.images[static_cast<std::size_t>(ci)]);
    for (std::size_t oi = 0; oi < qn.ops_.size(); ++oi) {
      x = twin[oi].forward(x, inference);
      const QuantOp::Kind kind = qn.ops_[oi].kind;
      if (kind == QuantOp::Kind::kConv || kind == QuantOp::Kind::kDense) {
        act_max[oi] =
            std::max(act_max[oi], *std::max_element(x.data(),
                                                    x.data() + x.size()));
      }
    }
  }
  for (std::size_t oi = 0; oi < qn.ops_.size(); ++oi) {
    qn.ops_[oi].act_out_scale = act_max[oi] / act_levels;
  }
  return qn;
}

Tensor QuantizedNetwork::forward(const sfc::data::Image& img,
                                 DotEngine& engine) const {
  // The ops read the activations by the network's geometry, not the
  // image's size.
  const std::size_t expected = static_cast<std::size_t>(input_channels_) *
                               input_size_ * input_size_;
  if (img.pixels.size() != expected) {
    throw std::invalid_argument(
        "QuantizedNetwork::forward: image has " +
        std::to_string(img.pixels.size()) + " pixels, expected " +
        std::to_string(expected));
  }
  // uint8 activations with a single scale.
  const long act_levels = options_.activation_levels();
  std::vector<std::uint8_t> act(img.pixels.size());
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    act[i] = static_cast<std::uint8_t>(std::clamp(
        std::lround(img.pixels[i] * static_cast<float>(act_levels)), 0L,
        act_levels));
  }
  float a_scale = 1.0f / static_cast<float>(act_levels);
  Geometry g{input_channels_, input_size_, input_size_, false};

  std::vector<float> logits;
  std::vector<std::uint8_t> patch;
  std::vector<std::int64_t> dots;

  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    const QuantOp& op = ops_[oi];
    engine.begin_layer(static_cast<int>(oi));
    const Geometry gout = advance(g, op);
    const bool last = oi + 1 == ops_.size();

    if (op.kind == QuantOp::Kind::kConv || op.kind == QuantOp::Kind::kDense) {
      // A dense op is a conv with one output pixel whose patch is the whole
      // input. Every output channel of a pixel reads the same patch, so one
      // batched call per pixel lets engines evaluate the rows in parallel.
      const bool conv = op.kind == QuantOp::Kind::kConv;
      const std::size_t pixels = static_cast<std::size_t>(gout.h) * gout.w;
      const auto channels = static_cast<std::size_t>(gout.c);
      std::vector<std::uint8_t> next(channels * pixels, 0);
      if (conv) {
        patch.assign(
            static_cast<std::size_t>(op.in_channels) * op.kernel * op.kernel,
            0);
      }
      const std::vector<std::uint8_t>& in = conv ? patch : act;
      dots.resize(channels);
      if (last) logits.assign(channels, 0.0f);
      for (int oy = 0; oy < gout.h; ++oy) {
        for (int ox = 0; ox < gout.w; ++ox) {
          if (conv) gather_patch(op, g, act, oy, ox, &patch);
          engine.dot_batch(in, op.weight, in.size(), channels, dots.data());
          requantize(op, dots, a_scale, act_levels,
                     last ? logits.data() : nullptr,
                     next.data() + static_cast<std::size_t>(oy) * gout.w + ox,
                     pixels);
        }
      }
      act = std::move(next);
      a_scale = op.act_out_scale;
    } else if (op.kind == QuantOp::Kind::kPool) {
      std::vector<std::uint8_t> next(
          static_cast<std::size_t>(gout.c) * gout.h * gout.w, 0);
      for (int c = 0; c < g.c; ++c) {
        for (int oy = 0; oy < gout.h; ++oy) {
          for (int ox = 0; ox < gout.w; ++ox) {
            std::uint8_t best = 0;
            for (int dy = 0; dy < op.pool_window; ++dy) {
              for (int dx = 0; dx < op.pool_window; ++dx) {
                best = std::max(
                    best, act[static_cast<std::size_t>(
                              (c * g.h + oy * op.pool_window + dy) * g.w +
                              ox * op.pool_window + dx)]);
              }
            }
            next[static_cast<std::size_t>((c * gout.h + oy) * gout.w + ox)] =
                best;
          }
        }
      }
      act = std::move(next);
    }
    // Flatten: layout already matches; nothing to do.
    g = gout;
  }

  Tensor out({static_cast<int>(logits.size())});
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i];
  return out;
}

int QuantizedNetwork::predict(const sfc::data::Image& img,
                              DotEngine& engine) const {
  return argmax(forward(img, engine));
}

double QuantizedNetwork::evaluate(const sfc::data::Dataset& test,
                                  DotEngine& engine, int max_images) const {
  std::size_t n = test.images.size();
  if (max_images >= 0) n = std::min(n, static_cast<std::size_t>(max_images));
  if (n == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (predict(test.images[i], engine) == test.images[i].label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

std::int64_t QuantizedNetwork::macs_per_inference() const {
  Geometry g{input_channels_, input_size_, input_size_, false};
  std::int64_t macs = 0;
  for (const QuantOp& op : ops_) {
    const Geometry gout = advance(g, op);
    if (op.kind == QuantOp::Kind::kConv) {
      macs += static_cast<std::int64_t>(gout.c) * gout.h * gout.w *
              op.in_channels * op.kernel * op.kernel;
    } else if (op.kind == QuantOp::Kind::kDense) {
      macs += static_cast<std::int64_t>(op.in_features) * op.out_features;
    }
    g = gout;
  }
  return macs;
}

}  // namespace sfc::nn
