// Int8 post-training quantization and a quantized inference network whose
// every dot product is routed through a pluggable DotEngine - either an
// exact digital reference or the bit-serial CiM engine (cim_engine.hpp).
//
// Scheme (standard affine/symmetric):
//   activations: uint8, scale = max_act / 255 (per layer, calibrated)
//   weights:     int8 symmetric, scale = max|w| / 127 (per layer)
//   y = (sum a_q * w_q) * s_a * s_w + bias
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/synth_cifar.hpp"
#include "nn/model.hpp"

namespace sfc::nn {

/// Integer dot-product backend. `a` are unsigned activations (0..255),
/// `w` signed weights (-127..127), equal lengths.
class DotEngine {
 public:
  virtual ~DotEngine() = default;
  virtual std::int64_t dot(std::span<const std::uint8_t> a,
                           std::span<const std::int8_t> w) = 0;
  /// Evaluate `rows` dot products that share one activation vector: row r
  /// uses weights[r * row_stride .. r * row_stride + a.size()). Writes one
  /// result per row into `out`. This is the layer-level hot loop (all
  /// output channels of a conv pixel / all neurons of a dense layer), so
  /// engines may parallelize it; the default is a serial dot() loop.
  /// Throws std::invalid_argument when `weights` is shorter than
  /// (rows - 1) * row_stride + a.size().
  virtual void dot_batch(std::span<const std::uint8_t> a,
                         std::span<const std::int8_t> weights,
                         std::size_t row_stride, std::size_t rows,
                         std::int64_t* out);
  /// Called once per op before its dot products (a hook for wrapping
  /// engines, e.g. per-layer timers); the default does nothing.
  virtual void begin_layer(int layer_index) { (void)layer_index; }

 protected:
  /// The argument checks of dot and dot_batch: throw
  /// std::invalid_argument, naming `who`, when a and w differ in length or
  /// the weight span is shorter than its rows.
  static void require_equal_lengths(std::size_t a, std::size_t w,
                                    const char* who);
  static void require_rows(std::size_t length, std::size_t weights,
                           std::size_t row_stride, std::size_t rows,
                           const char* who);
};

/// Exact integer reference (the "digital 8-bit" baseline).
class IdealDotEngine final : public DotEngine {
 public:
  /// Throws std::invalid_argument when a and w differ in length.
  std::int64_t dot(std::span<const std::uint8_t> a,
                   std::span<const std::int8_t> w) override;
};

/// One quantized layer.
struct QuantOp {
  enum class Kind { kConv, kDense, kPool, kFlatten };
  Kind kind = Kind::kFlatten;
  // Conv / Dense payload.
  int in_channels = 0, out_channels = 0, kernel = 0, padding = 0;
  int in_features = 0, out_features = 0;
  std::vector<std::int8_t> weight;  ///< quantized weights
  std::vector<float> bias;
  float w_scale = 1.0f;
  bool relu = false;        ///< ReLU folded into the requantization
  float act_out_scale = 1.0f;  ///< uint8 output scale (calibrated)
  int pool_window = 2;
};

/// Wordlength configuration ("8-bit wordlength" in the paper; the
/// flexible-precision scheme of [17] supports narrower words too).
struct QuantizeOptions {
  int activation_bits = 8;  ///< unsigned activation word (2..8)
  int weight_bits = 8;      ///< signed weight word incl. sign (2..8)

  int activation_levels() const { return (1 << activation_bits) - 1; }
  int weight_magnitude_max() const { return (1 << (weight_bits - 1)) - 1; }
};

class QuantizedNetwork {
 public:
  /// Quantize a trained float model. `calibration` images determine the
  /// activation scales (a handful suffice): they run through a float twin
  /// built from nn's own layers with the dequantized weights, and each
  /// conv/dense op's peak output sets its scale.
  static QuantizedNetwork from_model(const Sequential& model,
                                     const sfc::data::Dataset& calibration,
                                     int max_calibration_images = 32,
                                     QuantizeOptions options = {});

  const QuantizeOptions& options() const { return options_; }

  /// Forward one image; returns float logits. Throws
  /// std::invalid_argument unless the image has 3 x 32 x 32 pixels.
  Tensor forward(const sfc::data::Image& img, DotEngine& engine) const;

  /// Predicted class.
  int predict(const sfc::data::Image& img, DotEngine& engine) const;

  /// Accuracy over a dataset with the given engine.
  double evaluate(const sfc::data::Dataset& test, DotEngine& engine,
                  int max_images = -1) const;

  const std::vector<QuantOp>& ops() const { return ops_; }

  /// Total MAC count of one inference (for energy-per-inference numbers).
  std::int64_t macs_per_inference() const;

 private:
  std::vector<QuantOp> ops_;
  QuantizeOptions options_;
  int input_size_ = 32;
  int input_channels_ = 3;
};

}  // namespace sfc::nn
