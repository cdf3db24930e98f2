// Outside-in layer instrumentation for the performance ledger. Everything
// here wraps or observes public APIs of the libraries; nothing reaches
// into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cim/behavioral.hpp"
#include "nn/quantize.hpp"
#include "verify/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Forwarding DotEngine: times dot_batch() and begin_layer() around the
/// wrapped engine, so QuantizedNetwork::forward splits into kernel time
/// and the network's own gather / requantize / pool time.
class TimedDotEngine final : public sfc::nn::DotEngine {
 public:
  explicit TimedDotEngine(sfc::nn::DotEngine& inner) : inner_(inner) {}

  std::int64_t dot(std::span<const std::uint8_t> a,
                   std::span<const std::int8_t> w) override;
  void dot_batch(std::span<const std::uint8_t> a,
                 std::span<const std::int8_t> weights, std::size_t row_stride,
                 std::size_t rows, std::int64_t* out) override;
  void begin_layer(int layer_index) override;

  double dot_batch_ms() const { return dot_batch_ms_; }
  double begin_layer_ms() const { return begin_layer_ms_; }

 private:
  sfc::nn::DotEngine& inner_;
  double dot_batch_ms_ = 0.0;
  double begin_layer_ms_ = 0.0;
};

/// ns per BehavioralArrayModel::mac() call at `temperature_c`, with a noise
/// Rng (the vgg_noisy row path) or without (the decode-LUT path), as the
/// median of a few timed loops over true counts 0..cells.
double time_mac_ns(const sfc::cim::BehavioralArrayModel& model,
                   double temperature_c, bool with_noise);

/// Per-name aggregates of one Tracer recording (Tracer::chrome_json()).
struct SpanSummary {
  struct Name {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< total minus time covered by child spans
    std::vector<double> dur_us;
  };
  std::map<std::string, Name> by_name;

  const Name& operator[](const std::string& name) const;
};

SpanSummary summarize_spans(const sfc::verify::Json& chrome);

/// FNV-1a over raw bytes, for pinning outputs in the reference file.
class Hash {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
