#include "nn/cim_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "exec/stream.hpp"
#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

/// SWAR per-byte popcount: returns a word whose every byte holds the
/// popcount (0..8) of the corresponding input byte.
std::uint64_t byte_popcounts(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return x;
}

/// Cheap content fingerprint over <= 16 sampled elements; guards the
/// weight-plane cache against a row being rewritten in place (or the
/// allocator reusing an address for different weights).
std::uint64_t weight_fingerprint(std::span<const std::int8_t> w) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ w.size();
  const std::size_t stride = std::max<std::size_t>(1, w.size() / 16);
  for (std::size_t i = 0; i < w.size(); i += stride) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(w[i])) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  if (!w.empty()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(w.back())) << 32;
  }
  return h;
}

/// Floor on Box-Muller's u1 above which v + (0.0 + sigma * z) decodes as v
/// does: u1 > exp(-r^2/2) gives |z| <= sqrt(-2 ln u1) < r, and
/// r = (1 - 1e-6) * gap / sigma keeps |sigma * z| below the distance from v
/// to the nearest threshold. The 1e-6 margin covers the few-ulp rounding of
/// exp, log, sqrt, cos/sin and the products. A gap whose margin cannot also
/// cover the rounding of the final addition (epsilon * |v|), zero
/// included, never takes the shortcut; nor does a NaN floor.
double shortcut_u1_floor(double v, double sigma,
                         const std::vector<double>& thresholds) {
  if (sigma == 0.0) return 0.0;  // v + (0.0 + 0 * z) is v exactly
  double gap = std::numeric_limits<double>::infinity();
  for (double th : thresholds) gap = std::min(gap, std::fabs(v - th));
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  if (!(1e-6 * gap > kEps * std::fabs(v))) return 1.0;
  const double r = (1.0 - 1e-6) * gap / sigma;
  return std::exp(-0.5 * r * r);
}

}  // namespace

CimDotEngine::CimDotEngine(const sfc::cim::BehavioralArrayModel& model,
                           Options opts)
    : model_(model), opts_(opts) {
  // levels_ holds one entry per count 0..8 of an 8-cell row.
  if (model_.cells() != 8) {
    throw std::invalid_argument(
        "CimDotEngine: bit-serial mapping expects 8-cell rows");
  }
  if (opts.activation_bits < 2 || opts.activation_bits > 8 ||
      opts.weight_bits < 2 || opts.weight_bits > 8) {
    throw std::invalid_argument(
        "CimDotEngine: activation and weight bits must lie in 2..8");
  }
  act_bits_ = opts.activation_bits;
  weight_mag_bits_ = opts.weight_bits - 1;
  for (int k = 0; k <= 8; ++k) {
    Level& level = levels_[k];
    level.v = model_.v_acc(k, opts_.temperature_c);
    level.sigma = model_.sigma(k);
    level.decoded = model_.decode(level.v);
    level.u1_floor =
        shortcut_u1_floor(level.v, level.sigma, model_.thresholds());
    if (level.decoded != k) any_miscount_ = true;
  }
}

const CimDotEngine::WeightPlanes& CimDotEngine::planes_for(
    std::span<const std::int8_t> w) {
  const void* key = w.data();
  const std::uint64_t fp = weight_fingerprint(w);
  auto it = plane_cache_.find(key);
  if (it != plane_cache_.end() && it->second.length == w.size() &&
      it->second.fingerprint == fp) {
    return it->second;
  }
  WeightPlanes planes;
  planes.length = w.size();
  planes.fingerprint = fp;
  planes.words = (w.size() + 63) / 64;
  planes.pos.assign(
      static_cast<std::size_t>(weight_mag_bits_) * planes.words, 0);
  planes.neg.assign(
      static_cast<std::size_t>(weight_mag_bits_) * planes.words, 0);
  for (std::size_t e = 0; e < w.size(); ++e) {
    const int v = w[e];
    const unsigned mag = static_cast<unsigned>(v < 0 ? -v : v);
    auto* target = (v < 0 ? planes.neg.data() : planes.pos.data());
    const std::size_t word = e >> 6;
    const std::uint64_t bit = 1ULL << (e & 63);
    for (int q = 0; q < weight_mag_bits_; ++q) {
      if ((mag >> q) & 1u) {
        target[static_cast<std::size_t>(q) * planes.words + word] |= bit;
      }
    }
  }
  // insert_or_assign (not emplace): the allocator can reuse an address for
  // a different weight row, which must overwrite the stale cache entry.
  return plane_cache_.insert_or_assign(key, std::move(planes)).first->second;
}

void CimDotEngine::pack_activations(std::span<const std::uint8_t> a) {
  const std::size_t words = (a.size() + 63) / 64;
  if (a_words_ != words) {
    a_planes_.assign(static_cast<std::size_t>(act_bits_) * words, 0);
    a_words_ = words;
  } else {
    std::fill(a_planes_.begin(), a_planes_.end(), 0);
  }
  for (std::size_t e = 0; e < a.size(); ++e) {
    const unsigned v = a[e];
    if (v == 0) continue;
    const std::size_t word = e >> 6;
    const std::uint64_t bit = 1ULL << (e & 63);
    for (int p = 0; p < act_bits_; ++p) {
      if ((v >> p) & 1u) {
        a_planes_[static_cast<std::size_t>(p) * words + word] |= bit;
      }
    }
  }
}

std::int64_t CimDotEngine::binary_dot(const std::uint64_t* a_plane,
                                      const std::uint64_t* w_plane,
                                      std::size_t words, sfc::util::Rng* rng,
                                      std::int64_t* errors) const {
  std::int64_t total = 0;
  if (!any_miscount_ && rng == nullptr) {
    // Fast path: every MAC count decodes exactly, so the row result equals
    // the true popcount.
    for (std::size_t i = 0; i < words; ++i) {
      total += std::popcount(a_plane[i] & w_plane[i]);
    }
    return total;
  }
  std::int64_t misses = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t counts = byte_popcounts(a_plane[i] & w_plane[i]);
    for (int b = 0; b < 8; ++b) {
      const int true_count = static_cast<int>(counts & 0xff);
      counts >>= 8;
      const Level& level = levels_[true_count];
      int digital = level.decoded;
      if (rng != nullptr) {
        // The draw mac() would take; its deviate can only move the decode
        // when u1 is at or below the level's floor.
        const sfc::util::Rng::NormalDraw draw = rng->normal_draw();
        if (!(draw.u1 > level.u1_floor)) {
          digital =
              model_.decode(level.v + (0.0 + level.sigma * draw.value()));
        }
      }
      if (digital != true_count) ++misses;
      total += digital;
    }
  }
  *errors += misses;
  return total;
}

std::int64_t CimDotEngine::row_result(const WeightPlanes& wp,
                                      sfc::util::Rng* rng,
                                      std::int64_t* errors) const {
  const std::size_t words = wp.words;
  std::int64_t result = 0;
  for (int p = 0; p < act_bits_; ++p) {
    const std::uint64_t* ap =
        a_planes_.data() + static_cast<std::size_t>(p) * words;
    for (int q = 0; q < weight_mag_bits_; ++q) {
      const std::int64_t pos = binary_dot(
          ap, wp.pos.data() + static_cast<std::size_t>(q) * words, words, rng,
          errors);
      const std::int64_t neg = binary_dot(
          ap, wp.neg.data() + static_cast<std::size_t>(q) * words, words, rng,
          errors);
      result += ((pos - neg) << (p + q));
    }
  }
  return result;
}

std::int64_t CimDotEngine::dot(std::span<const std::uint8_t> a,
                               std::span<const std::int8_t> w) {
  if (a.size() != w.size()) {
    throw std::invalid_argument("CimDotEngine::dot: length mismatch");
  }
  std::int64_t result = 0;
  dot_batch(a, w, w.size(), 1, &result);
  return result;
}

void CimDotEngine::dot_batch(std::span<const std::uint8_t> a,
                             std::span<const std::int8_t> weights,
                             std::size_t row_stride, std::size_t rows,
                             std::int64_t* out) {
  if (rows == 0) return;
  if (weights.size() < a.size() ||
      (rows > 1 && row_stride > (weights.size() - a.size()) / (rows - 1))) {
    throw std::invalid_argument(
        "CimDotEngine::dot_batch: weight span shorter than its rows");
  }
  SFC_TRACE_SPAN("cim.dot_batch");
  SFC_TRACE_COUNT("cim.dot.batches", 1);
  SFC_TRACE_COUNT("cim.dot.rows", rows);
  SFC_TRACE_COUNT("cim.dot.row_ops",
                  static_cast<std::uint64_t>(act_bits_) * weight_mag_bits_ * 2 *
                      ((a.size() + 7) / 8) * rows);
  pack_activations(a);

  // The plane cache is shared mutable state, so resolve every row's planes
  // serially up front; references into the unordered_map stay valid while
  // the parallel tasks only read them.
  std::vector<const WeightPlanes*> row_planes(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    row_planes[r] = &planes_for(weights.subspan(r * row_stride, a.size()));
  }

  // Noise streams are named by a monotonic row counter, never by thread:
  // batch row r draws from stream (noise_seed, base + r), so serial and
  // parallel evaluation produce bit-identical results.
  const std::uint64_t noise_base = next_noise_row_;
  next_noise_row_ += rows;

  std::vector<std::int64_t> errors(rows, 0);
  sfc::exec::parallel_for(opts_.exec, rows, [&](std::size_t r) {
    std::int64_t err = 0;
    if (opts_.with_variation_noise) {
      sfc::util::Rng rng =
          sfc::exec::stream_rng(opts_.noise_seed, noise_base + r);
      out[r] = row_result(*row_planes[r], &rng, &err);
    } else {
      out[r] = row_result(*row_planes[r], nullptr, &err);
    }
    errors[r] = err;
  });

  for (std::size_t r = 0; r < rows; ++r) row_errors_ += errors[r];
  row_ops_ += static_cast<std::int64_t>(rows) * act_bits_ * weight_mag_bits_ *
              2 * static_cast<std::int64_t>((a.size() + 7) / 8);
}

}  // namespace sfc::nn
