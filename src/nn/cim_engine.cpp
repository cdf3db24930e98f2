#include "nn/cim_engine.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <cassert>
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

}  // namespace

CimDotEngine::CimDotEngine(const sfc::cim::BehavioralArrayModel& model,
                           Options opts)
    : model_(model), opts_(opts) {
  assert(model_.cells() == 8 && "bit-serial mapping expects 8-cell rows");
  assert(opts.activation_bits >= 2 && opts.activation_bits <= 8);
  assert(opts.weight_bits >= 2 && opts.weight_bits <= 8);
  act_bits_ = opts.activation_bits;
  weight_mag_bits_ = opts.weight_bits - 1;
  for (int k = 0; k <= 8; ++k) {
    decoded_[k] = model_.mac(k, opts_.temperature_c, nullptr);
    if (decoded_[k] != k) any_miscount_ = true;
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
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t counts = byte_popcounts(a_plane[i] & w_plane[i]);
    for (int b = 0; b < 8; ++b) {
      const int true_count = static_cast<int>(counts & 0xff);
      counts >>= 8;
      int digital;
      if (rng != nullptr) {
        digital = model_.mac(true_count, opts_.temperature_c, rng);
      } else {
        digital = decoded_[true_count];
      }
      if (digital != true_count) ++*errors;
      total += digital;
    }
  }
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
  assert(a.size() == w.size());
  std::int64_t result = 0;
  dot_batch(a, w, w.size(), 1, &result);
  return result;
}

void CimDotEngine::dot_batch(std::span<const std::uint8_t> a,
                             std::span<const std::int8_t> weights,
                             std::size_t row_stride, std::size_t rows,
                             std::int64_t* out) {
  if (rows == 0) return;
  SFC_TRACE_SPAN("cim.dot_batch");
  SFC_TRACE_COUNT("cim.dot.batches", 1);
  SFC_TRACE_COUNT("cim.dot.rows", rows);
  SFC_TRACE_COUNT("cim.dot.row_ops",
                  static_cast<std::uint64_t>(act_bits_) * weight_mag_bits_ * 2 *
                      ((a.size() + 7) / 8) * rows);
  assert(weights.size() >= (rows - 1) * row_stride + a.size());
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
