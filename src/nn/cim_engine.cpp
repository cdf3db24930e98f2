#include "nn/cim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "exec/stream.hpp"
#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kByteHighs = 0x8080808080808080ULL;

/// SWAR per-byte popcount: returns a word whose every byte holds the
/// popcount (0..8) of the corresponding input byte.
std::uint64_t byte_popcounts(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return x;
}

/// Transposes an 8x8 bit matrix: bit p of byte j moves to bit j of byte
/// p. With element j of a group in byte j, byte p then holds the group's
/// bit plane p.
std::uint64_t transpose_bits(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000cccc0000ccccULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// What the bit planes of an activation and a weight encode: the
/// activation's low `a_mask` bits times the weight's sign and its
/// magnitude's low `w_mask` bits. w = -128 at 8 bits has magnitude 128 and
/// contributes 0, as it has no magnitude plane. Computed in 8-bit lanes:
/// |-128| wraps to 0x80, whose low 7 bits are 0.
std::int32_t masked_product(std::uint8_t a, std::int8_t w, std::uint8_t a_mask,
                            std::int8_t w_mask) {
  const auto sign = static_cast<std::int8_t>(w >> 7);  // 0 or -1
  const auto mag =
      static_cast<std::int8_t>(static_cast<std::int8_t>((w ^ sign) - sign) &
                               w_mask);
  const auto weight = static_cast<std::int8_t>((mag ^ sign) - sign);
  return static_cast<std::int32_t>(a & a_mask) * weight;
}

/// The integer dot product of a and w under the wordlength masks, the sum
/// of every row op's true count weighted by +-2^(p+q). Blocks of 16 keep
/// the partial sums in 32 bits (16 * 255 * 127 fits) and give the
/// compiler a fixed trip count to vectorize.
std::int64_t masked_dot(std::span<const std::uint8_t> a,
                        std::span<const std::int8_t> w, std::uint8_t a_mask,
                        std::int8_t w_mask) {
  constexpr std::size_t kBlock = 16;
  const std::size_t n = a.size();
  std::int64_t total = 0;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::int32_t block = 0;
    for (std::size_t j = 0; j < kBlock; ++j) {
      block += masked_product(a[i + j], w[i + j], a_mask, w_mask);
    }
    total += block;
  }
  for (; i < n; ++i) total += masked_product(a[i], w[i], a_mask, w_mask);
  return total;
}

/// Cheap content fingerprint: every element of a row shorter than 16,
/// else the 16-31 elements at a stride of size / 16, plus the last one.
/// Guards the weight-plane cache against a row being rewritten in place
/// (or the allocator reusing an address for different weights).
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
  // delta(k) = decoded(k) - k changes value only at its steps.
  zero_misdecodes_ = levels_[0].decoded != 0;
  for (int k = 1; k <= 8; ++k) {
    const int delta = levels_[k].decoded - k;
    const int prev = levels_[k - 1].decoded - (k - 1);
    if (delta == prev) continue;
    DecodeStep& step = steps_[n_steps_++];
    step.bias = (0x80 - static_cast<std::uint64_t>(k)) * kByteOnes;
    step.delta = delta - prev;
    step.errors = (delta != 0) - (prev != 0);
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
  for (std::size_t i = 0; i < planes.words; ++i) {
    std::uint64_t pos[7] = {};
    std::uint64_t neg[7] = {};
    for (std::size_t g = 0; g < 8 && i * 64 + g * 8 < w.size(); ++g) {
      const std::size_t first = i * 64 + g * 8;
      const std::size_t n = std::min<std::size_t>(8, w.size() - first);
      // Element j's low 7 magnitude bits in byte j (-128 has none, so it
      // contributes nothing) and its sign in bit j of `negative`.
      std::uint64_t mags = 0;
      std::uint64_t negative = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const int v = w[first + j];
        mags |= static_cast<std::uint64_t>((v < 0 ? -v : v) & 0x7f) << (8 * j);
        negative |= static_cast<std::uint64_t>(v < 0) << j;
      }
      const std::uint64_t bits = transpose_bits(mags);
      for (int q = 0; q < weight_mag_bits_; ++q) {
        const std::uint64_t plane = (bits >> (8 * q)) & 0xff;
        pos[q] |= (plane & ~negative) << (8 * g);
        neg[q] |= (plane & negative) << (8 * g);
      }
    }
    for (int q = 0; q < weight_mag_bits_; ++q) {
      const std::size_t at = static_cast<std::size_t>(q) * planes.words + i;
      planes.pos[at] = pos[q];
      planes.neg[at] = neg[q];
    }
  }
  // insert_or_assign (not emplace): the allocator can reuse an address for
  // a different weight row, which must overwrite the stale cache entry.
  return plane_cache_.insert_or_assign(key, std::move(planes)).first->second;
}

void CimDotEngine::pack_activations(std::span<const std::uint8_t> a) {
  const std::size_t words = (a.size() + 63) / 64;
  a_planes_.resize(static_cast<std::size_t>(act_bits_) * words);
  // Zero-padded to whole words, so every 8-element group is complete.
  a_padded_.assign(words * 64, 0);
  std::copy(a.begin(), a.end(), a_padded_.begin());
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t planes[8] = {};
    for (std::size_t g = 0; g < 8; ++g) {
      const std::uint8_t* group = a_padded_.data() + i * 64 + g * 8;
      std::uint64_t bytes = 0;  // element j of the group in byte j
      for (int j = 0; j < 8; ++j) {
        bytes |= static_cast<std::uint64_t>(group[j]) << (8 * j);
      }
      const std::uint64_t bits = transpose_bits(bytes);
      for (int p = 0; p < act_bits_; ++p) {
        planes[p] |= ((bits >> (8 * p)) & 0xff) << (8 * g);
      }
    }
    for (int p = 0; p < act_bits_; ++p) {
      a_planes_[static_cast<std::size_t>(p) * words + i] = planes[p];
    }
  }
}

std::int64_t CimDotEngine::decode_correction(const WeightPlanes& wp,
                                             std::int64_t* errors) const {
  const std::size_t words = wp.words;
  std::int64_t result = 0;
  // The 8 * words * delta(0) term of every plane pair, padding bytes
  // included, cancels between the positive and the negative planes of the
  // result but not in the miss count.
  std::int64_t misses =
      zero_misdecodes_ ? static_cast<std::int64_t>(act_bits_) *
                             weight_mag_bits_ * 2 * 8 *
                             static_cast<std::int64_t>(words)
                       : 0;
  // A group below the first step adds nothing, and its count is at most
  // its activation byte's. Bias 0: without steps no byte reaches bit 7.
  const std::uint64_t first_bias = n_steps_ > 0 ? steps_[0].bias : 0;
  for (int p = 0; p < act_bits_; ++p) {
    const std::uint64_t* ap =
        a_planes_.data() + static_cast<std::size_t>(p) * words;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t a = ap[i];
      if (((byte_popcounts(a) + first_bias) & kByteHighs) == 0) continue;
      for (int q = 0; q < weight_mag_bits_; ++q) {
        const std::size_t at = static_cast<std::size_t>(q) * words + i;
        const std::uint64_t pos_counts = byte_popcounts(a & wp.pos[at]);
        const std::uint64_t neg_counts = byte_popcounts(a & wp.neg[at]);
        std::int64_t pair = 0;  // sum_g delta(c_g) - delta(0), pos - neg
        // The steps rise in k, so once no byte reaches one, none reaches
        // a later one: a pair below the first step costs one test.
        for (int s = 0; s < n_steps_; ++s) {
          const DecodeStep& step = steps_[s];
          // Bit 0 of a byte flags a positive count >= k, bit 4 a negative
          // one; the multiply sums the bytes into the top byte (<= 136).
          const std::uint64_t flags =
              (((pos_counts + step.bias) & kByteHighs) >> 7) |
              (((neg_counts + step.bias) & kByteHighs) >> 3);
          if (flags == 0) break;
          const auto sums =
              static_cast<std::int64_t>((flags * kByteOnes) >> 56);
          const std::int64_t pos_reach = sums & 15;
          const std::int64_t neg_reach = sums >> 4;
          pair += step.delta * (pos_reach - neg_reach);
          misses += step.errors * (pos_reach + neg_reach);
        }
        result += pair * (std::int64_t{1} << (p + q));
      }
    }
  }
  *errors += misses;
  return result;
}

std::int64_t CimDotEngine::binary_dot(const std::uint64_t* a_plane,
                                      const std::uint64_t* w_plane,
                                      std::size_t words, sfc::util::Rng& rng,
                                      std::int64_t* errors) const {
  // A local copy, so the stream's state can stay in registers.
  sfc::util::Rng local = rng;
  std::int64_t total = 0;
  std::int64_t misses = 0;
  // What mac() returns for a group of true count k given its draw: the
  // deviate can only move the decode when u1 is at or below k's floor.
  const auto read_out = [&](std::uint64_t k,
                            const sfc::util::Rng::NormalDraw& draw) {
    const Level& level = levels_[k];
    int digital = level.decoded;
    if (!(draw.u1 > level.u1_floor)) {
      digital = model_.decode(level.v + (0.0 + level.sigma * draw.value()));
    }
    misses += digital != static_cast<int>(k);
    total += digital;
  };
  // When count 0's floor lies below the smallest u1, every draw passes it,
  // so an all-zero word reads decoded(0) eight times. A NaN floor fails
  // the test and takes the exact path.
  const bool skip_zero_words =
      levels_[0].u1_floor < sfc::util::Rng::kSmallestU1;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t counts = byte_popcounts(a_plane[i] & w_plane[i]);
    // A row's stream starts fresh and each word takes 8 draws, so every
    // word starts at a pair boundary: group 2j takes pair j's cosine draw
    // and group 2j + 1 its sine draw, as consecutive normal_draw()s would.
    if (counts == 0 && skip_zero_words) {
      for (int j = 0; j < 4; ++j) local.normal_pair();
      total += 8 * levels_[0].decoded;
      misses += zero_misdecodes_ ? 8 : 0;
      continue;
    }
    for (int j = 0; j < 4; ++j) {
      const sfc::util::Rng::NormalPair pair = local.normal_pair();
      read_out(counts & 0xff, pair.cosine());
      read_out((counts >> 8) & 0xff, pair.sine());
      counts >>= 16;
    }
  }
  rng = local;
  *errors += misses;
  return total;
}

std::int64_t CimDotEngine::noisy_row(const WeightPlanes& wp,
                                     sfc::util::Rng& rng,
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
  require_equal_lengths(a.size(), w.size(), "CimDotEngine::dot");
  std::int64_t result = 0;
  dot_batch(a, w, w.size(), 1, &result);
  return result;
}

void CimDotEngine::dot_batch(std::span<const std::uint8_t> a,
                             std::span<const std::int8_t> weights,
                             std::size_t row_stride, std::size_t rows,
                             std::int64_t* out) {
  require_rows(a.size(), weights.size(), row_stride, rows,
               "CimDotEngine::dot_batch");
  if (rows == 0) return;
  SFC_TRACE_SPAN("cim.dot_batch");
  SFC_TRACE_COUNT("cim.dot.batches", 1);
  SFC_TRACE_COUNT("cim.dot.rows", rows);
  SFC_TRACE_COUNT("cim.dot.row_ops",
                  static_cast<std::uint64_t>(act_bits_) * weight_mag_bits_ * 2 *
                      ((a.size() + 7) / 8) * rows);
  // Noise streams are named by a monotonic row counter, never by thread:
  // batch row r draws from stream (noise_seed, base + r), so serial and
  // parallel evaluation produce bit-identical results.
  const std::uint64_t noise_base = next_noise_row_;
  next_noise_row_ += rows;

  const auto a_mask = static_cast<std::uint8_t>((1u << act_bits_) - 1);
  const auto w_mask = static_cast<std::int8_t>((1 << weight_mag_bits_) - 1);
  const auto row_weights = [&](std::size_t r) {
    return weights.subspan(r * row_stride, a.size());
  };
  if (!opts_.with_variation_noise && !any_miscount_) {
    // Every count decodes exactly: the row is its integer dot.
    sfc::exec::parallel_for(opts_.exec, rows, [&](std::size_t r) {
      out[r] = masked_dot(a, row_weights(r), a_mask, w_mask);
    });
  } else {
    pack_activations(a);
    // The plane cache is shared mutable state, so resolve every row's
    // planes serially up front; references into the unordered_map stay
    // valid while the parallel tasks only read them.
    row_planes_.resize(rows);
    batch_errors_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      row_planes_[r] = &planes_for(row_weights(r));
    }
    sfc::exec::parallel_for(opts_.exec, rows, [&](std::size_t r) {
      std::int64_t err = 0;
      if (opts_.with_variation_noise) {
        sfc::util::Rng rng =
            sfc::exec::stream_rng(opts_.noise_seed, noise_base + r);
        out[r] = noisy_row(*row_planes_[r], rng, &err);
      } else {
        out[r] = masked_dot(a, row_weights(r), a_mask, w_mask) +
                 decode_correction(*row_planes_[r], &err);
      }
      batch_errors_[r] = err;
    });
    for (std::size_t r = 0; r < rows; ++r) row_errors_ += batch_errors_[r];
  }
  row_ops_ += static_cast<std::int64_t>(rows) * act_bits_ * weight_mag_bits_ *
              2 * static_cast<std::int64_t>((a.size() + 7) / 8);
}

}  // namespace sfc::nn
