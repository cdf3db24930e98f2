#include "nn/cim_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "exec/stream.hpp"
#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;

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

#if defined(__SSE2__)
/// masked_product of 16 elements, four to each 32-bit lane: byte j of a
/// and w lands in lane (j % 8) / 2. The masks and the sign are applied in
/// 8-bit lanes as masked_product does; the weights are then sign-extended
/// and _mm_madd_epi16 sums adjacent 16-bit products into 32 bits.
__m128i masked_products(__m128i a, __m128i w, __m128i a_mask,
                        __m128i w_mask) {
  const __m128i zero = _mm_setzero_si128();
  a = _mm_and_si128(a, a_mask);
  const __m128i sign = _mm_cmplt_epi8(w, zero);  // 0 or -1
  const __m128i mag =
      _mm_and_si128(_mm_sub_epi8(_mm_xor_si128(w, sign), sign), w_mask);
  const __m128i weight = _mm_sub_epi8(_mm_xor_si128(mag, sign), sign);
  const __m128i high = _mm_cmplt_epi8(weight, zero);
  return _mm_add_epi32(_mm_madd_epi16(_mm_unpacklo_epi8(a, zero),
                                      _mm_unpacklo_epi8(weight, high)),
                       _mm_madd_epi16(_mm_unpackhi_epi8(a, zero),
                                      _mm_unpackhi_epi8(weight, high)));
}
#endif

/// The integer dot product of a and w under the wordlength masks, the sum
/// of every row op's true count weighted by +-2^(p+q). With SSE2, 16
/// elements a step go through masked_products into four 32-bit lanes, and
/// an 8..15 remainder takes one more step with its top 8 bytes zero. A lane
/// gains at most 4 * 255 * 127 = 129,540 a step, so the lanes are summed
/// into the 64-bit total after at most 16,384 steps (2.12e9 < 2^31 - 1,
/// with room for the remainder step) and at the end of the row. The scalar
/// loop takes the last 0..7 elements, and the whole row without SSE2.
std::int64_t masked_dot(std::span<const std::uint8_t> a,
                        std::span<const std::int8_t> w, std::uint8_t a_mask,
                        std::int8_t w_mask) {
  const std::size_t n = a.size();
  std::int64_t total = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  constexpr std::size_t kFlushSteps = 16384;
  const __m128i a_masks = _mm_set1_epi8(static_cast<char>(a_mask));
  const __m128i w_masks = _mm_set1_epi8(static_cast<char>(w_mask));
  const auto at = [](const auto* p) {
    return reinterpret_cast<const __m128i*>(p);
  };
  while (n - i >= 8) {
    __m128i lanes = _mm_setzero_si128();
    const std::size_t end = i + 16 * std::min((n - i) / 16, kFlushSteps);
    for (; i < end; i += 16) {
      lanes = _mm_add_epi32(
          lanes, masked_products(_mm_loadu_si128(at(a.data() + i)),
                                 _mm_loadu_si128(at(w.data() + i)), a_masks,
                                 w_masks));
    }
    if (n - i >= 8 && n - i < 16) {
      lanes = _mm_add_epi32(
          lanes, masked_products(_mm_loadl_epi64(at(a.data() + i)),
                                 _mm_loadl_epi64(at(w.data() + i)), a_masks,
                                 w_masks));
      i += 8;
    }
    alignas(16) std::int32_t lane[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lane), lanes);
    total += std::int64_t{lane[0]} + lane[1] + lane[2] + lane[3];
  }
#endif
  for (; i < n; ++i) total += masked_product(a[i], w[i], a_mask, w_mask);
  return total;
}

/// Activation v's spread: bit 7p set for each set bit p of v. Times a
/// magnitude m <= 127, bit 7p + q holds bit p of v and bit q of m: each
/// shifted copy of m fits in its 7 bits, so the product cannot carry.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> spread{};
  for (unsigned v = 0; v < 256; ++v) {
    for (int p = 0; p < 8; ++p) {
      spread[v] |= static_cast<std::uint64_t>((v >> p) & 1) << (7 * p);
    }
  }
  return spread;
}();

/// Set bits of each byte value: a table lookup, where std::popcount is a
/// library call on x86-64 without -mpopcnt.
constexpr std::array<std::uint8_t, 256> kBitCount = [] {
  std::array<std::uint8_t, 256> count{};
  for (unsigned v = 0; v < 256; ++v) {
    count[v] = static_cast<std::uint8_t>(std::popcount(v));
  }
  return count;
}();

/// Counts 0..8 per bit position, bit sliced: bit i of `ones`, `twos`,
/// `fours` and `eights` is that bit of position i's count.
struct BitCounts {
  std::uint64_t ones = 0, twos = 0, fours = 0, eights = 0;
};

/// The sum bits of a full adder, bit by bit; *carry takes the carries.
std::uint64_t full_add(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                       std::uint64_t* carry) {
  const std::uint64_t u = a ^ b;
  *carry = (a & b) | (u & c);
  return u ^ c;
}

/// How many of x0..x7 have each bit set, by a carry-save adder tree.
/// `inline` keeps GCC -O2 from calling it out of line.
inline BitCounts count_bits(std::uint64_t x0, std::uint64_t x1,
                            std::uint64_t x2, std::uint64_t x3,
                            std::uint64_t x4, std::uint64_t x5,
                            std::uint64_t x6, std::uint64_t x7) {
  std::uint64_t k0 = 0, k1 = 0, k2 = 0, f0 = 0;
  const std::uint64_t s0 = full_add(x0, x1, x2, &k0);
  const std::uint64_t s1 = full_add(x3, x4, x5, &k1);
  const std::uint64_t s2 = full_add(s0, s1, x6, &k2);
  const std::uint64_t k3 = s2 & x7;  // the twos, like k0..k2
  const std::uint64_t t0 = full_add(k0, k1, k2, &f0);
  const std::uint64_t f1 = t0 & k3;  // the fours, like f0
  return {s2 ^ x7, t0 ^ k3, f0 ^ f1, f0 & f1};
}

/// Bit i set when count i of `c` reaches k (1..8): count + (16 - k)
/// carries out of 4 bits. `add` is 16 - k.
std::uint64_t at_least(const BitCounts& c, unsigned add) {
  std::uint64_t carry = (add & 1) != 0 ? c.ones : 0;
  carry = (add & 2) != 0 ? (c.twos | carry) : (c.twos & carry);
  carry = (add & 4) != 0 ? (c.fours | carry) : (c.fours & carry);
  return c.eights | carry;  // add >= 8
}

/// Adds `mask` (one per bit position) to vertical bit-sliced counters:
/// bit i of counter[b] is bit b of position i's count. The counters must
/// be wide enough for the sum.
void add_to_counters(std::uint64_t* counter, std::uint64_t mask) {
  for (; mask != 0; ++counter) {
    const std::uint64_t carry = *counter & mask;
    *counter ^= mask;
    mask = carry;
  }
}

/// Sum over p, q of 2^(p+q) times bit 7p + q of x: the 7-bit fields at
/// 7p, weighted 2^p, are summed pairwise in three folds.
std::int64_t plane_weight(std::uint64_t x) {
  constexpr std::uint64_t kFields7 = 0x7fULL | 0x7fULL << 14 | 0x7fULL << 28 |
                                     0x7fULL << 42;
  constexpr std::uint64_t kFields14 = 0x3fffULL | 0x3fffULL << 28;
  x = (x & kFields7) + ((x >> 7) & kFields7) * 2;     // <= 381 at 14i
  x = (x & kFields14) + ((x >> 14) & kFields14) * 4;  // <= 1905 at 28i
  return static_cast<std::int64_t>((x & 0xfffffff) + (x >> 28) * 16);
}

/// Set bits of x.
std::int64_t popcount64(std::uint64_t x) {
  return static_cast<std::int64_t>((byte_popcounts(x) * kByteOnes) >> 56);
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
    level.m1_floor = sfc::util::Rng::mantissa_floor(
        shortcut_u1_floor(level.v, level.sigma, model_.thresholds()));
    if (level.decoded != k) any_miscount_ = true;
  }
  // delta(k) = decoded(k) - k changes value only at its steps.
  zero_misdecodes_ = levels_[0].decoded != 0;
  for (int k = 1; k <= 8; ++k) {
    const int delta = levels_[k].decoded - k;
    const int prev = levels_[k - 1].decoded - (k - 1);
    if (delta == prev) continue;
    DecodeStep& step = steps_[n_steps_++];
    step.k = k;
    step.delta = delta - prev;
    step.errors = (delta != 0) - (prev != 0);
  }
}

const CimDotEngine::WeightRow& CimDotEngine::row_for(
    std::span<const std::int8_t> w) {
  const void* key = w.data();
  auto it = row_cache_.find(key);
  if (it != row_cache_.end() && std::ranges::equal(it->second.bytes, w)) {
    return it->second;
  }
  WeightRow row;
  row.bytes.assign(w.begin(), w.end());
  if (any_miscount_) {
    const auto w_mask = static_cast<std::uint8_t>((1 << weight_mag_bits_) - 1);
    row.mags.assign(16 * ((w.size() + 7) / 8), 0);
    row.live.assign((w.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < w.size(); ++i) {
      // |-128| wraps to 0x80, whose low 7 bits are 0.
      const auto mag = static_cast<std::uint8_t>(
          static_cast<std::uint8_t>(w[i] < 0 ? -w[i] : w[i]) & w_mask);
      row.mags[16 * (i / 8) + (w[i] < 0 ? 8 : 0) + i % 8] = mag;
      row.live[i / 8] |= static_cast<std::uint8_t>((mag != 0) << (i % 8));
    }
  }
  if (!opts_.with_variation_noise) {
    return row_cache_.insert_or_assign(key, std::move(row)).first->second;
  }
  row.words = (w.size() + 63) / 64;
  row.pos.assign(
      static_cast<std::size_t>(weight_mag_bits_) * row.words, 0);
  row.neg.assign(
      static_cast<std::size_t>(weight_mag_bits_) * row.words, 0);
  for (std::size_t i = 0; i < row.words; ++i) {
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
      const std::size_t at = static_cast<std::size_t>(q) * row.words + i;
      row.pos[at] = pos[q];
      row.neg[at] = neg[q];
    }
  }
  // insert_or_assign (not emplace): a row rewritten in place, or the
  // allocator reusing an address for a different weight row, must
  // overwrite the stale cache entry.
  return row_cache_.insert_or_assign(key, std::move(row)).first->second;
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

void CimDotEngine::spread_activations(std::span<const std::uint8_t> a) {
  const std::size_t groups = (a.size() + 7) / 8;
  const auto a_mask = static_cast<std::uint8_t>((1u << act_bits_) - 1);
  a_spread_.assign(8 * groups, 0);
  a_live_.assign(groups, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint8_t v = a[i] & a_mask;
    a_spread_[i] = kSpread[v];
    a_live_[i / 8] |= static_cast<std::uint8_t>((v != 0) << (i % 8));
  }
  // A group's counts are at most its nonzero activations, so a group with
  // fewer than the first step's k reaches no step.
  a_groups_.clear();
  for (std::size_t g = 0; g < groups; ++g) {
    if (kBitCount[a_live_[g]] >= steps_[0].k) a_groups_.push_back(g);
  }
}

std::int64_t CimDotEngine::decode_correction(const WeightRow& row,
                                             std::int64_t* errors) const {
  const std::size_t length = row.bytes.size();
  // The 8 * words * delta(0) term of every plane pair, padding groups
  // included, cancels between the positive and the negative planes of the
  // result but not in the miss count.
  std::int64_t misses =
      zero_misdecodes_ ? static_cast<std::int64_t>(act_bits_) *
                             weight_mag_bits_ * 2 * 8 *
                             static_cast<std::int64_t>((length + 63) / 64)
                       : 0;
  // Per step and sign, vertical counters of the groups whose count reaches
  // the step, one bit position per plane pair; `width` bits hold any
  // count up to the row's number of groups. Only the first
  // 2 * n_steps_ * width words are used, and they are zeroed here.
  const auto width =
      static_cast<std::size_t>(std::bit_width((length + 7) / 8));
  std::uint64_t counters[8 * 2 * 64];
  std::fill_n(counters, 2 * static_cast<std::size_t>(n_steps_) * width, 0);
  for (const std::size_t g : a_groups_) {
    // Its count is at most its live activation-weight pairs.
    if (kBitCount[a_live_[g] & row.live[g]] < steps_[0].k) continue;
    const std::uint64_t* spread = a_spread_.data() + 8 * g;
    const std::uint8_t* mags = row.mags.data() + 16 * g;
    const BitCounts pos = count_bits(
        spread[0] * mags[0], spread[1] * mags[1], spread[2] * mags[2],
        spread[3] * mags[3], spread[4] * mags[4], spread[5] * mags[5],
        spread[6] * mags[6], spread[7] * mags[7]);
    const BitCounts neg = count_bits(
        spread[0] * mags[8], spread[1] * mags[9], spread[2] * mags[10],
        spread[3] * mags[11], spread[4] * mags[12], spread[5] * mags[13],
        spread[6] * mags[14], spread[7] * mags[15]);
    // The steps rise in k, so once no count reaches one, none reaches a
    // later one.
    for (int s = 0; s < n_steps_; ++s) {
      const auto add = static_cast<unsigned>(16 - steps_[s].k);
      const std::uint64_t pos_reach = at_least(pos, add);
      const std::uint64_t neg_reach = at_least(neg, add);
      if ((pos_reach | neg_reach) == 0) break;
      add_to_counters(counters + 2 * s * width, pos_reach);
      add_to_counters(counters + (2 * s + 1) * width, neg_reach);
    }
  }
  std::int64_t result = 0;
  for (int s = 0; s < n_steps_; ++s) {
    const std::uint64_t* pos = counters + 2 * s * width;
    const std::uint64_t* neg = pos + width;
    std::int64_t weight = 0;  // sum over pairs of 2^(p+q) (pos - neg)
    std::int64_t reach = 0;   // groups reaching the step over all pairs
    for (std::size_t b = 0; b < width; ++b) {
      const std::int64_t scale = std::int64_t{1} << b;
      weight += (plane_weight(pos[b]) - plane_weight(neg[b])) * scale;
      reach += (popcount64(pos[b]) + popcount64(neg[b])) * scale;
    }
    result += steps_[s].delta * weight;
    misses += steps_[s].errors * reach;
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
  std::int64_t flips = 0;
  std::int64_t misses = 0;
  // What mac() reads for a group of true count k, given a draw at or below
  // k's floor, less its noiseless decode; misses likewise.
  const auto flip = [&](std::uint64_t k,
                        const sfc::util::Rng::NormalDraw& draw) {
    const Level& level = levels_[k];
    const int digital =
        model_.decode(level.v + (0.0 + level.sigma * draw.value()));
    const int count = static_cast<int>(k);
    misses += (digital != count) - (level.decoded != count);
    flips += digital - level.decoded;
  };
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t counts = byte_popcounts(a_plane[i] & w_plane[i]);
    // A row's stream starts fresh and each word takes 8 draws, so every
    // word starts at a pair boundary: group 2j takes pair j's cosine draw
    // and group 2j + 1 its sine draw, as consecutive normal_draw()s would.
    for (int j = 0; j < 4; ++j) {
      const sfc::util::Rng::MantissaPair m = local.mantissa_pair();
      const std::uint64_t cosine_k = counts & 0xff;
      const std::uint64_t sine_k = (counts >> 8) & 0xff;
      if (m.m1 <= levels_[cosine_k].m1_floor) {
        flip(cosine_k, m.pair().cosine());
      }
      if (m.m1 <= levels_[sine_k].m1_floor) flip(sine_k, m.pair().sine());
      counts >>= 16;
    }
  }
  rng = local;
  *errors += misses;
  return flips;
}

std::int64_t CimDotEngine::noisy_row(const WeightRow& row,
                                     sfc::util::Rng& rng,
                                     std::int64_t* errors) const {
  const std::size_t words = row.words;
  std::int64_t result = 0;
  for (int p = 0; p < act_bits_; ++p) {
    const std::uint64_t* ap =
        a_planes_.data() + static_cast<std::size_t>(p) * words;
    for (int q = 0; q < weight_mag_bits_; ++q) {
      const std::int64_t pos = binary_dot(
          ap, row.pos.data() + static_cast<std::size_t>(q) * words, words, rng,
          errors);
      const std::int64_t neg = binary_dot(
          ap, row.neg.data() + static_cast<std::size_t>(q) * words, words, rng,
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
    // A row reads its integer dot plus, over its plane pairs, each group's
    // decode less its true count: the miscount correction, then the
    // noise's flips of those decodes.
    if (opts_.with_variation_noise) pack_activations(a);
    if (any_miscount_) spread_activations(a);
    // The row cache is shared mutable state, so resolve every row
    // serially up front; references into the unordered_map stay valid
    // while the parallel tasks only read them.
    batch_rows_.resize(rows);
    batch_errors_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      batch_rows_[r] = &row_for(row_weights(r));
    }
    sfc::exec::parallel_for(opts_.exec, rows, [&](std::size_t r) {
      std::int64_t err = 0;
      std::int64_t value = masked_dot(a, row_weights(r), a_mask, w_mask);
      if (any_miscount_) value += decode_correction(*batch_rows_[r], &err);
      if (opts_.with_variation_noise) {
        sfc::util::Rng rng =
            sfc::exec::stream_rng(opts_.noise_seed, noise_base + r);
        value += noisy_row(*batch_rows_[r], rng, &err);
      }
      out[r] = value;
      batch_errors_[r] = err;
    });
    for (std::size_t r = 0; r < rows; ++r) row_errors_ += batch_errors_[r];
  }
  row_ops_ += static_cast<std::int64_t>(rows) * act_bits_ * weight_mag_bits_ *
              2 * static_cast<std::int64_t>((a.size() + 7) / 8);
}

}  // namespace sfc::nn
