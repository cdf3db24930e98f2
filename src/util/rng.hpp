// Deterministic random number generation.
//
// Every stochastic element of the reproduction (Monte Carlo device
// variation, synthetic dataset generation, NN weight init, dropout) draws
// from an sfc::util::Rng seeded explicitly, so all experiments are
// reproducible run-to-run and the benches print identical numbers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sfc::util {

/// Small, fast, deterministic PRNG (xoshiro256**). Not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return unit(next_u64() >> 11); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Throws std::invalid_argument when n = 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// One standard-normal draw with Box-Muller's transcendentals deferred
  /// to value(). normal() is normal_draw().value().
  struct NormalDraw {
    double u1 = 1.0;      ///< in (0, 1); |value()| <= sqrt(-2 ln u1)
    double u2 = 0.0;      ///< in [0, 1); the angle is 2 pi u2
    bool second = false;  ///< the pair's sine deviate, else its cosine
    double value() const;
  };

  /// The (u1, u2) that a pair of draws shares.
  struct NormalPair {
    double u1 = 1.0;
    double u2 = 0.0;
    NormalDraw cosine() const { return {u1, u2, false}; }
    NormalDraw sine() const { return {u1, u2, true}; }
  };

  /// The 53-bit integers behind a pair's (u1, u2): u1 = m1 * 2^-53 with
  /// m1 in [1, 2^53), and u2 = m2 * 2^-53.
  struct MantissaPair {
    std::uint64_t m1 = std::uint64_t{1} << 53;
    std::uint64_t m2 = 0;
    NormalPair pair() const { return {unit(m1), unit(m2)}; }
  };

  /// The mantissa form of a floor on u1: a draw's u1 exceeds `u1_floor`
  /// exactly when its m1 exceeds the result. That is floor(u1_floor *
  /// 2^53), an exact product; 0 for a floor at or below 0, and 2^53, above
  /// every m1, for a floor of 1 or more or NaN (no u1 exceeds NaN).
  static std::uint64_t mantissa_floor(double u1_floor) {
    if (!(u1_floor < 1.0)) return std::uint64_t{1} << 53;
    if (!(u1_floor > 0.0)) return 0;
    return static_cast<std::uint64_t>(u1_floor * 0x1.0p53);
  }

  /// Advances the stream exactly as normal() does. A pair of draws shares
  /// one (u1, u2): u1 with zero rejected, then u2.
  NormalDraw normal_draw() {
    if (has_pair_) {
      has_pair_ = false;
      return pending_.sine();
    }
    pending_ = fresh_mantissas().pair();
    has_pair_ = true;
    return pending_.cosine();
  }

  /// The mantissas of the next fresh pair: advances the stream exactly as
  /// two normal_draw() calls from a pair boundary. Throws std::logic_error
  /// when a sine deviate is pending.
  MantissaPair mantissa_pair() {
    if (has_pair_) {
      throw std::logic_error("Rng: a sine deviate is pending");
    }
    return fresh_mantissas();
  }

  /// The next fresh pair, whose cosine() and sine() are the next two
  /// normal_draw()s from a pair boundary. Throws as mantissa_pair() does.
  NormalPair normal_pair() { return mantissa_pair().pair(); }

  /// Standard normal via Box-Muller: the cosine deviate of a fresh
  /// (u1, u2), then the sine deviate of the same pair.
  double normal() { return normal_draw().value(); }

  /// Normal with given mean / standard deviation.
  double normal(double mean, double sigma);

  /// Bernoulli draw.
  bool bernoulli(double p_true);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  static double unit(std::uint64_t mantissa) {
    return static_cast<double>(mantissa) * 0x1.0p-53;
  }

  /// The pairing rule: m1 with zero rejected, then m2.
  MantissaPair fresh_mantissas() {
    MantissaPair m;
    do {
      m.m1 = next_u64() >> 11;
    } while (m.m1 == 0);
    m.m2 = next_u64() >> 11;
    return m;
  }

  std::uint64_t s_[4];
  bool has_pair_ = false;  ///< pending_ owes its sine deviate
  NormalPair pending_;
};

}  // namespace sfc::util
