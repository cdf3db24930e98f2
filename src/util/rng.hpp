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

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

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

  /// The smallest u1 a draw can hold: uniform() steps by 2^-53, and zero
  /// is rejected.
  static constexpr double kSmallestU1 = 0x1.0p-53;

  /// The (u1, u2) that a pair of draws shares.
  struct NormalPair {
    double u1 = 1.0;
    double u2 = 0.0;
    NormalDraw cosine() const { return {u1, u2, false}; }
    NormalDraw sine() const { return {u1, u2, true}; }
  };

  /// Advances the stream exactly as normal() does. A pair of draws shares
  /// one (u1, u2): u1 with zero rejected, then u2.
  NormalDraw normal_draw() {
    if (has_pair_) {
      has_pair_ = false;
      return pending_.sine();
    }
    pending_ = fresh_pair();
    has_pair_ = true;
    return pending_.cosine();
  }

  /// The next fresh pair: advances the stream exactly as two normal_draw()
  /// calls from a pair boundary, whose draws are its cosine() and sine().
  /// Throws std::logic_error when a sine deviate is pending.
  NormalPair normal_pair() {
    if (has_pair_) {
      throw std::logic_error("Rng::normal_pair: a sine deviate is pending");
    }
    return fresh_pair();
  }

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

  NormalPair fresh_pair() {
    NormalPair pair;
    do {
      pair.u1 = uniform();
    } while (pair.u1 <= 0.0);
    pair.u2 = uniform();
    return pair;
  }

  std::uint64_t s_[4];
  bool has_pair_ = false;  ///< pending_ owes its sine deviate
  NormalPair pending_;
};

}  // namespace sfc::util
