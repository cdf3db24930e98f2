#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace sfc::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four xoshiro words from splitmix64 as recommended by the
  // algorithm's authors; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::NormalDraw::value() const {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  return radius * (second ? std::sin(angle) : std::cos(angle));
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p_true) {
  return uniform() < p_true;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace sfc::util
