// Bit-serial CiM dot-product engine.
//
// Maps an 8-bit (activation) x 8-bit (weight) integer dot product onto the
// binary 8-cells-per-row MAC primitive the array provides, exactly the
// "8-bit wordlength" scheme of the 1FeFET-1R paper [17] that our design
// inherits:
//   * weights are split into positive / negative magnitudes (7 bits each),
//   * activations into 8 bit-planes,
//   * each (activation-plane, weight-plane) pair is a binary dot product,
//     evaluated 8 elements at a time by a CiM row; the digital MAC counts
//     are shift-added with weight 2^(p+q) and pos/neg sign.
//
// The row primitive itself is the calibrated BehavioralArrayModel, so
// temperature drift and (optional) process-variation noise corrupt the MAC
// counts exactly as the analog array would: a noisy row op returns what
// BehavioralArrayModel::mac(count, T, &rng) returns, draw for draw.
//
// A noiseless row op of true count k reads out decode(k) = k + delta(k),
// fixed by the engine temperature, so a noiseless row is its integer dot
// a.w (activations masked to activation_bits, weight magnitudes to
// weight_bits - 1) plus sum over plane pairs of +-2^(p+q) sum_g delta(c_g).
// On a fabric where every count decodes exactly (delta = 0) that is a.w
// alone, with nothing packed. Otherwise the correction sums, per step of
// delta, the groups whose count reaches the step; each 8-element group
// counts all 56 of its plane pairs at once in one 64-bit word per sign
// (bit 7p + q for pair (p, q); DESIGN.md §7).
//
// A noisy row is its noiseless value plus its flips: over plane pairs,
// +-2^(p+q) sum_g (mac(c_g) - decode(c_g)). Only a draw whose u1 lies at
// or below its count's floor can flip a decode, so the row walks its
// stream and evaluates just those draws.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cim/behavioral.hpp"
#include "exec/parallel.hpp"
#include "nn/quantize.hpp"

namespace sfc::nn {

class CimDotEngine final : public DotEngine {
 public:
  struct Options {
    double temperature_c = 27.0;
    /// Draw Gaussian noise from the model's per-level sigma each row op.
    bool with_variation_noise = false;
    std::uint64_t noise_seed = 99;
    /// Wordlength (must match the QuantizeOptions the network was built
    /// with): unsigned activation bits and signed weight bits incl. sign.
    int activation_bits = 8;
    int weight_bits = 8;
    /// Fan-out of dot_batch row evaluation (default: serial). Noise draws
    /// come from counter-based per-row streams, so any thread count yields
    /// bit-identical results for the same call sequence.
    sfc::exec::ExecPolicy exec;
  };

  /// Throws std::invalid_argument unless the model has 8-cell rows, both
  /// wordlengths lie in 2..8 and `opts.temperature_c` lies within the
  /// model's calibrated temperatures (BehavioralArrayModel::v_acc).
  CimDotEngine(const sfc::cim::BehavioralArrayModel& model, Options opts);

  /// A one-row dot_batch: it takes the next noise row and counts its row
  /// ops and decode errors like any batch row. Throws
  /// std::invalid_argument when a and w differ in length.
  std::int64_t dot(std::span<const std::uint8_t> a,
                   std::span<const std::int8_t> w) override;
  /// Throws std::invalid_argument when `weights` is shorter than
  /// (rows - 1) * row_stride + a.size().
  void dot_batch(std::span<const std::uint8_t> a,
                 std::span<const std::int8_t> weights, std::size_t row_stride,
                 std::size_t rows, std::int64_t* out) override;

  /// Number of 8-cell row operations issued so far (energy accounting).
  std::int64_t row_ops() const { return row_ops_; }
  /// Row ops where the decoded MAC differed from the true count.
  std::int64_t row_errors() const { return row_errors_; }
  void reset_counters() {
    row_ops_ = 0;
    row_errors_ = 0;
  }

  double temperature_c() const { return opts_.temperature_c; }

 private:
  /// What a row op of true count k reads out at the engine temperature.
  struct Level {
    double v = 0.0;      ///< v_acc(k, T)
    double sigma = 0.0;  ///< the model's process-variation sigma
    /// A noise draw whose u1 mantissa (Rng::MantissaPair::m1) exceeds
    /// this floor keeps v + sigma * z inside k's decode interval, so it
    /// decodes to `decoded` without evaluating z (DESIGN.md §7).
    std::uint64_t m1_floor = 0;
    int decoded = 0;     ///< noiseless decode of v
  };

  /// A count k at which delta(k) = decoded(k) - k differs from
  /// delta(k - 1).
  struct DecodeStep {
    int k = 0;
    std::int64_t delta = 0;   ///< delta(k) - delta(k - 1)
    std::int64_t errors = 0;  ///< [delta(k) != 0] - [delta(k - 1) != 0]
  };

  /// One weight row as a kernel reads it. A noisy engine keeps its bit
  /// planes, a miscounting one its element magnitudes.
  struct WeightRow {
    /// The row's bytes when it was packed: a lookup compares all of them.
    std::vector<std::int8_t> bytes;
    std::size_t words = 0;            ///< packed 64-bit words per plane
    std::vector<std::uint64_t> pos;   ///< per magnitude bit x words
    std::vector<std::uint64_t> neg;
    /// Per 8-element group, the masked magnitudes of its positive then of
    /// its negative elements (16 bytes, 0 for the other sign and for the
    /// padding of the last group).
    std::vector<std::uint8_t> mags;
    /// Per group, bit j set when element j's masked magnitude is nonzero.
    std::vector<std::uint8_t> live;
  };

  const WeightRow& row_for(std::span<const std::int8_t> w);
  /// Noisy engines: the activations' bit planes.
  void pack_activations(std::span<const std::uint8_t> a);
  /// Miscounting engines: the activations' spreads and the groups that can
  /// reach the first step.
  void spread_activations(std::span<const std::uint8_t> a);
  /// Sum over a row's plane pairs of +-2^(p+q) sum_g delta(c_g) against
  /// the currently spread activations; misdecoded groups are tallied into
  /// *errors. Const + reentrant so batched rows can run concurrently.
  std::int64_t decode_correction(const WeightRow& row,
                                 std::int64_t* errors) const;
  /// One plane pair's noise: sum over its groups of mac(c_g) - decoded(c_g)
  /// given their draws from `rng`, 4 Box-Muller pairs per 64-element word,
  /// so `rng` must sit at a pair boundary. Only a draw at or below its
  /// count's floor is evaluated. Each evaluated draw adds its change in
  /// decode misses to *errors.
  std::int64_t binary_dot(const std::uint64_t* a_plane,
                          const std::uint64_t* w_plane, std::size_t words,
                          sfc::util::Rng& rng, std::int64_t* errors) const;
  /// Shift-add of binary_dot over all (activation, weight) plane pairs of
  /// one row against the currently packed activations: what the noise
  /// adds to the row's noiseless value.
  std::int64_t noisy_row(const WeightRow& row, sfc::util::Rng& rng,
                         std::int64_t* errors) const;

  const sfc::cim::BehavioralArrayModel& model_;
  Options opts_;
  /// Monotonic counter naming the noise stream of each dot-product row:
  /// row i of the engine's lifetime draws from stream (noise_seed, i),
  /// independent of which thread evaluates it.
  std::uint64_t next_noise_row_ = 0;
  std::int64_t row_ops_ = 0;
  std::int64_t row_errors_ = 0;

  Level levels_[9];            ///< per true count 0..8
  bool any_miscount_ = false;  ///< some count decodes to another
  /// The steps of delta(k) = decoded(k) - k over k = 1..8, in order.
  DecodeStep steps_[8];
  int n_steps_ = 0;
  bool zero_misdecodes_ = false;  ///< delta(0) != 0

  int act_bits_ = 8;
  int weight_mag_bits_ = 7;

  /// Weight row cache keyed by weight data pointer. An entry whose bytes
  /// differ from the row's (a row rewritten in place, or another row at a
  /// reused address) is rebuilt.
  std::unordered_map<const void*, WeightRow> row_cache_;
  /// Scratch activation planes, and the activations padded to whole words.
  std::vector<std::uint64_t> a_planes_;
  std::vector<std::uint8_t> a_padded_;
  /// Scratch activation spreads padded to whole groups, per group the bit
  /// mask of its nonzero activations, and the groups with at least the
  /// first step's k of them.
  std::vector<std::uint64_t> a_spread_;
  std::vector<std::uint8_t> a_live_;
  std::vector<std::size_t> a_groups_;
  /// Per-row scratch of packed batches, resized per call.
  std::vector<const WeightRow*> batch_rows_;
  std::vector<std::int64_t> batch_errors_;
};

}  // namespace sfc::nn
