// Unit tests for the utility layer: RNG determinism and distributions,
// statistics, histogram binning, interpolation, table formatting, strict
// number parsing.
#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "util/histogram.hpp"
#include "util/interp.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace sfc::util {
namespace {

TEST(Units, ThermalVoltageAtRoomTemperature) {
  const double vt = thermal_voltage(celsius_to_kelvin(27.0));
  EXPECT_NEAR(vt, 0.02585, 2e-4);
}

TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(0.0), 273.15);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = rng.normal(1.5, 0.5);
  const Summary sum = summarize(samples);
  EXPECT_NEAR(sum.mean, 1.5, 0.02);
  EXPECT_NEAR(sum.stddev, 0.5, 0.02);
}

// Every Monte Carlo golden rests on these draws: u1 (zero rejected), u2,
// then the pair's cosine and sine deviates.
TEST(Rng, NormalSequenceIsPinned) {
  Rng rng(123);
  const double want[] = {0x1.c5417e416cp+0,        -0x1.5ee7a48a2e6e4p-2,
                         0x1.b8e4b29faa8dp-1,      0x1.c40614a86cbbap-1,
                         0x1.792c61e4765e4p+0,     -0x1.c224309e4157cp-11,
                         -0x1.8b50eb1756e93p-1,    -0x1.296bc20bb0e0ap+0};
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(rng.normal(), want[i]) << "draw " << i;
  }
}

bool same_draw(const Rng::NormalDraw& x, const Rng::NormalDraw& y) {
  return x.u1 == y.u1 && x.u2 == y.u2 && x.second == y.second;
}

// normal_pair() advances the stream as two normal_draw() calls from a pair
// boundary do, and its cosine() and sine() are their draws.
TEST(Rng, NormalPairIsTwoNormalDraws) {
  for (const std::uint64_t seed : {0ULL, 7ULL, 123ULL, 0xdeadbeefULL}) {
    Rng by_pair(seed);
    Rng by_draw(seed);
    for (int i = 0; i < 100000; ++i) {
      const Rng::NormalPair pair = by_pair.normal_pair();
      ASSERT_TRUE(same_draw(pair.cosine(), by_draw.normal_draw()))
          << "seed " << seed << " pair " << i;
      ASSERT_TRUE(same_draw(pair.sine(), by_draw.normal_draw()))
          << "seed " << seed << " pair " << i;
    }
    EXPECT_EQ(by_pair.next_u64(), by_draw.next_u64()) << "seed " << seed;
  }
}

// A pair starts at a pair boundary, so normal_pair() refuses to run while
// the last draw's sine deviate is pending, and leaves it pending.
TEST(Rng, NormalPairThrowsWhileASineDeviateIsPending) {
  Rng rng(9);
  Rng twin(9);
  const Rng::NormalPair first = twin.normal_pair();
  EXPECT_TRUE(same_draw(rng.normal_draw(), first.cosine()));
  EXPECT_THROW(rng.normal_pair(), std::logic_error);
  EXPECT_TRUE(same_draw(rng.normal_draw(), first.sine()));
  EXPECT_TRUE(same_draw(rng.normal_pair().cosine(),
                        twin.normal_pair().cosine()));
  rng.normal();
  EXPECT_THROW(rng.normal_pair(), std::logic_error);
}

// mantissa_pair() is normal_pair() before its conversion: the stream
// advances alike, and m * 2^-53 gives the pair's (u1, u2).
TEST(Rng, MantissaPairIsNormalPairUnconverted) {
  for (const std::uint64_t seed : {0ULL, 7ULL, 123ULL, 0xdeadbeefULL}) {
    Rng by_mantissa(seed);
    Rng by_pair(seed);
    for (int i = 0; i < 100000; ++i) {
      const Rng::MantissaPair m = by_mantissa.mantissa_pair();
      const Rng::NormalPair pair = by_pair.normal_pair();
      ASSERT_GE(m.m1, 1u);
      ASSERT_LT(m.m1, 1ULL << 53);
      ASSERT_LT(m.m2, 1ULL << 53);
      ASSERT_EQ(static_cast<double>(m.m1) * 0x1.0p-53, pair.u1)
          << "seed " << seed << " pair " << i;
      ASSERT_EQ(static_cast<double>(m.m2) * 0x1.0p-53, pair.u2)
          << "seed " << seed << " pair " << i;
      ASSERT_TRUE(same_draw(m.pair().cosine(), pair.cosine()));
      ASSERT_TRUE(same_draw(m.pair().sine(), pair.sine()));
    }
    EXPECT_EQ(by_mantissa.next_u64(), by_pair.next_u64()) << "seed " << seed;
  }
  Rng rng(9);
  rng.normal_draw();
  EXPECT_THROW(rng.mantissa_pair(), std::logic_error);
  rng.normal_draw();
  EXPECT_NO_THROW(rng.mantissa_pair());
}

// A u1 of mantissa m exceeds a floor f exactly when m exceeds
// mantissa_floor(f), checked at the mantissas either side of f * 2^53 that
// a draw can hold (1 to 2^53 - 1): f = 0 and 2^-54 (below every u1), an f
// that is some u1 exactly, one that lies between two, 1 and NaN (above
// every u1, as !(u1 > f) holds for every draw).
TEST(Rng, MantissaFloorMatchesTheU1Floor) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double floor;
    std::uint64_t want;
  } cases[] = {{0.0, 0},
               {0x1.0p-54, 0},
               {0x1.0p-53, 1},
               {0.375, 3ULL << 50},
               {0.1, 900719925474099},
               {0x1.fffffffffffffp-1, (1ULL << 53) - 1},
               {1.0, 1ULL << 53},
               {nan, 1ULL << 53}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.floor);
    const std::uint64_t f = Rng::mantissa_floor(c.floor);
    EXPECT_EQ(f, c.want);
    for (const std::uint64_t m : {f - 1, f, f + 1}) {
      if (m < 1 || m >= (1ULL << 53)) continue;  // no draw holds m
      const double u1 = static_cast<double>(m) * 0x1.0p-53;
      EXPECT_EQ(m > f, u1 > c.floor) << "m = " << m;
    }
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_index(10))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIndexRejectsAnEmptyRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(13);
  const auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (std::size_t idx : perm) {
    ASSERT_LT(idx, 50u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.range(), 3.0);
}

TEST(Stats, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Percentiles) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_NEAR(percentile(v, 95), 95.0, 1e-9);
}

TEST(Stats, ProbitMatchesKnownQuantiles) {
  EXPECT_NEAR(probit(0.5), 0.0, 1e-9);
  EXPECT_NEAR(probit(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(probit(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(probit(0.841344746), 1.0, 1e-6);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 4
  h.add(-3.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(Interp, PiecewiseLinearInterpolatesAndClamps) {
  PiecewiseLinear f({{0.0, 0.0}, {1.0, 10.0}, {3.0, 10.0}});
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);   // clamp left
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);    // interpolate
  EXPECT_DOUBLE_EQ(f(2.0), 10.0);   // flat segment
  EXPECT_DOUBLE_EQ(f(9.0), 10.0);   // clamp right
}

TEST(Table, RendersAlignedColumns) {
  Table t({"metric", "value"});
  t.add_row({"energy", "3.14"});
  t.add_row({fmt(2866.0), fmt(1.0)});
  const std::string s = t.render();
  EXPECT_NE(s.find("energy"), std::string::npos);
  EXPECT_NE(s.find("2866"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
  // Three rules, the header and two rows, all of one width.
  std::vector<std::size_t> widths;
  for (std::size_t start = 0, end; start < s.size(); start = end + 1) {
    end = s.find('\n', start);
    widths.push_back(end - start);
  }
  EXPECT_EQ(widths, std::vector<std::size_t>(6, widths.front()));
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 3), "3.14");
  EXPECT_EQ(fmt_percent(0.206), "+20.6%");
  EXPECT_EQ(fmt_percent(-0.521), "-52.1%");
}

// ---------------------------------------------------------------------------
// Edge cases: empty samples, single elements, NaN propagation
// ---------------------------------------------------------------------------

TEST(Stats, EmptyInputYieldsZeroedResults) {
  const std::vector<double> none;
  const Summary s = summarize(none);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.range(), 0.0);
  EXPECT_DOUBLE_EQ(percentile(none, 50.0), 0.0);
}

TEST(Stats, SingleElementSample) {
  const std::vector<double> one = {3.25};
  const Summary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
  EXPECT_DOUBLE_EQ(s.mean, 3.25);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  // Every percentile of a single sample is that sample.
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 3.25);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 3.25);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 3.25);
}

TEST(Stats, NanPropagatesThroughMoments) {
  const std::vector<double> v = {1.0, std::nan(""), 3.0};
  EXPECT_TRUE(std::isnan(mean(v)));
  EXPECT_TRUE(std::isnan(stddev(v)));
  EXPECT_TRUE(std::isnan(summarize(v).mean));
}

TEST(Stats, PercentileClampsOutOfRangeQ) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Interp, LerpDegenerateSegmentReturnsMidpoint) {
  // x0 == x1 has no slope; the documented contract is the midpoint, not
  // a division by zero.
  EXPECT_DOUBLE_EQ(lerp(7.0, 2.0, 10.0, 2.0, 20.0), 15.0);
}

TEST(Interp, SinglePointPiecewiseLinearIsConstant) {
  PiecewiseLinear f({{1.0, 42.0}});
  EXPECT_DOUBLE_EQ(f(-100.0), 42.0);
  EXPECT_DOUBLE_EQ(f(1.0), 42.0);
  EXPECT_DOUBLE_EQ(f(100.0), 42.0);
}

TEST(Interp, NanXPropagatesThroughLerp) {
  EXPECT_TRUE(std::isnan(lerp(std::nan(""), 0.0, 0.0, 1.0, 1.0)));
}

TEST(ParseUnsigned, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(parse_unsigned("0", 10, 5), 0u);
  EXPECT_EQ(parse_unsigned("17", 10, INT_MAX), 17u);
  EXPECT_EQ(parse_unsigned("2147483647", 10, INT_MAX), 2147483647u);
  EXPECT_EQ(parse_unsigned("0xdeadbeef", 0, UINT64_MAX), 0xdeadbeefu);
  EXPECT_EQ(parse_unsigned("010", 0, UINT64_MAX), 8u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", 10, UINT64_MAX),
            UINT64_MAX);
}

TEST(ParseUnsigned, RejectsSignsJunkAndOverflow) {
  for (const char* text :
       {"", "abc", "-3", "+3", "-1", " 3", "12abc", "3 ", "0x", "1.5"}) {
    EXPECT_EQ(parse_unsigned(text, 0, UINT64_MAX), std::nullopt)
        << "'" << text << "' at base 0";
    EXPECT_EQ(parse_unsigned(text, 10, UINT64_MAX), std::nullopt)
        << "'" << text << "' at base 10";
  }
  EXPECT_EQ(parse_unsigned("0xff", 10, UINT64_MAX), std::nullopt);
  EXPECT_EQ(parse_unsigned("18446744073709551616", 10, UINT64_MAX),
            std::nullopt);
  EXPECT_EQ(parse_unsigned("2147483648", 10, INT_MAX), std::nullopt);
}

TEST(ParseDouble, AcceptsWholeFiniteNumbers) {
  EXPECT_EQ(parse_double("27"), 27.0);
  EXPECT_EQ(parse_double("-40.5"), -40.5);
  EXPECT_EQ(parse_double("+85"), 85.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
  EXPECT_EQ(parse_double("1e2"), 100.0);
  EXPECT_EQ(parse_double("0x1p3"), 8.0);
  EXPECT_EQ(parse_double("1.7976931348623157e308"), DBL_MAX);
  EXPECT_EQ(parse_double("1e-400"), 0.0);  // underflow reads as rounded
}

TEST(ParseDouble, RejectsJunkSpaceNanInfAndOverflow) {
  for (const char* text :
       {"", "abc", "85x", "8 5", " 85", "\t85", "85 ", "+", "-", ".", "1e",
        "0x", "1,5", "nan", "-nan", "NAN(1)", "inf", "-inf", "infinity",
        "1e999", "-1e999"}) {
    EXPECT_EQ(parse_double(text), std::nullopt) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace sfc::util
