// Stimulus waveform tests: PULSE/PWL/SIN evaluation and breakpoint
// generation.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "spice/waveform.hpp"

namespace sfc::spice {
namespace {

TEST(Waveform, DcIsConstant) {
  const Waveform w = Waveform::dc(0.35);
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.35);
  EXPECT_DOUBLE_EQ(w.at(1.0), 0.35);
  std::vector<double> bp;
  w.collect_breakpoints(1.0, bp);
  EXPECT_TRUE(bp.empty());
}

TEST(Waveform, PulseShape) {
  // 0 -> 1V, delay 10ns, rise 2ns, width 5ns, fall 3ns, single shot.
  const Waveform w = Waveform::pulse(0.0, 1.0, 10e-9, 2e-9, 3e-9, 5e-9, 0.0, 1);
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.at(9e-9), 0.0);
  EXPECT_NEAR(w.at(11e-9), 0.5, 1e-12);    // mid-rise
  EXPECT_DOUBLE_EQ(w.at(13e-9), 1.0);      // plateau
  EXPECT_DOUBLE_EQ(w.at(16.9e-9), 1.0);    // end of plateau
  EXPECT_NEAR(w.at(18.5e-9), 0.5, 1e-12);  // mid-fall
  EXPECT_DOUBLE_EQ(w.at(25e-9), 0.0);
}

TEST(Waveform, PulsePeriodicRepeats) {
  const Waveform w =
      Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9, -1);
  EXPECT_DOUBLE_EQ(w.at(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.at(12e-9), 1.0);   // second cycle
  EXPECT_DOUBLE_EQ(w.at(108e-9), 0.0);  // between pulses
  EXPECT_DOUBLE_EQ(w.at(102e-9), 1.0);  // 11th cycle
}

TEST(Waveform, PulseCycleLimit) {
  const Waveform w =
      Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9, 2);
  EXPECT_DOUBLE_EQ(w.at(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.at(12e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.at(22e-9), 0.0);  // third cycle suppressed
}

TEST(Waveform, PulseBreakpointsCoverCorners) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 10e-9, 2e-9, 3e-9, 5e-9, 0.0, 1);
  std::vector<double> bp;
  w.collect_breakpoints(100e-9, bp);
  // delay, end of rise, end of width, end of fall.
  ASSERT_EQ(bp.size(), 4u);
  EXPECT_NEAR(bp[0], 10e-9, 1e-15);
  EXPECT_NEAR(bp[1], 12e-9, 1e-15);
  EXPECT_NEAR(bp[2], 17e-9, 1e-15);
  EXPECT_NEAR(bp[3], 20e-9, 1e-15);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1e-9, 2.0}, {3e-9, 1.0}});
  EXPECT_DOUBLE_EQ(w.at(0.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.at(2e-9), 1.5);
  EXPECT_DOUBLE_EQ(w.at(10e-9), 1.0);  // clamp right
  std::vector<double> bp;
  w.collect_breakpoints(10e-9, bp);
  EXPECT_EQ(bp.size(), 2u);  // interior points only (t=0 excluded)
}

TEST(Waveform, SineOffsetAmplitude) {
  const Waveform w = Waveform::sine(1.0, 0.5, 1e6);
  EXPECT_DOUBLE_EQ(w.at(0.0), 1.0);
  EXPECT_NEAR(w.at(0.25e-6), 1.5, 1e-9);   // quarter period
  EXPECT_NEAR(w.at(0.75e-6), 0.5, 1e-9);
}

TEST(Waveform, SineDelayHoldsOffset) {
  const Waveform w = Waveform::sine(2.0, 1.0, 1e6, /*delay=*/1e-6);
  EXPECT_DOUBLE_EQ(w.at(0.5e-6), 2.0);
  EXPECT_NEAR(w.at(1.25e-6), 3.0, 1e-9);
}

TEST(Waveform, InitialValueForDcOp) {
  EXPECT_DOUBLE_EQ(Waveform::dc(1.2).initial(), 1.2);
  EXPECT_DOUBLE_EQ(
      Waveform::pulse(0.2, 1.0, 5e-9, 1e-9, 1e-9, 2e-9, 0.0, 1).initial(),
      0.2);
}

TEST(Waveform, PwlRejectsNoPointsAndUnsortedTimes) {
  EXPECT_THROW(Waveform::pwl({}), std::invalid_argument);
  EXPECT_THROW(Waveform::pwl({{1e-9, 0.0}, {0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Waveform::pwl({{0.0, 0.0}, {0.0, 1.0}}), std::invalid_argument);
  EXPECT_NO_THROW(Waveform::pwl({{0.0, 0.0}}));
}

TEST(Waveform, PulseRejectsImpossibleTiming) {
  // Negative rise, fall or width.
  EXPECT_THROW(Waveform::pulse(0, 1, 0, -1e-9, 1e-9, 2e-9, 10e-9),
               std::invalid_argument);
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 1e-9, -1e-9, 2e-9, 10e-9),
               std::invalid_argument);
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, -2e-9, 10e-9),
               std::invalid_argument);
  // A period shorter than one pulse (rise + width + fall = 7 ns).
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 5e-9, 2e-9),
               std::invalid_argument);
  // An exact fit, and a period <= 0 (one pulse), are valid.
  EXPECT_NO_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 5e-9, 7e-9));
  EXPECT_NO_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 5e-9, 0.0));
  EXPECT_NO_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 5e-9, -1.0));
}

}  // namespace
}  // namespace sfc::spice
