// Preisach ferroelectric model tests: programming protocol, hysteresis,
// partial switching (pulse-width dependence), minor loops, and the
// temperature dependencies that drive the paper's Fig. 1 asymmetry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "fefet/preisach.hpp"

namespace sfc::fefet {
namespace {

TEST(Preisach, PristineDeviceIsHighVth) {
  PreisachModel fe;
  EXPECT_DOUBLE_EQ(fe.polarization(), -1.0);
  EXPECT_NEAR(fe.vth(27.0), fe.params().vth_high, 1e-12);
}

TEST(Preisach, PaperWriteProtocolReachesBothStates) {
  PreisachModel fe;
  fe.write_bit(true, 27.0);  // +4V / 115ns
  EXPECT_GT(fe.polarization(), 0.95);
  EXPECT_NEAR(fe.vth(27.0), fe.params().vth_low, 0.03);

  fe.write_bit(false, 27.0);  // -4V / 200ns
  EXPECT_LT(fe.polarization(), -0.95);
  EXPECT_NEAR(fe.vth(27.0), fe.params().vth_high, 0.03);
}

TEST(Preisach, WritesAreIdempotent) {
  PreisachModel fe;
  fe.write_bit(true, 27.0);
  const double p1 = fe.polarization();
  fe.write_bit(true, 27.0);
  EXPECT_NEAR(fe.polarization(), p1, 1e-3);
}

TEST(Preisach, ShortPulseSwitchesPartially) {
  // Pulse-width dependence (Merz law): 5 ns at +4 V must switch less than
  // the full 115 ns write.
  PreisachModel full, partial;
  full.apply_pulse(4.0, 115e-9, 27.0);
  partial.apply_pulse(4.0, 5e-9, 27.0);
  EXPECT_GT(full.polarization(), partial.polarization());
  EXPECT_GT(partial.polarization(), -1.0);  // something switched
}

TEST(Preisach, SubCoerciveVoltageDoesNotDisturb) {
  PreisachModel fe;
  fe.write_bit(true, 27.0);
  const double p = fe.polarization();
  // Read-level voltages (well below every domain's coercive voltage).
  for (int i = 0; i < 1000; ++i) {
    fe.apply_pulse(0.35, 10e-9, 27.0);
    fe.apply_pulse(-0.35, 10e-9, 27.0);
  }
  EXPECT_NEAR(fe.polarization(), p, 1e-9);
}

TEST(Preisach, QuasistaticHysteresisLoop) {
  PreisachModel fe;
  std::vector<double> up, down;
  for (double v = -5.0; v <= 5.0; v += 0.25) {
    fe.apply_quasistatic(v, 27.0);
    up.push_back(fe.polarization());
  }
  for (double v = 5.0; v >= -5.0; v -= 0.25) {
    fe.apply_quasistatic(v, 27.0);
    down.push_back(fe.polarization());
  }
  // Saturation at the extremes.
  EXPECT_NEAR(up.back(), 1.0, 1e-9);
  EXPECT_NEAR(down.back(), -1.0, 1e-9);
  // Hysteresis: at V = 0 (mid-sweep) the two branches must differ.
  const std::size_t mid = up.size() / 2;
  EXPECT_GT(std::fabs(up[mid] - down[down.size() / 2 - 0]), 0.5);
  // Monotone branches.
  for (std::size_t i = 1; i < up.size(); ++i) {
    EXPECT_GE(up[i], up[i - 1] - 1e-12);
    EXPECT_LE(down[i], down[i - 1] + 1e-12);
  }
}

TEST(Preisach, MinorLoopSitsInsideMajorLoop) {
  // Drive to +2.4V (mean coercive): only ~half the domains switch.
  PreisachModel fe;
  fe.apply_quasistatic(-5.0, 27.0);
  fe.apply_quasistatic(2.4, 27.0);
  const double p_minor = fe.polarization();
  EXPECT_GT(p_minor, -0.8);
  EXPECT_LT(p_minor, 0.8);
}

TEST(Preisach, MemoryWindowShrinksWithTemperature) {
  PreisachModel fe;
  EXPECT_LT(fe.memory_window(85.0), fe.memory_window(27.0));
  EXPECT_GT(fe.memory_window(0.0), fe.memory_window(27.0));
}

TEST(Preisach, HighVthStateMoreTemperatureSensitive) {
  // Fig. 1: temperature moves the high-VTH state more than the low-VTH
  // state (in the ferroelectric contribution).
  PreisachModel low, high;
  low.set_polarization(1.0);
  high.set_polarization(-1.0);
  const double d_low = std::fabs(low.vth(85.0) - low.vth(0.0));
  const double d_high = std::fabs(high.vth(85.0) - high.vth(0.0));
  EXPECT_GT(d_high, d_low * 0.99);  // equal magnitude from MW model
  // And they move in opposite directions (window shrink).
  EXPECT_GT(low.vth(85.0), low.vth(0.0));
  EXPECT_LT(high.vth(85.0), high.vth(0.0));
}

TEST(Preisach, CoerciveVoltageDropsWithTemperature) {
  PreisachModel fe;
  EXPECT_LT(fe.domain_vc(0, 85.0), fe.domain_vc(0, 27.0));
  EXPECT_GT(fe.domain_vc(0, 0.0), fe.domain_vc(0, 27.0));
}

TEST(Preisach, HotterWritesSwitchFaster) {
  // Lower coercive voltage at high temperature -> more switching for the
  // same marginal pulse.
  PreisachModel cold, hot;
  cold.apply_pulse(2.8, 20e-9, 0.0);
  hot.apply_pulse(2.8, 20e-9, 85.0);
  EXPECT_GT(hot.polarization(), cold.polarization());
}

TEST(Preisach, SetPolarizationClamps) {
  PreisachModel fe;
  fe.set_polarization(5.0);
  EXPECT_DOUBLE_EQ(fe.polarization(), 1.0);
  fe.set_polarization(-5.0);
  EXPECT_DOUBLE_EQ(fe.polarization(), -1.0);
  fe.set_polarization(0.25);
  EXPECT_NEAR(fe.polarization(), 0.25, 1e-12);
}

TEST(Preisach, DomainQuantilesAreDeterministicAndSorted) {
  PreisachModel a, b;
  for (int i = 0; i < a.num_domains(); ++i) {
    EXPECT_DOUBLE_EQ(a.domain_vc(i, 27.0), b.domain_vc(i, 27.0));
    if (i > 0) EXPECT_GE(a.domain_vc(i, 27.0), a.domain_vc(i - 1, 27.0));
  }
}

/// What polarization() must equal bit for bit: the domains summed in
/// index order, over their count.
double fresh_mean(const PreisachModel& fe) {
  double sum = 0.0;
  for (int i = 0; i < fe.num_domains(); ++i) sum += fe.domain_state(i);
  return sum / static_cast<double>(fe.num_domains());
}

TEST(Preisach, CachedPolarizationIsTheFreshMeanAfterEveryMutator) {
  PreisachModel fe;
  const auto expect_fresh = [&fe](const char* after) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fe.polarization()),
              std::bit_cast<std::uint64_t>(fresh_mean(fe)))
        << "after " << after;
  };
  expect_fresh("the constructor");
  // Partial switching leaves domains between -1 and +1, so the mean
  // rounds like an arbitrary sum.
  fe.apply_pulse(3.0, 20e-9, 27.0);
  expect_fresh("apply_pulse");
  fe.apply_quasistatic(-2.5, 27.0);
  expect_fresh("apply_quasistatic");
  fe.set_polarization(0.3);
  expect_fresh("set_polarization");
  fe.write_bit(true, 85.0);
  expect_fresh("write_bit");
  fe.age(3.0e8, 85.0);
  expect_fresh("age");
  fe.read_disturb(-1.5, 10e-9, 1000000, 27.0);
  expect_fresh("read_disturb");
  EXPECT_GT(fe.polarization(), -1.0);
  EXPECT_LT(fe.polarization(), 1.0);
}

TEST(Preisach, InvalidParamsRejected) {
  PreisachParams p;
  p.num_domains = 0;
  EXPECT_THROW(PreisachModel{p}, std::invalid_argument);
  PreisachParams q;
  q.vth_high = q.vth_low;
  EXPECT_THROW(PreisachModel{q}, std::invalid_argument);
}

}  // namespace
}  // namespace sfc::fefet
