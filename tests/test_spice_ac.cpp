// AC small-signal analysis tests: RC/RL transfer functions against
// closed-form expressions, MOSFET amplifier gain vs gm*R, and phasor
// bookkeeping (magnitude/phase/bandwidth helpers).
#include <gtest/gtest.h>

#include <cmath>

#include "devices/mosfet.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {
namespace {

TEST(Ac, RcLowPassMatchesClosedForm) {
  // R = 1k, C = 1n -> f_c = 1/(2 pi RC) ~ 159.2 kHz.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  auto& vin = ckt.add<VSource>("VIN", in, kGround, 0.0);
  vin.set_ac_magnitude(1.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-9);

  Engine engine(ckt, 27.0);
  const auto freqs = log_frequency_grid(1e3, 1e8, 20);
  const AcResult res = engine.ac(freqs);
  ASSERT_TRUE(res.converged);

  const double fc = 1.0 / (2.0 * M_PI * 1e3 * 1e-9);
  for (std::size_t i = 0; i < res.num_points(); ++i) {
    const double f = res.frequencies()[i];
    const double expected = 1.0 / std::sqrt(1.0 + (f / fc) * (f / fc));
    EXPECT_NEAR(res.magnitude("out", i), expected, expected * 0.01 + 1e-6)
        << "f=" << f;
    const double expected_phase = -std::atan(f / fc) * 180.0 / M_PI;
    EXPECT_NEAR(res.phase_deg("out", i), expected_phase, 1.0) << "f=" << f;
  }
  EXPECT_NEAR(res.bandwidth_3db("out"), fc, fc * 0.05);
}

TEST(Ac, RcHighPass) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  auto& vin = ckt.add<VSource>("VIN", in, kGround, 0.0);
  vin.set_ac_magnitude(1.0);
  ckt.add<Capacitor>("C1", in, out, 1e-9);
  ckt.add<Resistor>("R1", out, kGround, 1e3);

  Engine engine(ckt, 27.0);
  const AcResult res = engine.ac({1e3, 159155.0, 1e8});
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.magnitude("out", 0), 0.05);              // blocks DC-ish
  EXPECT_NEAR(res.magnitude("out", 1), 1.0 / std::sqrt(2.0), 0.01);
  EXPECT_NEAR(res.magnitude("out", 2), 1.0, 0.01);       // passes HF
}

TEST(Ac, QuietSourceGivesZeroResponse) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VSource>("VIN", in, kGround, 1.0);  // DC only, no AC excitation
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-12);
  Engine engine(ckt, 27.0);
  const AcResult res = engine.ac({1e6});
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.magnitude("out", 0), 1e-12);
}

TEST(Ac, CommonSourceGainTracksGmTimesRd) {
  // NMOS common-source stage biased in strong inversion; low-frequency
  // gain must equal gm*Rd (with gds correction), and the output pole
  // 1/(2 pi Rd CL) must appear.
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("g");
  const auto out = ckt.node("out");
  ckt.add<VSource>("VDD", vdd, kGround, 1.2);
  auto& vg = ckt.add<VSource>("VG", gate, kGround, 0.6);
  vg.set_ac_magnitude(1.0);
  const double rd = 1e5;
  ckt.add<Resistor>("RD", vdd, out, rd);
  const auto params = devices::MosfetParams::finfet14_nmos(8.0);
  ckt.add<devices::Mosfet>("M1", out, gate, kGround, params);
  const double cl = 10e-15;
  ckt.add<Capacitor>("CL", out, kGround, cl);

  Engine engine(ckt, 27.0);
  const AcResult res = engine.ac({1e3, 1e12});
  ASSERT_TRUE(res.converged);

  // Analytic gm/gds at the solved bias.
  const double v_out_dc = res.op.voltage("out");
  const auto ev = devices::evaluate_mosfet(params, 0.6, v_out_dc, 0.0, 27.0);
  const double expected_gain = ev.gm_g / (1.0 / rd + ev.gm_d);
  EXPECT_NEAR(res.magnitude("out", 0), expected_gain,
              expected_gain * 0.02);
  // Far beyond the pole (f >> 1/(2 pi Rd CL) ~ 160 MHz) the gain must
  // have collapsed by orders of magnitude.
  EXPECT_LT(res.magnitude("out", 1), expected_gain * 0.05);
}

TEST(Ac, LogFrequencyGrid) {
  const auto grid = log_frequency_grid(1e3, 1e6, 10);
  EXPECT_NEAR(grid.front(), 1e3, 1e-9);
  EXPECT_NEAR(grid.back(), 1e6, 1.0);
  EXPECT_EQ(grid.size(), 31u);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

TEST(Ac, UnknownSignalThrows) {
  Circuit ckt;
  const auto in = ckt.node("in");
  auto& vin = ckt.add<VSource>("VIN", in, kGround, 0.0);
  vin.set_ac_magnitude(1.0);
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  Engine engine(ckt, 27.0);
  const AcResult res = engine.ac({1e3});
  ASSERT_TRUE(res.converged);
  EXPECT_THROW(res.magnitude("nope", 0), std::out_of_range);
}

}  // namespace
}  // namespace sfc::spice
