// Transient engine tests: RC charging against the analytic solution,
// integration-method accuracy, breakpoint alignment on pulse edges, switch
// dynamics, and source energy accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/engine.hpp"
#include "spice/primitives.hpp"

namespace sfc::spice {
namespace {

Circuit make_rc(double r, double c, double v, VSource** src = nullptr) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  auto& v1 = ckt.add<VSource>("V1", in, kGround, v);
  ckt.add<Resistor>("R1", in, out, r);
  ckt.add<Capacitor>("C1", out, kGround, c, /*ic=*/0.0);
  if (src) *src = &v1;
  return ckt;
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // tau = 1us; simulate 3 tau.
  Circuit ckt = make_rc(1e3, 1e-9, 1.0);
  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 1e-8;
  const TransientResult tr = engine.transient(3e-6, opts);
  ASSERT_TRUE(tr.converged);
  for (double t : {0.5e-6, 1e-6, 2e-6, 3e-6}) {
    const double expected = 1.0 - std::exp(-t / 1e-6);
    EXPECT_NEAR(tr.at("out", t), expected, 5e-3) << "t=" << t;
  }
}

TEST(Transient, TrapezoidalBeatsBackwardEulerOnRc) {
  auto run = [](IntegrationMethod method) {
    Circuit ckt = make_rc(1e3, 1e-9, 1.0);
    Engine engine(ckt, 27.0);
    TransientOptions opts;
    opts.dt = 5e-8;  // coarse on purpose
    opts.method = method;
    const TransientResult tr = engine.transient(1e-6, opts);
    EXPECT_TRUE(tr.converged);
    const double expected = 1.0 - std::exp(-1.0);
    return std::fabs(tr.at("out", 1e-6) - expected);
  };
  EXPECT_LT(run(IntegrationMethod::kTrapezoidal),
            run(IntegrationMethod::kBackwardEuler));
}

TEST(Transient, CapacitorInitialConditionHonored) {
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add<Resistor>("R1", out, kGround, 1e6);
  ckt.add<Capacitor>("C1", out, kGround, 1e-12, /*ic=*/2.0);
  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 1e-8;
  const TransientResult tr = engine.transient(1e-6, opts);
  ASSERT_TRUE(tr.converged);
  // Discharges from the IC with tau = 1us (the DC op says 0V, but the IC
  // overrides the starting charge).
  EXPECT_NEAR(tr.at("out", 1e-6), 2.0 * std::exp(-1.0), 0.02);
}

TEST(Transient, PulseEdgesAreCaptured) {
  Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<VSource>(
      "V1", in, kGround,
      Waveform::pulse(0.0, 1.0, 10e-9, 1e-9, 1e-9, 20e-9, 0.0, 1));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 7e-9;  // deliberately incommensurate with the edges
  const TransientResult tr = engine.transient(50e-9, opts);
  ASSERT_TRUE(tr.converged);
  EXPECT_NEAR(tr.at("in", 5e-9), 0.0, 1e-9);
  EXPECT_NEAR(tr.at("in", 11e-9), 1.0, 1e-9);
  EXPECT_NEAR(tr.at("in", 30e-9), 1.0, 1e-9);
  EXPECT_NEAR(tr.at("in", 40e-9), 0.0, 1e-9);
}

TEST(Transient, SourceEnergyMatchesCapacitorEnergyPlusLoss) {
  // Charging a cap through a resistor from an ideal source: the source
  // delivers C*V^2, half stored, half dissipated.
  const double c = 1e-9, v = 2.0;
  Circuit ckt = make_rc(1e3, c, v);
  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 1e-8;
  const TransientResult tr = engine.transient(10e-6, opts);  // 10 tau
  ASSERT_TRUE(tr.converged);
  const double delivered = tr.total_source_energy();
  EXPECT_NEAR(delivered, c * v * v, c * v * v * 0.02);
}

TEST(Transient, SwitchConnectsMidRun) {
  // Cap charged to 1V shares onto an equal cap through the EN switch.
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto en = ckt.node("en");
  ckt.add<Capacitor>("CA", a, kGround, 1e-12, /*ic=*/1.0);
  ckt.add<Capacitor>("CB", b, kGround, 1e-12, /*ic=*/0.0);
  ckt.add<VSource>(
      "VEN", en, kGround,
      Waveform::pulse(0.0, 1.2, 5e-9, 0.1e-9, 0.1e-9, 100e-9, 0.0, 1));
  VSwitch::Params sw;
  sw.r_on = 1e3;
  sw.r_off = 1e13;
  ckt.add<VSwitch>("S1", a, b, en, sw);

  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 5e-11;
  const TransientResult tr = engine.transient(60e-9, opts);
  ASSERT_TRUE(tr.converged);
  // Before EN: no sharing.
  EXPECT_NEAR(tr.at("b", 4e-9), 0.0, 1e-3);
  // After: charge shared equally -> 0.5V each (RC share tau = 1ns).
  EXPECT_NEAR(tr.final_value("a"), 0.5, 0.01);
  EXPECT_NEAR(tr.final_value("b"), 0.5, 0.01);
}

TEST(Transient, RecordsBranchCurrents) {
  Circuit ckt = make_rc(1e3, 1e-9, 1.0);
  Engine engine(ckt, 27.0);
  TransientOptions opts;
  opts.dt = 1e-8;
  const TransientResult tr = engine.transient(1e-6, opts);
  ASSERT_TRUE(tr.converged);
  ASSERT_TRUE(tr.has_signal("I(V1)"));
  // Initial inrush ~ V/R = 1mA (negative by MNA convention).
  EXPECT_NEAR(tr.value("I(V1)", 1), -1e-3, 1e-4);
}

TEST(TransientResult, InterpolationAndErrors) {
  TransientResult tr;
  tr.set_signal_names({"x"});
  tr.append_sample(0.0, {0.0});
  tr.append_sample(1.0, {10.0});
  EXPECT_DOUBLE_EQ(tr.at("x", 0.5), 5.0);
  EXPECT_DOUBLE_EQ(tr.at("x", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(tr.at("x", 2.0), 10.0);
  EXPECT_THROW(tr.at("nope", 0.5), std::out_of_range);
}

}  // namespace
}  // namespace sfc::spice
