// DC operating-point tests: Kirchhoff sanity on canonical linear circuits,
// nonlinear diode bias points, controlled sources, and gmin-stepping
// robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "devices/diode.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"
#include "spice/sweep.hpp"

namespace sfc::spice {
namespace {

TEST(DcOp, VoltageDivider) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<VSource>("V1", in, kGround, 10.0);
  ckt.add<Resistor>("R1", in, mid, 1000.0);
  ckt.add<Resistor>("R2", mid, kGround, 3000.0);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  // gmin (1e-12 S per node) makes the solution exact only to ~1e-8.
  EXPECT_NEAR(op.voltage("mid"), 7.5, 1e-7);
  // Branch current through the source: 10V over 4k = 2.5mA, flowing out of
  // the + terminal (negative in MNA convention).
  EXPECT_NEAR(op.current("V1"), -2.5e-3, 1e-10);
}

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add<ISource>("I1", kGround, out, 1e-3);
  ckt.add<Resistor>("R1", out, kGround, 2000.0);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.voltage("out"), 2.0, 1e-7);
}

TEST(DcOp, SeriesSourcesSuperpose) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add<VSource>("V1", a, kGround, 3.0);
  ckt.add<VSource>("V2", b, a, 2.0);  // stacked
  ckt.add<Resistor>("RL", b, kGround, 1000.0);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.voltage("b"), 5.0, 1e-9);
}

TEST(DcOp, CapacitorIsOpenAtDc) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VSource>("V1", in, kGround, 5.0);
  ckt.add<Resistor>("R1", in, out, 1000.0);
  ckt.add<Capacitor>("C1", out, kGround, 1e-9);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  // No DC path to ground through the cap: the node floats to the source
  // level through R1 (gmin gives a negligible drop).
  EXPECT_NEAR(op.voltage("out"), 5.0, 1e-6);
}

TEST(DcOp, DiodeForwardDropNearIdeal) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VSource>("V1", in, kGround, 5.0);
  ckt.add<Resistor>("R1", in, out, 10000.0);
  ckt.add<devices::Diode>("D1", out, kGround);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  const double vd = op.voltage("out");
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  // KCL at the diode node: (5 - vd)/10k equals the diode current.
  devices::Diode probe("probe", 0, 1);
  EXPECT_NEAR((5.0 - vd) / 1e4, probe.current(vd, 27.0),
              (5.0 - vd) / 1e4 * 0.01);
}

TEST(DcOp, DiodeCurrentIncreasesWithTemperature) {
  auto bias_current = [](double temp_c) {
    Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add<VSource>("V1", in, kGround, 2.0);
    ckt.add<Resistor>("R1", in, out, 100000.0);
    ckt.add<devices::Diode>("D1", out, kGround);
    Engine engine(ckt, temp_c);
    const DcResult op = engine.dc_operating_point();
    EXPECT_TRUE(op.converged);
    return (2.0 - op.voltage("out")) / 1e5;
  };
  EXPECT_GT(bias_current(85.0), bias_current(0.0));
}

TEST(DcOp, SwitchOnOffConductance) {
  VSwitch::Params params;
  params.r_on = 100.0;
  params.r_off = 1e12;
  params.v_threshold = 0.6;
  params.v_width = 0.05;

  for (const double ctrl_level : {0.0, 1.2}) {
    Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    const auto ctrl = ckt.node("ctrl");
    ckt.add<VSource>("V1", in, kGround, 1.0);
    ckt.add<VSource>("VC", ctrl, kGround, ctrl_level);
    ckt.add<VSwitch>("S1", in, out, ctrl, params);
    ckt.add<Resistor>("RL", out, kGround, 1000.0);

    Engine engine(ckt, 27.0);
    const DcResult op = engine.dc_operating_point();
    ASSERT_TRUE(op.converged);
    if (ctrl_level > 0.6) {
      EXPECT_NEAR(op.voltage("out"), 1000.0 / 1100.0, 1e-6);
    } else {
      EXPECT_LT(op.voltage("out"), 1e-6);
    }
  }
}

// A NaN source value makes the iterate NaN. Newton must not read a NaN
// update as a small one and report convergence on it.
TEST(DcOp, NanValueDoesNotConverge) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add<VSource>("V1", a, kGround, nan);
  ckt.add<Resistor>("R1", a, b, 1e3);
  ckt.add<Capacitor>("C1", b, kGround, 1e-12);
  Engine engine(ckt, 27.0);
  EXPECT_FALSE(engine.dc_operating_point().converged);
  TransientOptions topt;
  topt.dt = 1e-10;
  EXPECT_FALSE(engine.transient(1e-9, topt).converged);

  // A source that turns NaN after t = 0: the DC point converges, and the
  // first transient step must not.
  Circuit late;
  const auto c = late.node("c");
  const auto d = late.node("d");
  late.add<VSource>("V1", c, kGround, Waveform::pwl({{0.0, 0.0}, {1e-9, nan}}));
  late.add<Resistor>("R1", c, d, 1e3);
  late.add<Capacitor>("C1", d, kGround, 1e-12);
  Engine late_engine(late, 27.0);
  ASSERT_TRUE(late_engine.dc_operating_point().converged);
  EXPECT_FALSE(late_engine.transient(2e-9, topt).converged);
}

TEST(DcSweep, LinearResistorSweepIsLinear) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<VSource>("V1", in, kGround, 0.0);
  ckt.add<Resistor>("R1", in, mid, 1000.0);
  ckt.add<Resistor>("R2", mid, kGround, 1000.0);

  SweepSpec spec;
  spec.values = linspace_step(0.0, 2.0, 0.5);
  spec.apply = [](Circuit& c, double v) {
    static_cast<VSource*>(c.find("V1"))->set_dc(v);
  };
  const auto points = run_sweep(ckt, spec);
  ASSERT_EQ(points.size(), 5u);
  for (const auto& p : points) {
    ASSERT_TRUE(p.op.converged);
    EXPECT_NEAR(p.op.voltage("mid"), p.value / 2.0, 1e-9);
  }
}

TEST(DcSweep, ReturnsPointsThatFailToConverge) {
  // One Newton iteration can never confirm convergence, so every point
  // fails, and each is still returned with its value.
  Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<VSource>("V1", in, kGround, 1.0);
  ckt.add<Resistor>("R1", in, kGround, 1e3);

  SweepSpec spec;
  spec.values = {0.5, 1.0, 1.5};
  spec.apply = [](Circuit& c, double v) {
    static_cast<VSource*>(c.find("V1"))->set_dc(v);
  };
  spec.options.max_iterations = 1;
  const auto points = run_sweep(ckt, spec);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].value, spec.values[i]);
    EXPECT_FALSE(points[i].op.converged) << "point " << i;
  }
}

TEST(DcSweep, RejectsASpecWithoutApply) {
  Circuit ckt;
  ckt.add<Resistor>("R1", ckt.node("a"), kGround, 1e3);
  SweepSpec spec;
  spec.values = {0.0, 1.0};
  EXPECT_THROW(run_sweep(ckt, spec), std::invalid_argument);
}

TEST(Sweep, LinspaceHelpers) {
  const auto grid = linspace_step(0.0, 1.0, 0.25);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
}

TEST(Sweep, LinspaceStepSweepsDownWithANegativeStep) {
  // The endpoint is not repeated.
  EXPECT_EQ(linspace_step(1.0, 0.0, -0.25),
            (std::vector<double>{1.0, 0.75, 0.5, 0.25, 0.0}));
  EXPECT_EQ(linspace_step(0.5, 0.5, -0.1), (std::vector<double>{0.5}));
}

TEST(Sweep, LinspaceStepRejectsAZeroStep) {
  EXPECT_THROW(linspace_step(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(linspace_step(1.0, 1.0, -0.0), std::invalid_argument);
}

TEST(Sweep, LinspaceStepRejectsNonFiniteArguments) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(linspace_step(0.0, 1.0, inf), std::invalid_argument);
  EXPECT_THROW(linspace_step(0.0, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(linspace_step(-inf, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(linspace_step(0.0, nan, 0.1), std::invalid_argument);
}

TEST(Sweep, LinspaceStepRejectsAStepAwayFromTheEnd) {
  EXPECT_THROW(linspace_step(0.0, 1.0, -0.25), std::invalid_argument);
  EXPECT_THROW(linspace_step(1.0, 0.0, 0.25), std::invalid_argument);
}

// A device carries solver state and belongs to one Circuit; nothing
// copies it.
static_assert(!std::is_copy_constructible_v<Device> &&
              !std::is_copy_assignable_v<Device>);

TEST(Circuit, DuplicateDeviceNameRejected) {
  Circuit ckt;
  ckt.add<Resistor>("R1", ckt.node("a"), kGround, 100.0);
  EXPECT_THROW(ckt.add<Resistor>("R1", ckt.node("b"), kGround, 100.0),
               std::invalid_argument);
}

TEST(Circuit, GroundAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
  EXPECT_EQ(ckt.node_name(kGround), "0");
}

TEST(Circuit, SummaryListsDevices) {
  Circuit ckt;
  ckt.add<Resistor>("Rx", ckt.node("n1"), kGround, 42.0);
  const std::string s = ckt.summary();
  EXPECT_NE(s.find("Rx"), std::string::npos);
  EXPECT_NE(s.find("n1"), std::string::npos);
}

}  // namespace
}  // namespace sfc::spice
