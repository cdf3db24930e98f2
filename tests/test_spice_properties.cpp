// Property-based simulator tests on randomly generated linear networks:
// superposition, source scaling, reciprocity, power conservation, and
// AC/DC consistency at near-zero frequency. Each property is swept over
// many random circuits via TEST_P.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/engine.hpp"
#include "spice/primitives.hpp"
#include "util/rng.hpp"

namespace sfc::spice {
namespace {

/// A random connected resistor network with `num_nodes` nodes (plus
/// ground) built from a spanning chain + random chords.
struct RandomNetwork {
  Circuit circuit;
  std::vector<NodeId> nodes;
  int resistor_count = 0;

  explicit RandomNetwork(util::Rng& rng, std::size_t num_nodes = 6) {
    nodes.push_back(kGround);
    for (std::size_t i = 0; i < num_nodes; ++i) {
      nodes.push_back(circuit.node("n" + std::to_string(i)));
    }
    // Spanning chain keeps everything connected to ground.
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      add_resistor(rng, nodes[i - 1], nodes[i]);
    }
    // Random chords.
    for (int extra = 0; extra < 6; ++extra) {
      const auto a = nodes[rng.uniform_index(nodes.size())];
      const auto b = nodes[rng.uniform_index(nodes.size())];
      if (a == b) continue;
      add_resistor(rng, a, b);
    }
  }

  void add_resistor(util::Rng& rng, NodeId a, NodeId b) {
    circuit.add<Resistor>("R" + std::to_string(resistor_count++), a, b,
                          rng.uniform(100.0, 10000.0));
  }
};

class LinearProperties : public ::testing::TestWithParam<int> {};

TEST_P(LinearProperties, SuperpositionOfTwoSources) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 1);

  // Build the same topology three times (solo A, solo B, both), by
  // regenerating with the identical RNG stream.
  auto build = [&](double ia, double ib) {
    util::Rng local(static_cast<std::uint64_t>(GetParam()) * 977 + 1);
    auto net = std::make_unique<RandomNetwork>(local);
    net->circuit.add<ISource>("IA", kGround, net->nodes[1], ia);
    net->circuit.add<ISource>("IB", kGround, net->nodes.back(), ib);
    return net;
  };
  const double ia = rng.uniform(-2e-3, 2e-3);
  const double ib = rng.uniform(-2e-3, 2e-3);

  auto solve = [](Circuit& ckt) {
    Engine engine(ckt, 27.0);
    DcResult op = engine.dc_operating_point();
    EXPECT_TRUE(op.converged);
    return op;
  };

  auto net_a = build(ia, 0.0);
  auto net_b = build(0.0, ib);
  auto net_ab = build(ia, ib);
  const DcResult op_a = solve(net_a->circuit);
  const DcResult op_b = solve(net_b->circuit);
  const DcResult op_ab = solve(net_ab->circuit);

  for (const auto& [node, v_ab] : op_ab.voltages) {
    EXPECT_NEAR(v_ab, op_a.voltage(node) + op_b.voltage(node),
                1e-6 + std::fabs(v_ab) * 1e-6)
        << node;
  }
}

TEST_P(LinearProperties, SourceScalingIsLinear) {
  auto build = [&](double scale) {
    util::Rng local(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    auto net = std::make_unique<RandomNetwork>(local);
    net->circuit.add<VSource>("VS", net->nodes[1], kGround, 1.5 * scale);
    return net;
  };
  auto net1 = build(1.0);
  auto net3 = build(3.0);
  Engine e1(net1->circuit, 27.0), e3(net3->circuit, 27.0);
  const DcResult op1 = e1.dc_operating_point();
  const DcResult op3 = e3.dc_operating_point();
  ASSERT_TRUE(op1.converged && op3.converged);
  for (const auto& [node, v1] : op1.voltages) {
    EXPECT_NEAR(op3.voltage(node), 3.0 * v1, 1e-6 + std::fabs(v1) * 1e-5)
        << node;
  }
}

TEST_P(LinearProperties, PowerBalancesInResistorNetwork) {
  // Power delivered by the source equals the sum of I^2*R over resistors.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 3);
  RandomNetwork net(rng);
  net.circuit.add<VSource>("VS", net.nodes[1], kGround, 2.0);
  Engine engine(net.circuit, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);

  const double p_source = 2.0 * -op.current("VS");
  double p_resistors = 0.0;
  for (const auto& dev : net.circuit.devices()) {
    if (const auto* r = dynamic_cast<const Resistor*>(dev.get())) {
      const auto terms = r->terminals();
      auto v_of = [&](NodeId n) {
        return n == kGround ? 0.0
                            : op.voltage(net.circuit.node_name(n));
      };
      const double dv = v_of(terms[0]) - v_of(terms[1]);
      p_resistors += dv * dv / r->resistance();
    }
  }
  EXPECT_NEAR(p_source, p_resistors, p_source * 1e-6 + 1e-12);
}

TEST_P(LinearProperties, ReciprocityOfResistiveTwoPort) {
  // Inject 1 mA at node i, read node j; then swap. Transfer resistances
  // must match (reciprocity of passive networks).
  auto run = [&](std::size_t inject, std::size_t read) {
    util::Rng local(static_cast<std::uint64_t>(GetParam()) * 499 + 11);
    RandomNetwork net(local);
    net.circuit.add<ISource>("II", kGround, net.nodes[inject], 1e-3);
    Engine engine(net.circuit, 27.0);
    const DcResult op = engine.dc_operating_point();
    EXPECT_TRUE(op.converged);
    return op.voltage(net.circuit.node_name(net.nodes[read]));
  };
  const double v_ij = run(1, 4);
  const double v_ji = run(4, 1);
  EXPECT_NEAR(v_ij, v_ji, 1e-9 + std::fabs(v_ij) * 1e-6);
}

TEST_P(LinearProperties, AcAtNearZeroFrequencyMatchesDc) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 353 + 5);
  RandomNetwork net(rng);
  auto& src = net.circuit.add<VSource>("VS", net.nodes[1], kGround, 0.0);
  src.set_ac_magnitude(1.0);
  // Sprinkle capacitors: at ~0 Hz they must not matter.
  net.circuit.add<Capacitor>("C1", net.nodes[2], kGround, 1e-12);
  net.circuit.add<Capacitor>("C2", net.nodes.back(), kGround, 2e-12);

  Engine engine(net.circuit, 27.0);
  const AcResult ac = engine.ac({1e-3});
  ASSERT_TRUE(ac.converged);

  // Reference: DC with the source at 1 V.
  src.set_dc(1.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  for (std::size_t i = 1; i < net.nodes.size(); ++i) {
    const std::string name = net.circuit.node_name(net.nodes[i]);
    EXPECT_NEAR(ac.magnitude(name, 0), std::fabs(op.voltage(name)),
                1e-6 + std::fabs(op.voltage(name)) * 1e-6)
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, LinearProperties,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace sfc::spice
