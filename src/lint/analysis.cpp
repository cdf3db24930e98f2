#include "lint/analysis.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "spice/primitives.hpp"

namespace sfc::lint {

using spice::Device;
using spice::NodeId;

// --------------------------------------------------------------- incidence

NodeIncidence NodeIncidence::build(const spice::Circuit& circuit) {
  NodeIncidence inc;
  inc.touches.resize(circuit.num_nodes());
  for (const auto& dev : circuit.devices()) {
    const auto terms = dev->terminals();
    for (std::size_t k = 0; k < terms.size(); ++k) {
      if (terms[k] == spice::kGround) continue;
      inc.touches[static_cast<std::size_t>(terms[k])].push_back(
          Touch{dev.get(), k});
    }
  }
  return inc;
}

// -------------------------------------------------------------------- dsu

Dsu::Dsu(std::size_t slots) : parent_(slots) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t Dsu::find(std::size_t i) {
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];
    i = parent_[i];
  }
  return i;
}

void Dsu::unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

std::size_t node_slot(NodeId n, std::size_t num_nodes) {
  return n == spice::kGround ? num_nodes : static_cast<std::size_t>(n);
}

// ------------------------------------------------------- conduction graph

std::vector<std::pair<NodeId, NodeId>> conduction_edges(const Device& dev,
                                                        bool caps_conduct) {
  const auto t = dev.terminals();
  using Pair = std::pair<NodeId, NodeId>;
  if (dynamic_cast<const spice::Resistor*>(&dev) ||
      dynamic_cast<const spice::VSource*>(&dev)) {
    return {Pair{t[0], t[1]}};
  }
  if (dynamic_cast<const spice::Capacitor*>(&dev)) {
    if (caps_conduct) return {Pair{t[0], t[1]}};
    return {};
  }
  if (dynamic_cast<const spice::ISource*>(&dev)) return {};
  if (dynamic_cast<const spice::VSwitch*>(&dev)) {
    return {Pair{t[0], t[1]}};  // finite r_off: always a resistive path
  }
  if (dynamic_cast<const devices::Diode*>(&dev)) {
    return {Pair{t[0], t[1]}};
  }
  if (dynamic_cast<const devices::Mosfet*>(&dev)) {
    // Drain-source channel conducts; the gate is an open circuit (a
    // floating gate is exactly what the reachability rule must catch).
    return {Pair{t[0], t[2]}};
  }
  // Unknown device type: assume every terminal pair conducts. Being
  // permissive here keeps the rule free of false positives on devices the
  // analyzer has never heard of.
  std::vector<Pair> all;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) all.emplace_back(t[i], t[i + 1]);
  return all;
}

ConductionComponents ConductionComponents::build(const spice::Circuit& circuit,
                                                 bool caps_conduct) {
  ConductionComponents out;
  out.num_nodes = circuit.num_nodes();
  Dsu dsu(out.num_nodes + 1);
  for (const auto& dev : circuit.devices()) {
    for (const auto& [a, b] : conduction_edges(*dev, caps_conduct)) {
      dsu.unite(node_slot(a, out.num_nodes), node_slot(b, out.num_nodes));
    }
  }
  out.root.resize(out.num_nodes + 1);
  for (std::size_t i = 0; i <= out.num_nodes; ++i) out.root[i] = dsu.find(i);
  return out;
}

// ------------------------------------------------------------ dc topology

namespace {

/// DC topology for the interval engine: passive adjacency (with
/// conductance bounds where the element is linear), voltage pins, and the
/// taint seeds that mark where the maximum principle stops holding.
struct DcTopology {
  /// A passive two-terminal branch incident to a node. Passive means
  /// sign(i) == sign(delta v): resistors, switches, diodes, MOSFET
  /// channels. `g` bounds the branch conductance when the element is
  /// linear enough to have one (R, S); nonlinear passive branches keep
  /// has_g == false and participate only in hull relaxation.
  struct Edge {
    NodeId other = spice::kGround;
    Interval g;  ///< conductance bounds [S]; meaningful iff has_g
    bool has_g = false;
  };

  /// A voltage-source branch v(a) - v(b) = value. The value depends on
  /// the interval mode (DC start value vs whole-waveform range).
  struct Pin {
    NodeId a = spice::kGround;
    NodeId b = spice::kGround;
    Interval dc_value;        ///< t=0 value (+ .dc sweep hull)
    Interval envelope_value;  ///< waveform range (+ sweep hull)
  };

  /// Per non-ground node: incident passive edges. Capacitors are not
  /// edges: the envelope engine anchors a grounded one's node instead.
  std::vector<std::vector<Edge>> edges;
  std::vector<Pin> pins;

  /// Nodes whose island must be widened to the universe in DC mode:
  /// current-source terminals and unknown device types. The maximum
  /// principle assumes every non-pin injection is passive; these break it.
  std::vector<NodeId> dc_taint_seeds;
  /// Additional seeds for the transient envelope: capacitors not
  /// referenced to ground.
  std::vector<NodeId> tran_taint_seeds;

  static DcTopology build(const spice::Circuit& circuit,
                          const spice::NetlistDeck* deck);
};

DcTopology DcTopology::build(const spice::Circuit& circuit,
                             const spice::NetlistDeck* deck) {
  DcTopology topo;
  const std::size_t n = circuit.num_nodes();
  topo.edges.resize(n);

  const auto add_edge = [&](NodeId a, NodeId b, const Interval& g,
                            bool has_g) {
    Edge e;
    e.g = g;
    e.has_g = has_g;
    if (a != spice::kGround) {
      e.other = b;
      topo.edges[static_cast<std::size_t>(a)].push_back(e);
    }
    if (b != spice::kGround) {
      e.other = a;
      topo.edges[static_cast<std::size_t>(b)].push_back(e);
    }
  };
  const auto taint_dc = [&](NodeId a) { topo.dc_taint_seeds.push_back(a); };

  // Hull of every .dc sweep targeting this source (the operating point is
  // recomputed at each sweep value, so the static bound must cover all).
  const auto sweep_hull = [&](const Device* dev) {
    Interval sweep = Interval::empty();
    if (!deck) return sweep;
    for (const spice::DcSweepDirective& dc : deck->dc) {
      if (circuit.find(dc.source) != dev) continue;
      sweep |= Interval(std::min(dc.start, dc.stop),
                        std::max(dc.start, dc.stop));
    }
    return sweep;
  };

  // Element values are positive here: the device constructors reject
  // anything else, so every R, switch and channel is a passive branch.
  for (const auto& dev : circuit.devices()) {
    const auto t = dev->terminals();
    if (const auto* r = dynamic_cast<const spice::Resistor*>(dev.get())) {
      add_edge(t[0], t[1], Interval(1.0) / Interval(r->resistance()), true);
    } else if (dynamic_cast<const spice::Capacitor*>(dev.get()) != nullptr) {
      if (t[0] != spice::kGround && t[1] != spice::kGround) {
        // A floating capacitor couples two node histories; the transient
        // envelope cannot anchor either side. DC is unaffected (open).
        topo.tran_taint_seeds.push_back(t[0]);
        topo.tran_taint_seeds.push_back(t[1]);
      }
    } else if (const auto* v =
                   dynamic_cast<const spice::VSource*>(dev.get())) {
      Pin pin;
      pin.a = t[0];
      pin.b = t[1];
      pin.dc_value = Interval(v->waveform().initial());
      const auto [wlo, whi] = v->waveform().range();
      pin.envelope_value = Interval(wlo, whi);
      const Interval sweep = sweep_hull(dev.get());
      pin.dc_value |= sweep;
      pin.envelope_value |= sweep;
      topo.pins.push_back(pin);
    } else if (dynamic_cast<const spice::ISource*>(dev.get()) != nullptr) {
      // Injected current turns into unbounded voltage through unknown
      // impedance; everything conductively reachable is off-limits.
      taint_dc(t[0]);
      taint_dc(t[1]);
    } else if (const auto* s =
                   dynamic_cast<const spice::VSwitch*>(dev.get())) {
      const auto& p = s->params();
      const Interval g = Interval::hull(Interval(1.0) / Interval(p.r_on),
                                        Interval(1.0) / Interval(p.r_off));
      add_edge(t[0], t[1], g, true);
    } else if (dynamic_cast<const devices::Diode*>(dev.get()) != nullptr) {
      add_edge(t[0], t[1], Interval(), false);
    } else if (dynamic_cast<const devices::Mosfet*>(dev.get()) != nullptr) {
      add_edge(t[0], t[2], Interval(), false);
    } else {
      // Unknown device: no passivity assumption is safe.
      for (NodeId a : t) taint_dc(a);
    }
  }
  return topo;
}

// --------------------------------------------------------- interval engine

/// One fixpoint run of the abstract interpreter. `envelope` selects the
/// transient mode: capacitors conduct, VSource pins use their
/// whole-waveform range, and grounded capacitors anchor their node to the
/// initial condition (`dc_vals` when no explicit ic was given).
std::vector<Interval> run_engine(const spice::Circuit& circuit,
                                 const DcTopology& topo, double gmin_max,
                                 bool envelope,
                                 const std::vector<Interval>* dc_vals) {
  const std::size_t n = circuit.num_nodes();
  std::vector<Interval> vals(n, Interval::universe());

  // Islands: conduction connectivity EXCLUDING ground. Ground is the
  // Dirichlet boundary of the maximum principle — its potential is fixed,
  // so current injected on one side cannot disturb nodes whose only
  // connection is through it. Taint floods per island (voltage-defined
  // branches conduct the disturbance, hence conduction_edges, not just
  // the resistive topo.edges), and the hull pass below runs per island.
  Dsu islands(n);
  for (const auto& dev : circuit.devices()) {
    for (const auto& [a, b] : conduction_edges(*dev, envelope)) {
      if (a == spice::kGround || b == spice::kGround) continue;
      islands.unite(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    }
  }
  std::vector<std::size_t> island_root(n);
  for (std::size_t i = 0; i < n; ++i) island_root[i] = islands.find(i);

  // Taint: a seed poisons its whole island — current it injects can raise
  // any node conductively reachable without crossing ground. A seed AT
  // ground is absorbed by the reference and poisons nothing.
  std::unordered_set<std::size_t> bad_roots;
  const auto seed = [&](NodeId s) {
    if (s == spice::kGround) return;
    bad_roots.insert(island_root[static_cast<std::size_t>(s)]);
  };
  for (NodeId s : topo.dc_taint_seeds) seed(s);
  if (envelope) {
    for (NodeId s : topo.tran_taint_seeds) seed(s);
  }
  std::vector<char> tainted(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (bad_roots.count(island_root[i]) != 0) tainted[i] = 1;
  }

  // Pinned nodes: terminals of voltage-source branches. They are
  // boundary nodes of the maximum principle — never relaxed from
  // neighbors, only narrowed by pin equations and the component hull.
  std::vector<char> pinned(n, 0);
  for (const DcTopology::Pin& pin : topo.pins) {
    if (pin.a != spice::kGround) pinned[static_cast<std::size_t>(pin.a)] = 1;
    if (pin.b != spice::kGround) pinned[static_cast<std::size_t>(pin.b)] = 1;
  }

  // Transient state anchors: a grounded capacitor starts at its explicit
  // ic (or the DC operating point) and from there can only move toward
  // what its neighbors and gmin allow.
  std::vector<char> is_state(n, 0);
  std::vector<Interval> anchor(n, Interval::empty());
  if (envelope) {
    for (const auto& dev : circuit.devices()) {
      const auto* c = dynamic_cast<const spice::Capacitor*>(dev.get());
      if (!c) continue;
      const auto t = dev->terminals();
      const bool a_gnd = t[0] == spice::kGround;
      const bool b_gnd = t[1] == spice::kGround;
      if (a_gnd == b_gnd) continue;  // floating (tainted) or ground-ground
      const NodeId node = a_gnd ? t[1] : t[0];
      const double sign = a_gnd ? -1.0 : 1.0;
      const std::size_t idx = static_cast<std::size_t>(node);
      Interval av;
      if (c->has_initial_condition()) {
        av = Interval(sign * c->initial_condition());
      } else if (dc_vals) {
        av = (*dc_vals)[idx];
      }
      is_state[idx] = 1;
      anchor[idx] |= av;  // several caps on one node: cover all anchors
    }
  }

  const auto val_of = [&](NodeId x) -> Interval {
    return x == spice::kGround ? Interval(0.0)
                               : vals[static_cast<std::size_t>(x)];
  };

  bool changed = false;
  const auto narrow = [&](NodeId x, const Interval& bound) {
    if (x == spice::kGround) return;
    const std::size_t idx = static_cast<std::size_t>(x);
    const Interval nv = Interval::intersect(vals[idx], bound);
    if (nv != vals[idx]) {
      vals[idx] = nv;
      changed = true;
    }
  };

  // Nodes grouped by island for the hull pass.
  std::unordered_map<std::size_t, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < n; ++i) members[island_root[i]].push_back(i);

  // Fixpoint sweep cap; intervals only shrink, so stopping early is always
  // sound (just less precise).
  constexpr int kMaxSweeps = 64;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    changed = false;

    // (a) Pin equations v(a) - v(b) = value, narrowed both ways. These
    // are hard facts, so they apply to tainted components too.
    for (const DcTopology::Pin& pin : topo.pins) {
      const Interval value = envelope ? pin.envelope_value : pin.dc_value;
      narrow(pin.a, val_of(pin.b) + value);
      narrow(pin.b, val_of(pin.a) - value);
    }

    // (b) Discrete maximum principle, component granularity: with only
    // passive branches inside and gmin tying every node toward ground,
    // each node of a component lies in the hull of {0}, the pinned
    // (boundary) node values, and any transient state anchors.
    for (const auto& [root, nodes] : members) {
      if (bad_roots.count(root) != 0) continue;
      Interval h(0.0);
      for (std::size_t i : nodes) {
        if (pinned[i]) h |= vals[i];
        if (is_state[i]) h |= anchor[i];
      }
      for (std::size_t i : nodes) narrow(static_cast<NodeId>(i), h);
    }

    // (c) Per-node refinement for interior (non-pinned) nodes.
    for (std::size_t i = 0; i < n; ++i) {
      if (tainted[i] || pinned[i]) continue;
      const NodeId node = static_cast<NodeId>(i);

      Interval neighbor_hull(0.0);  // gmin pulls toward ground
      Interval num(0.0);
      Interval den(0.0);
      bool all_conductance = true;
      for (const DcTopology::Edge& e : topo.edges[i]) {
        const Interval ov = val_of(e.other);
        neighbor_hull |= ov;
        if (e.has_g) {
          num = num + e.g * ov;
          den = den + e.g;
        } else {
          all_conductance = false;
        }
      }

      if (envelope && is_state[i]) {
        // Parabolic maximum principle: the node starts at its anchor and
        // its derivative always points into the instantaneous
        // neighbor/ground hull, so it can never leave the union.
        narrow(node, Interval::hull(anchor[i], neighbor_hull));
        continue;
      }
      if (topo.edges[i].empty()) {
        // Only the gmin leak loads this node: v = 0 exactly at any
        // converged solve (the engine stamps gmin > 0 on every node).
        narrow(node, Interval(0.0));
        continue;
      }
      Interval bound = neighbor_hull;
      if (all_conductance) {
        // Thevenin / weighted-average refinement: KCL at a purely
        // conductive node gives v = sum(g v) / (sum(g) + gmin); interval
        // evaluation contains the true value for any g in its bounds.
        den = den + Interval(0.0, gmin_max);
        bound &= num / den;
      }
      narrow(node, bound);
    }

    if (!changed) break;
  }

  // Tainted nodes report the universe regardless of what pin narrowing
  // achieved locally — except pins anchored purely to ground, which stay
  // valid. Keeping the narrowed value is sound: pins are hard facts.
  return vals;
}

}  // namespace

OperatingIntervals compute_operating_intervals(const spice::Circuit& circuit,
                                               const spice::NetlistDeck* deck,
                                               double gmin_max) {
  OperatingIntervals out;
  out.has_tran = !deck || !deck->tran.empty();
  if (deck && deck->has_temperature) {
    out.temp_lo = out.temp_hi = deck->temperature_c;
  }
  const DcTopology topo = DcTopology::build(circuit, deck);
  out.dc = run_engine(circuit, topo, gmin_max, false, nullptr);
  out.envelope = out.has_tran
                     ? run_engine(circuit, topo, gmin_max, true, &out.dc)
                     : out.dc;
  return out;
}

}  // namespace sfc::lint
