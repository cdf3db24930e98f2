// Shared circuit analyses for the lint passes, owned and cached by an
// AnalysisManager so each pass does not rebuild them:
//
//   * NodeIncidence          — terminal incidence of every non-ground node;
//   * ConductionComponents   — union-find over the DC (or transient)
//                              conduction graph;
//   * DcTopology             — per-node passive-edge adjacency with
//                              conductance bounds, voltage pins, and taint
//                              seeds for the interval engine;
//   * OperatingIntervals     — per-node bias intervals (interval.hpp)
//                              derived from source values, the discrete
//                              maximum principle and Thevenin/weighted-
//                              average refinement.
//
// Soundness contract of OperatingIntervals (enforced empirically by the
// "interval_escape" fuzz invariant in src/verify/fuzz.cpp): for every deck
// the solver converges on, the DC operating point lies inside `dc`, and —
// when the deck's caps are grounded — every transient node voltage lies
// inside `envelope`. Nodes whose voltage the analysis cannot bound soundly
// (current-source neighborhoods, floating caps, unknown device types) are
// tainted to the universe interval rather than guessed.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "lint/interval.hpp"
#include "spice/circuit.hpp"
#include "spice/netlist.hpp"

namespace sfc::lint {

/// Terminal incidence of every non-ground node, shared by the topology
/// rules so each pass does not rebuild it.
struct NodeIncidence {
  struct Touch {
    const spice::Device* device = nullptr;
    std::size_t terminal = 0;  ///< index into Device::terminals()
  };
  /// Indexed by NodeId; ground is excluded (always well-connected).
  std::vector<std::vector<Touch>> touches;

  static NodeIncidence build(const spice::Circuit& circuit);
};

/// Union-find over node ids 0..n-1 plus ground at slot n.
class Dsu {
 public:
  explicit Dsu(std::size_t slots);
  std::size_t find(std::size_t i);
  void unite(std::size_t a, std::size_t b);

 private:
  std::vector<std::size_t> parent_;
};

/// Slot of a node in a Dsu over `num_nodes` + ground.
std::size_t node_slot(spice::NodeId n, std::size_t num_nodes);

/// Node pairs a device conducts DC current between. `caps_conduct` folds
/// capacitors into the graph (transient decks: the companion model makes
/// them conductive, and an IC pins the node voltage).
std::vector<std::pair<spice::NodeId, spice::NodeId>> conduction_edges(
    const spice::Device& dev, bool caps_conduct);

/// True for devices whose branch voltage is fixed independent of current
/// (voltage sources): chaining them into a loop (or shorting one) makes
/// the MNA matrix singular.
bool is_voltage_defined(const spice::Device& dev);

/// The (t0, t1) branch of a voltage-defined device.
std::pair<spice::NodeId, spice::NodeId> voltage_branch(
    const spice::Device& dev);

/// Connected components of the conduction graph. Component ids are Dsu
/// roots; `component_of(kGround)` is valid and names the grounded island.
struct ConductionComponents {
  std::vector<std::size_t> root;  ///< slot -> root, size num_nodes + 1
  std::size_t num_nodes = 0;
  bool caps_conduct = false;

  std::size_t component_of(spice::NodeId n) const {
    return root[node_slot(n, num_nodes)];
  }

  static ConductionComponents build(const spice::Circuit& circuit,
                                    bool caps_conduct);
};

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
    const spice::Device* device = nullptr;
    spice::NodeId other = spice::kGround;
    Interval g;  ///< conductance bounds [S]; meaningful iff has_g
    bool has_g = false;
    bool is_capacitor = false;  ///< only conducts in transient
  };

  /// A voltage-source branch v(a) - v(b) = value. The value depends on
  /// the interval mode (DC start value vs whole-waveform range).
  struct Pin {
    const spice::Device* device = nullptr;
    spice::NodeId a = spice::kGround;
    spice::NodeId b = spice::kGround;
    Interval dc_value;        ///< t=0 value (+ .dc sweep hull)
    Interval envelope_value;  ///< waveform range (+ sweep hull)
  };

  /// Per non-ground node: incident passive edges (capacitor edges are
  /// flagged; the DC engine ignores them, the envelope engine treats the
  /// grounded ones as state anchors).
  std::vector<std::vector<Edge>> edges;
  std::vector<Pin> pins;

  /// Nodes whose conduction component must be widened to the universe in
  /// DC mode: current-source terminals, unknown device types,
  /// non-physical element values. The maximum principle assumes every
  /// non-pin injection is passive; these break it.
  std::vector<spice::NodeId> dc_taint_seeds;
  /// Additional seeds for the transient envelope: capacitors not
  /// referenced to ground.
  std::vector<spice::NodeId> tran_taint_seeds;

  static DcTopology build(const spice::Circuit& circuit,
                          const spice::NetlistDeck* deck);
};

struct IntervalOptions {
  /// Upper bound of the solver's shunt-to-ground gmin at convergence [S].
  /// The engine models gmin as the interval [0, gmin_max], so bounds hold
  /// whether or not the leak is present.
  double gmin_max = 1e-12;
};

/// Per-node bias intervals. `dc` bounds the DC operating point (caps
/// open, sources at their t=0 value hulled with any .dc sweep range);
/// `envelope` additionally bounds every transient node voltage when the
/// deck has a .tran (or came from the API, where a transient may follow).
struct OperatingIntervals {
  std::vector<Interval> dc;        ///< indexed by NodeId
  std::vector<Interval> envelope;  ///< == dc when !has_tran
  std::vector<char> dc_tainted;
  /// An empty interval appeared: the constraints are mutually
  /// inconsistent, i.e. no DC operating point can satisfy the sources
  /// (e.g. two different voltages forced onto one node).
  bool dc_contradiction = false;
  bool envelope_contradiction = false;
  bool has_tran = false;
  /// Temperature range the deck operates over: the .temp value when
  /// given, otherwise the paper's full 0-85 degC envelope.
  double temp_lo = 0.0;
  double temp_hi = 85.0;

  Interval dc_at(spice::NodeId n) const {
    return n == spice::kGround ? Interval(0.0)
                               : dc[static_cast<std::size_t>(n)];
  }
  Interval envelope_at(spice::NodeId n) const {
    return n == spice::kGround ? Interval(0.0)
                               : envelope[static_cast<std::size_t>(n)];
  }
  bool dc_is_tainted(spice::NodeId n) const {
    return n != spice::kGround &&
           dc_tainted[static_cast<std::size_t>(n)] != 0;
  }
};

/// Computes and caches the shared analyses for one (circuit, deck) pair.
/// All accessors build lazily on first call and return references stable
/// for the manager's lifetime. Not thread-safe; a lint run owns one.
class AnalysisManager {
 public:
  AnalysisManager(const spice::Circuit& circuit,
                  const spice::NetlistDeck* deck,
                  IntervalOptions options = {});

  const spice::Circuit& circuit() const { return circuit_; }
  const spice::NetlistDeck* deck() const { return deck_; }
  const IntervalOptions& options() const { return options_; }

  const NodeIncidence& incidence();
  const ConductionComponents& components(bool caps_conduct);
  const DcTopology& topology();
  const OperatingIntervals& intervals();

 private:
  const spice::Circuit& circuit_;
  const spice::NetlistDeck* deck_;
  IntervalOptions options_;

  std::unique_ptr<NodeIncidence> incidence_;
  std::unique_ptr<ConductionComponents> components_[2];  // [caps_conduct]
  std::unique_ptr<DcTopology> topology_;
  std::unique_ptr<OperatingIntervals> intervals_;
};

/// One-shot convenience (used by the fuzz oracle): equivalent to
/// AnalysisManager(circuit, deck, options).intervals().
OperatingIntervals compute_operating_intervals(
    const spice::Circuit& circuit, const spice::NetlistDeck* deck,
    const IntervalOptions& options = {});

}  // namespace sfc::lint
