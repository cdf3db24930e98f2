// Shared circuit analyses for the lint passes, built once per lint run
// into the LintContext (rules.hpp):
//
//   * NodeIncidence          — terminal incidence of every non-ground node;
//   * ConductionComponents   — union-find over the DC (or transient)
//                              conduction graph;
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

/// Connected components of the conduction graph. Component ids are Dsu
/// roots; `component_of(kGround)` is valid and names the grounded island.
struct ConductionComponents {
  std::vector<std::size_t> root;  ///< slot -> root, size num_nodes + 1
  std::size_t num_nodes = 0;

  std::size_t component_of(spice::NodeId n) const {
    return root[node_slot(n, num_nodes)];
  }

  static ConductionComponents build(const spice::Circuit& circuit,
                                    bool caps_conduct);
};

/// Per-node bias intervals. `dc` bounds the DC operating point (caps
/// open, sources at their t=0 value hulled with any .dc sweep range);
/// `envelope` additionally bounds every transient node voltage when the
/// deck has a .tran (or came from the API, where a transient may follow).
struct OperatingIntervals {
  std::vector<Interval> dc;        ///< indexed by NodeId
  std::vector<Interval> envelope;  ///< == dc when !has_tran
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
};

/// Runs the interval engine over `circuit`: the DC fixpoint, then the
/// transient envelope when the deck has a .tran (or is null). `gmin_max`
/// bounds the solver's shunt-to-ground gmin at convergence [S]; the engine
/// models gmin as the interval [0, gmin_max], so bounds hold whether or
/// not the leak is present.
OperatingIntervals compute_operating_intervals(
    const spice::Circuit& circuit, const spice::NetlistDeck* deck,
    double gmin_max = 1e-12);

}  // namespace sfc::lint
