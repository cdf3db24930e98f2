// Property-based netlist fuzzer.
//
// Each case index i deterministically derives its private RNG from the
// counter-based stream exec::stream_seed(seed, i), writes a random SPICE
// deck of one of four classes, parses it, and checks the solver
// invariants of that class:
//   * dc_kcl        — random R / diode / MOSFET / FeFET network with DC
//                     sources: Newton converges and the KCL residual
//                     |A(x)·x − b(x)| at the solution is at LU roundoff;
//   * charge_share  — capacitors to ground joined by node-to-node
//                     resistors, no sources: total charge Σ C·V is
//                     conserved across the transient (the physics behind
//                     the row's charge-share phase, Eq. 1);
//   * subthreshold_temp — random subthreshold bias on a random MOSFET
//                     channel: drain current grows monotonically in T
//                     over 0..85 degC (the paper's Fig. 1 premise);
//   * cim_row       — a paper-shaped small CiM row with random weights,
//                     inputs and temperature: converges, output within the
//                     supply window, and invariant under a simultaneous
//                     permutation of (weight, input) pairs.
//
// A case is its SPICE deck: the generator writes cards, and every check
// builds its circuit from FuzzNetlist::to_cir() through
// spice::parse_netlist, so the text that is simulated is the text that is
// linted and the text a failure dumps.
//
// Every case also cross-checks the static analyzer (src/lint): a clean
// generated-valid card-based deck must lint with zero diagnostics, and
// the interval operating-point analysis (lint/analysis.hpp) must contain
// every converged DC solution and every charge-share transient's final
// values. An escape ("interval_escape" / "envelope_escape") means the
// abstract domain is unsound — a hard failure, never a tolerance issue.
//
// A failing case is shrunk by greedy delta-debugging (drop one card at a
// time while the invariant still fails) and dumped as its .cir deck.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sfc::verify {

enum class FuzzClass { kDcKcl, kChargeShare, kSubthresholdTemp, kCimRow };

const char* fuzz_class_name(FuzzClass c);

struct FuzzOptions {
  int count = 200;
  std::uint64_t seed = 0x5eedf0220badc0deULL;
  /// Where .cir reproducers are written ("" = current directory).
  std::string dump_dir;
  /// Allowed relative drift of the total capacitor charge over a
  /// transient (absorbs gmin leakage plus integrator roundoff).
  double charge_tol_rel = 1e-3;
  /// Absolute charge floor for circuits whose total charge is ~0 [C].
  double charge_tol_abs = 1e-18;
};

/// A generated case: its cards plus the directives needed to re-run its
/// invariant.
struct FuzzNetlist {
  FuzzClass cls = FuzzClass::kDcKcl;
  int index = 0;            ///< case index within the fuzz run
  std::uint64_t seed = 0;   ///< stream seed the case was generated from
  double temperature_c = 27.0;
  double t_stop = 0.0;      ///< transient length (charge_share) [s]
  double dt = 0.0;
  /// One entry per element, in generation order: a device card (a
  /// MOSFET's entry starts with its .model line), or for cim_row a
  /// "CELL<k> weight=<w> input=<i>" cell that the deck prints as a comment.
  std::vector<std::string> cards;

  /// The case's SPICE deck: provenance comments (every line of
  /// `failure_note` among them), the cards and the .temp/.tran
  /// directives, parseable by spice::parse_netlist.
  std::string to_cir(const std::string& failure_note = "") const;
};

struct FuzzFailure {
  int index = 0;
  FuzzClass cls = FuzzClass::kDcKcl;
  std::string invariant;       ///< which property broke
  std::string detail;          ///< measured vs allowed
  int cards_before_shrink = 0;
  int cards_after_shrink = 0;
  std::string reproducer_path; ///< minimized .cir artifact ("" if dump failed)
  FuzzNetlist minimized;
};

struct FuzzReport {
  int executed = 0;
  int per_class[4] = {0, 0, 0, 0};  ///< cases run per FuzzClass
  std::vector<FuzzFailure> failures;
  /// FNV-1a hash over every case's key observables — two runs with the
  /// same options must produce the same hash (determinism anchor).
  std::uint64_t observable_hash = 0;

  bool pass() const { return failures.empty(); }
  std::string summary() const;
};

/// Run the whole fuzz campaign. Deterministic for fixed options.
FuzzReport run_fuzz(const FuzzOptions& options);

/// Generate case `index` of a campaign (exposed for tests/shrinking).
FuzzNetlist generate_netlist(const FuzzOptions& options, int index);

/// Check a netlist's invariants: its class's, then (card-based classes)
/// the lint cross-check. Returns nullopt on pass, else a {invariant,
/// detail} failure pair.
struct InvariantFailure {
  std::string invariant;
  std::string detail;
};
std::optional<InvariantFailure> check_invariants(const FuzzNetlist& netlist,
                                                 const FuzzOptions& options);

/// Greedy delta-debug: repeatedly drop single cards while the invariant
/// keeps failing. Returns the minimized netlist (== input when no card
/// can be removed).
FuzzNetlist shrink_netlist(const FuzzNetlist& failing,
                           const FuzzOptions& options);

}  // namespace sfc::verify
