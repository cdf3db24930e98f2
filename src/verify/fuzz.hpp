// Property-based netlist fuzzer.
//
// Each case index i deterministically derives its private RNG from the
// counter-based stream exec::stream_seed(seed, i), generates a random
// netlist of one of four classes, instantiates it, and checks the solver
// invariants of that class:
//   * dc_kcl        — random R / diode / MOSFET / FeFET network with DC
//                     sources: Newton converges and the KCL residual
//                     |A(x)·x − b(x)| at the solution is at LU roundoff;
//   * charge_share  — capacitors to ground joined by node-to-node
//                     resistors, no sources: total charge Σ C·V is
//                     conserved across the transient (the physics behind
//                     the row's charge-share phase, Eq. 1);
//   * subthreshold_temp — random subthreshold bias on a random MOSFET/
//                     FeFET channel: drain current grows monotonically in
//                     T over 0..85 degC (the paper's Fig. 1 premise);
//   * cim_row       — a paper-shaped small CiM row with random weights,
//                     inputs and temperature: converges, output within the
//                     supply window, and invariant under a simultaneous
//                     permutation of (weight, input) pairs.
//
// Every case also cross-checks the static analyzer (src/lint): a clean
// generated-valid card-based deck must lint with zero diagnostics, and
// the interval operating-point analysis (lint/analysis.hpp) must contain
// every converged DC solution and every charge-share transient's final
// values. An escape ("interval_escape" / "envelope_escape") means the
// abstract domain is unsound — a hard failure, never a tolerance issue.
//
// A failing case is shrunk by greedy delta-debugging (drop one device at a
// time while the invariant still fails) and dumped as a .cir reproducer
// that round-trips through spice::parse_netlist.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "spice/circuit.hpp"

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
  /// Include the (slower) transient CiM-row class.
  bool include_cim_rows = true;
};

/// One device card of a generated netlist. Node index -1 is ground,
/// k >= 0 is node "n<k>".
struct FuzzDevice {
  enum class Kind {
    kResistor,
    kCapacitor,
    kVSource,
    kISource,
    kDiode,
    kMosfet,
    kFeFet
  };
  Kind kind = Kind::kResistor;
  std::string name;
  int n1 = -1, n2 = -1, n3 = -1;  ///< terminal node indices
  double value = 0.0;             ///< R / C / V / I main value
  double ic = 0.0;                ///< capacitor initial condition [V]
  bool has_ic = false;
  int fefet_state = 1;            ///< stored bit for FeFET cards
  devices::MosfetParams mos;      ///< kMosfet parameters
  devices::DiodeParams dio;       ///< kDiode parameters
};

/// A generated netlist: the device list plus the directives needed to
/// re-run its invariant.
struct FuzzNetlist {
  FuzzClass cls = FuzzClass::kDcKcl;
  int index = 0;            ///< case index within the fuzz run
  std::uint64_t seed = 0;   ///< stream seed the case was generated from
  int num_nodes = 0;
  double temperature_c = 27.0;
  double t_stop = 0.0;      ///< transient length (charge_share) [s]
  double dt = 0.0;
  std::vector<FuzzDevice> devices;

  /// Instantiate into a circuit (node k -> "n<k>").
  void build(spice::Circuit& circuit) const;

  /// SPICE deck (cards + .tran/.temp directives + provenance comments)
  /// parseable by spice::parse_netlist.
  std::string to_cir(const std::string& failure_note = "") const;
};

struct FuzzFailure {
  int index = 0;
  FuzzClass cls = FuzzClass::kDcKcl;
  std::string invariant;       ///< which property broke
  std::string detail;          ///< measured vs allowed
  int devices_before_shrink = 0;
  int devices_after_shrink = 0;
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

/// Check a netlist's invariant. Returns nullopt on pass, else a
/// {invariant, detail} failure pair.
struct InvariantFailure {
  std::string invariant;
  std::string detail;
};
std::optional<InvariantFailure> check_invariants(const FuzzNetlist& netlist,
                                                 const FuzzOptions& options);

/// Greedy delta-debug: repeatedly drop single devices while the invariant
/// keeps failing. Returns the minimized netlist (== input when no device
/// can be removed).
FuzzNetlist shrink_netlist(const FuzzNetlist& failing,
                           const FuzzOptions& options);

}  // namespace sfc::verify
