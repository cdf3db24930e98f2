#include "verify/fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cim/array.hpp"
#include "devices/mosfet.hpp"
#include "exec/stream.hpp"
#include "lint/analysis.hpp"
#include "lint/linter.hpp"
#include "spice/engine.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"
#include "util/hash.hpp"
#include "verify/json.hpp"

namespace sfc::verify {

const char* fuzz_class_name(FuzzClass c) {
  switch (c) {
    case FuzzClass::kDcKcl: return "dc_kcl";
    case FuzzClass::kChargeShare: return "charge_share";
    case FuzzClass::kSubthresholdTemp: return "subthreshold_temp";
    case FuzzClass::kCimRow: return "cim_row";
  }
  return "unknown";
}

namespace {

/// Newton options used for every fuzz solve: tighter than the defaults so
/// the KCL residual check measures solver quality, not loose tolerances.
spice::NewtonOptions fuzz_newton() {
  spice::NewtonOptions o;
  o.vtol = 1e-11;
  o.reltol = 1e-8;
  return o;
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  return util::fnv1a(h, &v, sizeof(v));
}

// ---------------------------------------------------------------------------
// Generators: each writes its case as cards. No expression takes two draws:
// C++ leaves the order of an expression's operands unspecified, and the
// draw order fixes the campaign.
// ---------------------------------------------------------------------------

/// Card text of a number that parses back to the same double.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Card text of generated node k.
std::string node(std::size_t k) { return "n" + std::to_string(k); }

/// The R, C and V card shape: "<name> <a> <b> <value>".
std::string two_terminal(const std::string& name, const std::string& a,
                         const std::string& b, double value) {
  return name + " " + a + " " + b + " " + num(value);
}

/// A MOSFET entry: its own .model line, then the instance card on
/// `terminals` ("<drain> <gate> <source>").
std::string mosfet_card(const std::string& name, const std::string& terminals,
                        const devices::MosfetParams& p) {
  const std::string model = "mod_" + name;
  return ".model " + model + " nmos vth0=" + num(p.vth0) +
         " n=" + num(p.n_factor) + " mu0=" + num(p.mu0) +
         " cox=" + num(p.cox) + " lambda=" + num(p.lambda) +
         " tcvth=" + num(p.tc_vth) + " muexp=" + num(p.mu_exponent) +
         " tnom=" + num(p.t_nominal_c) + "\n" + name + " " + terminals +
         " " + model + " w=" + num(p.w) + " l=" + num(p.l);
}

double log_uniform(util::Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

/// A random 14 nm NMOS channel: W/L, then vth0, then the slope factor.
devices::MosfetParams random_channel(util::Rng& rng) {
  devices::MosfetParams p =
      devices::MosfetParams::finfet14_nmos(rng.uniform(0.5, 8.0));
  p.vth0 = rng.uniform(0.25, 0.45);
  p.n_factor = rng.uniform(1.1, 1.6);
  return p;
}

FuzzNetlist generate_dc_kcl(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kDcKcl;
  const int n = 2 + static_cast<int>(rng.uniform_index(5));  // 2..6 nodes
  std::size_t next_node = static_cast<std::size_t>(n);  // diode chain nodes
  base.temperature_c = rng.uniform(0.0, 85.0);
  int serial = 0;
  const auto next_name = [&serial](const char* prefix) {
    return std::string(prefix) + std::to_string(++serial);
  };
  const auto any_node = [&](bool allow_ground) {
    if (allow_ground && rng.bernoulli(0.25)) return std::string("0");
    return node(rng.uniform_index(static_cast<std::uint64_t>(n)));
  };
  const auto three_terminals = [&] {
    const std::string drain = any_node(false);
    const std::string gate = any_node(true);
    const std::string source =
        rng.bernoulli(0.7) ? std::string("0") : any_node(true);
    return drain + " " + gate + " " + source;
  };

  // DC sources on distinct nodes (two ideal sources on one node would make
  // the MNA system singular, which is a malformed input, not a solver bug).
  const auto source_nodes = rng.permutation(static_cast<std::size_t>(n));
  const int num_sources = 1 + static_cast<int>(rng.uniform_index(2));
  for (int s = 0; s < num_sources; ++s) {
    base.cards.push_back(two_terminal(
        next_name("V"), node(source_nodes[static_cast<std::size_t>(s)]), "0",
        rng.uniform(0.0, 1.2)));
  }

  // A resistor ring over a random node order guarantees every node has a
  // DC path to the grounded sources and at least two terminal touches —
  // the lint cross-check runs these decks through the static analyzer,
  // which (rightly) rejects floating islands and dangling terminals.
  const auto ring = rng.permutation(static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < ring.size(); ++k) {
    base.cards.push_back(two_terminal(next_name("R"), node(ring[k]),
                                      node(ring[(k + 1) % ring.size()]),
                                      log_uniform(rng, 1e2, 1e7)));
  }
  const int num_extra = static_cast<int>(rng.uniform_index(4));
  for (int r = 0; r < num_extra; ++r) {
    const std::string a = any_node(false);
    std::string b;
    do {
      b = any_node(true);
    } while (b == a);
    base.cards.push_back(
        two_terminal(next_name("R"), a, b, log_uniform(rng, 1e2, 1e7)));
  }

  // Diodes always get a dedicated series resistor (an ideal source across
  // a bare junction is a pathological operating point, not a solver test).
  const int num_diodes = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k < num_diodes; ++k) {
    const std::string mid = node(next_node++);
    const std::string from = any_node(false);
    base.cards.push_back(
        two_terminal(next_name("R"), from, mid, log_uniform(rng, 1e3, 1e6)));
    const double i_sat = log_uniform(rng, 1e-16, 1e-12);
    const double emission = rng.uniform(1.0, 2.0);
    const std::string junction =
        rng.bernoulli(0.5) ? mid + " 0" : "0 " + mid;  // forward or reverse
    base.cards.push_back(next_name("D") + " " + junction + " is=" +
                         num(i_sat) + " n=" + num(emission));
  }

  const int num_mosfets = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k < num_mosfets; ++k) {
    const std::string name = next_name("M");
    const std::string terminals = three_terminals();
    const devices::MosfetParams channel = random_channel(rng);
    base.cards.push_back(mosfet_card(name, terminals, channel));
  }

  if (rng.bernoulli(0.4)) {
    const std::string name = next_name("Z");
    const std::string terminals = three_terminals();
    base.cards.push_back(name + " " + terminals +
                         (rng.bernoulli(0.5) ? " state=1" : " state=0"));
  }
  return base;
}

FuzzNetlist generate_charge_share(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kChargeShare;
  const int n = 2 + static_cast<int>(rng.uniform_index(4));  // 2..5 nodes
  base.temperature_c = rng.uniform(0.0, 85.0);
  base.t_stop = 20e-9;
  base.dt = 1e-10;
  int serial = 0;

  for (int k = 0; k < n; ++k) {
    const double farads = rng.uniform(1e-15, 10e-15);
    const double ic = rng.uniform(0.0, 1.2);
    base.cards.push_back(two_terminal("C" + std::to_string(++serial),
                                      node(static_cast<std::size_t>(k)), "0",
                                      farads) +
                         " ic=" + num(ic));
  }

  // A connecting chain over a random node order guarantees charge actually
  // moves, plus a few extra cross links. Resistors never touch ground —
  // that is what makes Σ C·V an invariant of the network.
  const auto order = rng.permutation(static_cast<std::size_t>(n));
  const int extra = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k + 1 < n + extra; ++k) {
    std::size_t a = 0, b = 0;
    if (k + 1 < n) {
      a = order[static_cast<std::size_t>(k)];
      b = order[static_cast<std::size_t>(k) + 1];
    } else {
      a = rng.uniform_index(static_cast<std::uint64_t>(n));
      do {
        b = rng.uniform_index(static_cast<std::uint64_t>(n));
      } while (b == a);
    }
    base.cards.push_back(two_terminal("R" + std::to_string(++serial), node(a),
                                      node(b), log_uniform(rng, 1e3, 1e6)));
  }
  return base;
}

FuzzNetlist generate_subthreshold(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kSubthresholdTemp;
  base.temperature_c = 27.0;
  const devices::MosfetParams channel = random_channel(rng);
  // Draw of a retired variant that was this same channel; kept for the hash.
  (void)rng.bernoulli(0.3);
  base.cards.push_back(mosfet_card("M1", "n1 n0 0", channel));
  // The gate sits firmly below threshold.
  const double v_gate = channel.vth0 - rng.uniform(0.08, 0.25);
  base.cards.push_back(two_terminal("VG", "n0", "0", v_gate));
  base.cards.push_back(two_terminal("VD", "n1", "0", rng.uniform(0.6, 1.2)));
  return base;
}

FuzzNetlist generate_cim_row(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kCimRow;
  const int cells = 2 + static_cast<int>(rng.uniform_index(2));  // 2..3
  base.temperature_c = rng.uniform(0.0, 85.0);
  for (int k = 0; k < cells; ++k) {
    const std::string weight = rng.bernoulli(0.5) ? "1" : "0";
    const std::string input = rng.bernoulli(0.5) ? "1" : "0";
    base.cards.push_back("CELL" + std::to_string(k) + " weight=" + weight +
                         " input=" + input);
  }
  return base;
}

}  // namespace

FuzzNetlist generate_netlist(const FuzzOptions& options, int index) {
  FuzzNetlist base;
  base.index = index;
  base.seed = exec::stream_seed(options.seed, static_cast<std::uint64_t>(index));
  util::Rng rng = exec::stream_rng(options.seed,
                                   static_cast<std::uint64_t>(index));
  if (index % 25 == 13) return generate_cim_row(rng, std::move(base));
  switch (index % 3) {
    case 0: return generate_dc_kcl(rng, std::move(base));
    case 1: return generate_charge_share(rng, std::move(base));
    default: return generate_subthreshold(rng, std::move(base));
  }
}

std::string FuzzNetlist::to_cir(const std::string& failure_note) const {
  std::ostringstream ss;
  ss << "* fuzz reproducer: class=" << fuzz_class_name(cls)
     << " index=" << index << " seed=0x" << std::hex << seed << std::dec
     << "\n";
  if (!failure_note.empty()) {
    // A note can span lines (a lint_clean note carries the whole lint
    // report); each becomes a comment so the reproducer still parses.
    std::istringstream note(failure_note);
    std::string line;
    std::getline(note, line);
    ss << "* invariant violated: " << line << "\n";
    while (std::getline(note, line)) ss << "* " << line << "\n";
  }
  if (cls == FuzzClass::kCimRow) {
    ss << "* paper-shaped CiM row (built by cim::CiMRow, not from cards):\n"
       << "*   cells=" << cards.size() << " T=" << num(temperature_c) << "\n";
    for (const std::string& cell : cards) ss << "*   " << cell << "\n";
    ss << ".end\n";
    return ss.str();
  }
  for (const std::string& card : cards) ss << card << "\n";
  ss << ".temp " << num(temperature_c) << "\n";
  if (t_stop > 0.0) ss << ".tran " << num(dt) << " " << num(t_stop) << "\n";
  ss << ".end\n";
  return ss.str();
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------
namespace {

struct CheckResult {
  std::optional<InvariantFailure> failure;
  std::uint64_t observable = 0;  ///< hash over key computed values
};

/// Max node-equation residual |A x - b| relative to the row magnitude.
constexpr double kKclTol = 1e-8;
/// |v_acc| deviation allowed under a (weight, input) pair permutation.
constexpr double kPermutationTol = 1e-6;

InvariantFailure fail(std::string invariant, std::string detail) {
  return InvariantFailure{std::move(invariant), std::move(detail)};
}

CheckResult check_dc_kcl(const FuzzNetlist& nl, const FuzzOptions&) {
  CheckResult out;
  spice::Circuit circuit;
  spice::parse_netlist(nl.to_cir(), circuit);
  if (circuit.devices().empty()) return out;  // vacuous after shrinking
  spice::Engine engine(circuit, nl.temperature_c);
  const spice::NewtonOptions newton = fuzz_newton();
  const spice::DcResult op = engine.dc_operating_point(newton);
  if (!op.converged) {
    out.failure = fail("dc_convergence", "Newton failed to converge");
    return out;
  }
  // Re-assemble the system at the converged solution through the engine's
  // reference assembly and measure the KCL/branch residual.
  const std::size_t size = circuit.system_size();
  const std::size_t num_nodes = circuit.num_nodes();
  spice::DenseMatrix a(size, size);
  std::vector<double> b(size, 0.0);
  spice::SimContext ctx;
  ctx.mode = spice::AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = nl.temperature_c;
  ctx.gmin = op.gmin_used;
  ctx.num_nodes = num_nodes;
  engine.assemble(ctx, op.x, a, b);
  const spice::RowResidual residual =
      spice::worst_relative_residual(a, op.x, b);
  for (const double v : op.x) out.observable = hash_double(out.observable, v);
  if (residual.relative > kKclTol) {
    std::ostringstream d;
    d << "KCL residual " << Json::format_number(residual.relative) << " at "
      << (residual.row < num_nodes
              ? "node " + circuit.node_name(static_cast<int>(residual.row))
              : "aux row " + std::to_string(residual.row - num_nodes))
      << " exceeds tol " << Json::format_number(kKclTol);
    out.failure = fail("kcl_residual", d.str());
    return out;
  }

  // Differential soundness oracle: the static interval analysis claims a
  // per-node bias interval that provably contains every DC operating
  // point. The converged solver solution is a witness — an escape is an
  // unsoundness bug in the abstract domain, never a tolerance issue.
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, nullptr, op.gmin_used);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    const double v = op.x[n];
    const lint::Interval bound = iv.dc_at(static_cast<spice::NodeId>(n));
    if (bound.is_empty() ||
        !bound.widened(1e-6 * (1.0 + std::fabs(v))).contains(v)) {
      std::ostringstream d;
      d << "solver DC value " << Json::format_number(v) << " at node "
        << circuit.node_name(static_cast<int>(n))
        << " escapes static interval " << bound.str();
      out.failure = fail("interval_escape", d.str());
      return out;
    }
  }
  return out;
}

CheckResult check_charge_share(const FuzzNetlist& nl, const FuzzOptions& opt) {
  CheckResult out;
  spice::Circuit circuit;
  spice::parse_netlist(nl.to_cir(), circuit);
  std::vector<const spice::Capacitor*> caps;
  double q_start = 0.0, c_total = 0.0, q_scale = 0.0;
  for (const auto& device : circuit.devices()) {
    const auto* c = dynamic_cast<const spice::Capacitor*>(device.get());
    if (c == nullptr) continue;
    const double ic = c->has_initial_condition() ? c->initial_condition() : 0.0;
    q_start += c->capacitance() * ic;
    q_scale += c->capacitance() * std::fabs(ic);
    c_total += c->capacitance();
    caps.push_back(c);
  }
  if (c_total == 0.0) return out;  // vacuous after shrinking
  spice::Engine engine(circuit, nl.temperature_c);
  spice::TransientOptions topt;
  topt.dt = nl.dt;
  topt.newton = fuzz_newton();
  const spice::TransientResult tr = engine.transient(nl.t_stop, topt);
  if (!tr.converged) {
    out.failure = fail("transient_convergence", "transient failed");
    return out;
  }
  // Envelope soundness oracle: every capacitor node's final transient
  // value must lie inside the static envelope interval (the analysis sees
  // no .tran directive here, but a null deck means "a transient may
  // follow", which engages envelope mode).
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, nullptr);
  double q_end = 0.0;
  for (const spice::Capacitor* c : caps) {
    const spice::NodeId node = c->terminals().front();
    if (node == spice::kGround) continue;
    const std::string& name = circuit.node_name(node);
    const double v = tr.final_value(name);
    q_end += c->capacitance() * v;
    out.observable = hash_double(out.observable, v);
    const lint::Interval bound = iv.envelope_at(node);
    if (bound.is_empty() ||
        !bound.widened(1e-6 * (1.0 + std::fabs(v))).contains(v)) {
      std::ostringstream msg;
      msg << "transient final value " << Json::format_number(v)
          << " at node " << name << " escapes static envelope "
          << bound.str();
      out.failure = fail("envelope_escape", msg.str());
      return out;
    }
  }
  const double allowed = opt.charge_tol_abs + opt.charge_tol_rel * q_scale;
  if (std::fabs(q_end - q_start) > allowed) {
    std::ostringstream d;
    d << "charge drift " << Json::format_number(q_end - q_start)
      << " C (start " << Json::format_number(q_start) << ", end "
      << Json::format_number(q_end) << ") exceeds "
      << Json::format_number(allowed);
    out.failure = fail("charge_conservation", d.str());
  }
  return out;
}

CheckResult check_subthreshold(const FuzzNetlist& nl, const FuzzOptions&) {
  CheckResult out;
  spice::Circuit circuit;
  spice::parse_netlist(nl.to_cir(), circuit);
  const auto* mosfet = dynamic_cast<const devices::Mosfet*>(circuit.find("M1"));
  const auto* vg = dynamic_cast<const spice::VSource*>(circuit.find("VG"));
  const auto* vd = dynamic_cast<const spice::VSource*>(circuit.find("VD"));
  if (!mosfet || !vg || !vd) return out;  // vacuous after shrinking
  const double v_gate = vg->waveform().initial();
  const double v_drain = vd->waveform().initial();
  double prev = -1.0;
  for (double t = 0.0; t <= 85.0 + 1e-9; t += 5.0) {
    const devices::MosfetEval e =
        devices::evaluate_mosfet(mosfet->params(), v_gate, v_drain, 0.0, t);
    out.observable = hash_double(out.observable, e.id);
    if (e.id <= 0.0) {
      out.failure = fail("subthreshold_current_positive",
                         "Id <= 0 at T=" + Json::format_number(t));
      return out;
    }
    if (e.id <= prev) {
      std::ostringstream d;
      d << "Id(T) not strictly increasing: Id(" << t
        << ")=" << Json::format_number(e.id) << " <= Id(" << t - 5.0
        << ")=" << Json::format_number(prev);
      out.failure = fail("subthreshold_monotone_temperature", d.str());
      return out;
    }
    prev = e.id;
  }
  return out;
}

CheckResult check_cim_row(const FuzzNetlist& nl, const FuzzOptions&) {
  CheckResult out;
  if (nl.cards.empty()) return out;
  std::vector<int> stored, inputs;
  for (const std::string& cell : nl.cards) {
    int weight = 0, input = 0;
    if (std::sscanf(cell.c_str(), "%*s weight=%d input=%d", &weight,
                    &input) != 2) {
      throw std::invalid_argument("fuzz: malformed CiM cell '" + cell + "'");
    }
    stored.push_back(weight);
    inputs.push_back(input);
  }
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = static_cast<int>(stored.size());
  cim::CiMRow row(cfg);
  row.set_stored(stored);
  const cim::MacResult r = row.evaluate(inputs, nl.temperature_c);
  if (!r.converged) {
    out.failure = fail("cim_row_convergence", "MAC transient failed");
    return out;
  }
  out.observable = hash_double(out.observable, r.v_acc);
  if (r.v_acc < -0.05 || r.v_acc > cfg.bias.v_bl + 0.05) {
    out.failure = fail("cim_row_output_bounds",
                       "v_acc=" + Json::format_number(r.v_acc) +
                           " outside [0, v_bl]");
    return out;
  }
  if (stored.size() > 1) {
    // Metamorphic invariant: the MAC depends only on the multiset of
    // (weight, input) pairs, so rotating the pairs across identical cells
    // must reproduce the output (up to solver noise).
    std::vector<int> stored2(stored.begin() + 1, stored.end());
    stored2.push_back(stored.front());
    std::vector<int> inputs2(inputs.begin() + 1, inputs.end());
    inputs2.push_back(inputs.front());
    cim::CiMRow row2(cfg);
    row2.set_stored(stored2);
    const cim::MacResult r2 = row2.evaluate(inputs2, nl.temperature_c);
    if (!r2.converged) {
      out.failure = fail("cim_row_convergence", "permuted MAC failed");
      return out;
    }
    if (std::fabs(r.v_acc - r2.v_acc) > kPermutationTol) {
      std::ostringstream d;
      d << "v_acc " << Json::format_number(r.v_acc)
        << " vs permuted " << Json::format_number(r2.v_acc)
        << " differ by more than "
        << Json::format_number(kPermutationTol);
      out.failure = fail("cim_row_permutation_invariance", d.str());
    }
  }
  return out;
}

CheckResult check_case(const FuzzNetlist& nl, const FuzzOptions& opt) {
  CheckResult r;
  switch (nl.cls) {
    case FuzzClass::kDcKcl: r = check_dc_kcl(nl, opt); break;
    case FuzzClass::kChargeShare: r = check_charge_share(nl, opt); break;
    case FuzzClass::kSubthresholdTemp: r = check_subthreshold(nl, opt); break;
    // A cim_row deck is comment-only provenance: nothing to lint.
    case FuzzClass::kCimRow: return check_cim_row(nl, opt);
  }
  if (r.failure) return r;
  // Static-analysis cross-check: every generated-valid card-based deck
  // must come out of the linter with zero diagnostics. It adds nothing to
  // the observable.
  const lint::LintResult linted = lint::lint_source(nl.to_cir());
  if (!linted.report.clean()) {
    r.failure = fail("lint_clean",
                     "generated-valid deck produced " +
                         std::to_string(linted.report.diagnostics().size()) +
                         " diagnostic(s):\n" + linted.report.to_text());
  }
  return r;
}

}  // namespace

std::optional<InvariantFailure> check_invariants(const FuzzNetlist& netlist,
                                                 const FuzzOptions& options) {
  return check_case(netlist, options).failure;
}

FuzzNetlist shrink_netlist(const FuzzNetlist& failing,
                           const FuzzOptions& options) {
  const auto original = check_invariants(failing, options);
  if (!original) return failing;
  FuzzNetlist current = failing;
  bool progress = true;
  while (progress && current.cards.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < current.cards.size(); ++i) {
      FuzzNetlist candidate = current;
      candidate.cards.erase(candidate.cards.begin() +
                            static_cast<std::ptrdiff_t>(i));
      const auto f = check_invariants(candidate, options);
      if (f && f->invariant == original->invariant) {
        current = std::move(candidate);
        progress = true;
        break;  // restart the scan on the smaller netlist
      }
    }
  }
  return current;
}

std::string FuzzReport::summary() const {
  std::ostringstream ss;
  ss << (pass() ? "PASS" : "FAIL") << ": " << executed << " netlists (";
  for (int c = 0; c < 4; ++c) {
    if (c) ss << ", ";
    ss << fuzz_class_name(static_cast<FuzzClass>(c)) << "=" << per_class[c];
  }
  ss << "), hash=0x" << std::hex << observable_hash << std::dec;
  for (const auto& f : failures) {
    ss << "\n  case " << f.index << " [" << fuzz_class_name(f.cls) << "] "
       << f.invariant << ": " << f.detail << "\n    shrunk "
       << f.cards_before_shrink << " -> " << f.cards_after_shrink
       << " cards";
    if (!f.reproducer_path.empty()) ss << ", reproducer: " << f.reproducer_path;
  }
  return ss.str();
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::uint64_t h = util::kFnv1aOffset;
  for (int i = 0; i < options.count; ++i) {
    const FuzzNetlist nl = generate_netlist(options, i);
    ++report.per_class[static_cast<int>(nl.cls)];
    const CheckResult r = check_case(nl, options);
    h = hash_double(h, static_cast<double>(r.observable));
    ++report.executed;
    if (!r.failure) continue;

    FuzzFailure f;
    f.index = i;
    f.cls = nl.cls;
    f.invariant = r.failure->invariant;
    f.detail = r.failure->detail;
    f.cards_before_shrink = static_cast<int>(nl.cards.size());
    f.minimized = shrink_netlist(nl, options);
    f.cards_after_shrink = static_cast<int>(f.minimized.cards.size());
    // The linter must take any shrunk reproducer — however degenerate —
    // without throwing anything but diagnostics.
    try {
      (void)lint::lint_source(f.minimized.to_cir(f.invariant));
    } catch (const std::exception& e) {
      f.detail += " [lint crashed on reproducer: " + std::string(e.what()) +
                  "]";
    }
    const std::string dir =
        options.dump_dir.empty() ? std::string(".") : options.dump_dir;
    const std::string path = dir + "/fuzz_" +
                             std::string(fuzz_class_name(nl.cls)) + "_" +
                             std::to_string(i) + ".cir";
    std::ofstream out(path);
    if (out) {
      out << f.minimized.to_cir(f.invariant + ": " + f.detail);
      f.reproducer_path = path;
    }
    report.failures.push_back(std::move(f));
  }
  report.observable_hash = h;
  return report;
}

}  // namespace sfc::verify
