#include "verify/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cim/array.hpp"
#include "exec/stream.hpp"
#include "fefet/fefet.hpp"
#include "lint/analysis.hpp"
#include "lint/linter.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"
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

std::string node_name(int k) {
  return k < 0 ? std::string("0") : "n" + std::to_string(k);
}

spice::NodeId node_id(spice::Circuit& circuit, int k) {
  return k < 0 ? spice::kGround : circuit.node(node_name(k));
}

/// Newton options used for every fuzz solve: tighter than the defaults so
/// the KCL residual check measures solver quality, not loose tolerances.
spice::NewtonOptions fuzz_newton() {
  spice::NewtonOptions o;
  o.vtol = 1e-11;
  o.reltol = 1e-8;
  return o;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  return fnv1a(h, &v, sizeof(v));
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

double log_uniform(util::Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

FuzzNetlist generate_dc_kcl(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kDcKcl;
  const int n = 2 + static_cast<int>(rng.uniform_index(5));  // 2..6 nodes
  int next_node = n;  // extra internal nodes for diode series chains
  base.temperature_c = rng.uniform(0.0, 85.0);
  int serial = 0;
  const auto next_name = [&serial](const char* prefix) {
    return std::string(prefix) + std::to_string(++serial);
  };
  const auto any_node = [&](bool allow_ground) {
    if (allow_ground && rng.bernoulli(0.25)) return -1;
    return static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
  };

  // DC sources on distinct nodes (two ideal sources on one node would make
  // the MNA system singular, which is a malformed input, not a solver bug).
  const auto source_nodes = rng.permutation(static_cast<std::size_t>(n));
  const int num_sources = 1 + static_cast<int>(rng.uniform_index(2));
  for (int s = 0; s < num_sources; ++s) {
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kVSource;
    d.name = next_name("V");
    d.n1 = static_cast<int>(source_nodes[static_cast<std::size_t>(s)]);
    d.n2 = -1;
    d.value = rng.uniform(0.0, 1.2);
    base.devices.push_back(d);
  }

  // A resistor ring over a random node order guarantees every node has a
  // DC path to the grounded sources and at least two terminal touches —
  // the lint cross-check runs these decks through the static analyzer,
  // which (rightly) rejects floating islands and dangling terminals.
  const auto ring = rng.permutation(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kResistor;
    d.name = next_name("R");
    d.n1 = static_cast<int>(ring[static_cast<std::size_t>(k)]);
    d.n2 = static_cast<int>(ring[static_cast<std::size_t>((k + 1) % n)]);
    d.value = log_uniform(rng, 1e2, 1e7);
    base.devices.push_back(d);
  }
  const int num_extra = static_cast<int>(rng.uniform_index(4));
  for (int r = 0; r < num_extra; ++r) {
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kResistor;
    d.name = next_name("R");
    d.n1 = any_node(false);
    do {
      d.n2 = any_node(true);
    } while (d.n2 == d.n1);
    d.value = log_uniform(rng, 1e2, 1e7);
    base.devices.push_back(d);
  }

  // Diodes always get a dedicated series resistor (an ideal source across
  // a bare junction is a pathological operating point, not a solver test).
  const int num_diodes = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k < num_diodes; ++k) {
    const int mid = next_node++;
    FuzzDevice rs;
    rs.kind = FuzzDevice::Kind::kResistor;
    rs.name = next_name("R");
    rs.n1 = any_node(false);
    rs.n2 = mid;
    rs.value = log_uniform(rng, 1e3, 1e6);
    base.devices.push_back(rs);
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kDiode;
    d.name = next_name("D");
    d.dio.i_sat = log_uniform(rng, 1e-16, 1e-12);
    d.dio.emission = rng.uniform(1.0, 2.0);
    const bool forward = rng.bernoulli(0.5);
    d.n1 = forward ? mid : -1;
    d.n2 = forward ? -1 : mid;
    base.devices.push_back(d);
  }

  const int num_mosfets = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k < num_mosfets; ++k) {
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kMosfet;
    d.name = next_name("M");
    d.n1 = any_node(false);            // drain
    d.n2 = any_node(true);             // gate
    d.n3 = rng.bernoulli(0.7) ? -1 : any_node(true);  // source
    d.mos = devices::MosfetParams::finfet14_nmos(
        rng.uniform(0.5, 8.0));
    d.mos.vth0 = rng.uniform(0.25, 0.45);
    d.mos.n_factor = rng.uniform(1.1, 1.6);
    base.devices.push_back(d);
  }

  if (rng.bernoulli(0.4)) {
    FuzzDevice d;
    d.kind = FuzzDevice::Kind::kFeFet;
    d.name = next_name("Z");
    d.n1 = any_node(false);
    d.n2 = any_node(true);
    d.n3 = rng.bernoulli(0.7) ? -1 : any_node(true);
    d.fefet_state = rng.bernoulli(0.5) ? 1 : 0;
    base.devices.push_back(d);
  }

  base.num_nodes = next_node;
  return base;
}

FuzzNetlist generate_charge_share(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kChargeShare;
  const int n = 2 + static_cast<int>(rng.uniform_index(4));  // 2..5 nodes
  base.num_nodes = n;
  base.temperature_c = rng.uniform(0.0, 85.0);
  base.t_stop = 20e-9;
  base.dt = 1e-10;
  int serial = 0;

  for (int k = 0; k < n; ++k) {
    FuzzDevice c;
    c.kind = FuzzDevice::Kind::kCapacitor;
    c.name = "C";
    c.name += std::to_string(++serial);
    c.n1 = k;
    c.n2 = -1;
    c.value = rng.uniform(1e-15, 10e-15);
    c.ic = rng.uniform(0.0, 1.2);
    c.has_ic = true;
    base.devices.push_back(c);
  }

  // A connecting chain over a random node order guarantees charge actually
  // moves, plus a few extra cross links. Resistors never touch ground —
  // that is what makes Σ C·V an invariant of the network.
  const auto order = rng.permutation(static_cast<std::size_t>(n));
  const int extra = static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k + 1 < n + extra; ++k) {
    FuzzDevice r;
    r.kind = FuzzDevice::Kind::kResistor;
    r.name = "R";
    r.name += std::to_string(++serial);
    if (k + 1 < n) {
      r.n1 = static_cast<int>(order[static_cast<std::size_t>(k)]);
      r.n2 = static_cast<int>(order[static_cast<std::size_t>(k) + 1]);
    } else {
      r.n1 = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      do {
        r.n2 =
            static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      } while (r.n2 == r.n1);
    }
    r.value = log_uniform(rng, 1e3, 1e6);
    base.devices.push_back(r);
  }
  return base;
}

FuzzNetlist generate_subthreshold(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kSubthresholdTemp;
  base.num_nodes = 2;  // n0 = gate, n1 = drain
  base.temperature_c = 27.0;

  FuzzDevice m;
  m.kind = FuzzDevice::Kind::kMosfet;
  m.name = "M1";
  m.n1 = 1;
  m.n2 = 0;
  m.n3 = -1;
  m.mos = devices::MosfetParams::finfet14_nmos(rng.uniform(0.5, 8.0));
  m.mos.vth0 = rng.uniform(0.25, 0.45);
  m.mos.n_factor = rng.uniform(1.1, 1.6);
  if (rng.bernoulli(0.3)) {
    // FeFET-like: the ferroelectric contributes an extra threshold shift
    // on top of a zero-vth0 channel (exactly how fefet::FeFet stamps).
    const double shift = m.mos.vth0;
    m.mos.vth0 = 0.0;
    m.fefet_state = 1;
    m.ic = shift;  // reuse: extra threshold shift for the invariant check
    m.has_ic = true;
  }
  base.devices.push_back(m);

  FuzzDevice vg;
  vg.kind = FuzzDevice::Kind::kVSource;
  vg.name = "VG";
  vg.n1 = 0;
  vg.n2 = -1;
  const double vth_total = (m.has_ic ? m.ic : m.mos.vth0);
  vg.value = vth_total - rng.uniform(0.08, 0.25);  // firmly subthreshold
  base.devices.push_back(vg);

  FuzzDevice vd;
  vd.kind = FuzzDevice::Kind::kVSource;
  vd.name = "VD";
  vd.n1 = 1;
  vd.n2 = -1;
  vd.value = rng.uniform(0.6, 1.2);
  base.devices.push_back(vd);
  return base;
}

FuzzNetlist generate_cim_row(util::Rng& rng, FuzzNetlist base) {
  base.cls = FuzzClass::kCimRow;
  const int cells = 2 + static_cast<int>(rng.uniform_index(2));  // 2..3
  base.num_nodes = cells;  // reused as the cell count
  base.temperature_c = rng.uniform(0.0, 85.0);
  for (int k = 0; k < cells; ++k) {
    FuzzDevice d;  // pseudo-device: per-cell (weight, input) pair
    d.kind = FuzzDevice::Kind::kFeFet;
    d.name = "CELL" + std::to_string(k);
    d.n1 = k;
    d.fefet_state = rng.bernoulli(0.5) ? 1 : 0;  // stored weight
    d.ic = rng.bernoulli(0.5) ? 1.0 : 0.0;       // input bit
    d.has_ic = true;
    base.devices.push_back(d);
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
  if (options.include_cim_rows && index % 25 == 13) {
    return generate_cim_row(rng, std::move(base));
  }
  switch (index % 3) {
    case 0: return generate_dc_kcl(rng, std::move(base));
    case 1: return generate_charge_share(rng, std::move(base));
    default: return generate_subthreshold(rng, std::move(base));
  }
}

// ---------------------------------------------------------------------------
// Instantiation and .cir export
// ---------------------------------------------------------------------------

void FuzzNetlist::build(spice::Circuit& circuit) const {
  for (const FuzzDevice& d : devices) {
    switch (d.kind) {
      case FuzzDevice::Kind::kResistor:
        circuit.add<spice::Resistor>(d.name, node_id(circuit, d.n1),
                                     node_id(circuit, d.n2), d.value);
        break;
      case FuzzDevice::Kind::kCapacitor:
        circuit.add<spice::Capacitor>(
            d.name, node_id(circuit, d.n1), node_id(circuit, d.n2), d.value,
            d.has_ic ? d.ic : spice::Capacitor::kNoIc);
        break;
      case FuzzDevice::Kind::kVSource:
        circuit.add<spice::VSource>(d.name, node_id(circuit, d.n1),
                                    node_id(circuit, d.n2), d.value);
        break;
      case FuzzDevice::Kind::kISource:
        circuit.add<spice::ISource>(d.name, node_id(circuit, d.n1),
                                    node_id(circuit, d.n2), d.value);
        break;
      case FuzzDevice::Kind::kDiode:
        circuit.add<devices::Diode>(d.name, node_id(circuit, d.n1),
                                    node_id(circuit, d.n2), d.dio);
        break;
      case FuzzDevice::Kind::kMosfet:
        circuit.add<devices::Mosfet>(d.name, node_id(circuit, d.n1),
                                     node_id(circuit, d.n2),
                                     node_id(circuit, d.n3), d.mos);
        break;
      case FuzzDevice::Kind::kFeFet: {
        auto& z = circuit.add<fefet::FeFet>(d.name, node_id(circuit, d.n1),
                                            node_id(circuit, d.n2),
                                            node_id(circuit, d.n3));
        z.ferroelectric().set_polarization(d.fefet_state ? 1.0 : -1.0);
        break;
      }
    }
  }
}

std::string FuzzNetlist::to_cir(const std::string& failure_note) const {
  std::ostringstream ss;
  char buf[64];
  const auto num = [&buf](double v) -> const char* {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  };
  ss << "* fuzz reproducer: class=" << fuzz_class_name(cls)
     << " index=" << index << " seed=0x" << std::hex << seed << std::dec
     << "\n";
  if (!failure_note.empty()) ss << "* invariant violated: " << failure_note << "\n";
  if (cls == FuzzClass::kCimRow) {
    ss << "* paper-shaped CiM row (built by cim::CiMRow, not from cards):\n"
       << "*   cells=" << num_nodes << " T=" << num(temperature_c) << "\n";
    for (const FuzzDevice& d : devices) {
      ss << "*   " << d.name << " weight=" << d.fefet_state
         << " input=" << (d.ic > 0.5 ? 1 : 0) << "\n";
    }
    ss << ".end\n";
    return ss.str();
  }
  for (const FuzzDevice& d : devices) {
    switch (d.kind) {
      case FuzzDevice::Kind::kResistor:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << num(d.value) << "\n";
        break;
      case FuzzDevice::Kind::kCapacitor:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << num(d.value);
        if (d.has_ic) ss << " ic=" << num(d.ic);
        ss << "\n";
        break;
      case FuzzDevice::Kind::kVSource:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << num(d.value) << "\n";
        break;
      case FuzzDevice::Kind::kISource:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << num(d.value) << "\n";
        break;
      case FuzzDevice::Kind::kDiode:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " is=" << num(d.dio.i_sat) << " n=" << num(d.dio.emission)
           << "\n";
        break;
      case FuzzDevice::Kind::kMosfet: {
        const std::string model = "mod_" + d.name;
        // For the FeFET-like subthreshold variant the extra threshold
        // shift is folded into vth0 (bit-equivalent for a fixed state).
        const double vth0 = d.has_ic ? d.ic : d.mos.vth0;
        // .model must precede the instance card for the parser.
        ss << ".model " << model << " nmos vth0=" << num(vth0);
        ss << " n=" << num(d.mos.n_factor) << " mu0=" << num(d.mos.mu0)
           << " cox=" << num(d.mos.cox) << " lambda=" << num(d.mos.lambda)
           << " tcvth=" << num(d.mos.tc_vth)
           << " muexp=" << num(d.mos.mu_exponent)
           << " tnom=" << num(d.mos.t_nominal_c) << "\n";
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << node_name(d.n3) << " " << model << " w=" << num(d.mos.w)
           << " l=" << num(d.mos.l) << "\n";
        break;
      }
      case FuzzDevice::Kind::kFeFet:
        ss << d.name << " " << node_name(d.n1) << " " << node_name(d.n2)
           << " " << node_name(d.n3) << " state=" << d.fefet_state << "\n";
        break;
    }
  }
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
  nl.build(circuit);
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
  lint::IntervalOptions iopt;
  iopt.gmin_max = op.gmin_used;
  const lint::OperatingIntervals iv =
      lint::compute_operating_intervals(circuit, nullptr, iopt);
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
  nl.build(circuit);
  double q_start = 0.0, c_total = 0.0, q_scale = 0.0;
  for (const FuzzDevice& d : nl.devices) {
    if (d.kind != FuzzDevice::Kind::kCapacitor) continue;
    q_start += d.value * (d.has_ic ? d.ic : 0.0);
    q_scale += d.value * std::fabs(d.has_ic ? d.ic : 0.0);
    c_total += d.value;
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
      lint::compute_operating_intervals(circuit, nullptr, {});
  double q_end = 0.0;
  for (const FuzzDevice& d : nl.devices) {
    if (d.kind != FuzzDevice::Kind::kCapacitor) continue;
    const std::string node = node_name(d.n1);
    if (!tr.has_signal(node)) continue;
    const double v = tr.final_value(node);
    q_end += d.value * v;
    out.observable = hash_double(out.observable, v);
    if (d.n1 >= 0) {
      // build() numbers circuit nodes in card order, not by fuzz index.
      const lint::Interval bound = iv.envelope_at(*circuit.find_node(node));
      if (bound.is_empty() ||
          !bound.widened(1e-6 * (1.0 + std::fabs(v))).contains(v)) {
        std::ostringstream msg;
        msg << "transient final value " << Json::format_number(v)
            << " at node " << node << " escapes static envelope "
            << bound.str();
        out.failure = fail("envelope_escape", msg.str());
        return out;
      }
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
  const FuzzDevice* mosfet = nullptr;
  const FuzzDevice *vg = nullptr, *vd = nullptr;
  for (const FuzzDevice& d : nl.devices) {
    if (d.kind == FuzzDevice::Kind::kMosfet) mosfet = &d;
    if (d.kind == FuzzDevice::Kind::kVSource && d.name == "VG") vg = &d;
    if (d.kind == FuzzDevice::Kind::kVSource && d.name == "VD") vd = &d;
  }
  if (!mosfet || !vg || !vd) return out;  // vacuous after shrinking
  const double vth_extra = mosfet->has_ic ? mosfet->ic : 0.0;
  double prev = -1.0;
  for (double t = 0.0; t <= 85.0 + 1e-9; t += 5.0) {
    const devices::MosfetEval e = devices::evaluate_mosfet(
        mosfet->mos, vg->value, vd->value, 0.0, t, vth_extra);
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
  if (nl.devices.empty()) return out;
  std::vector<int> stored, inputs;
  for (const FuzzDevice& d : nl.devices) {
    stored.push_back(d.fefet_state);
    inputs.push_back(d.ic > 0.5 ? 1 : 0);
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
  switch (nl.cls) {
    case FuzzClass::kDcKcl: return check_dc_kcl(nl, opt);
    case FuzzClass::kChargeShare: return check_charge_share(nl, opt);
    case FuzzClass::kSubthresholdTemp: return check_subthreshold(nl, opt);
    case FuzzClass::kCimRow: return check_cim_row(nl, opt);
  }
  return {};
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
  while (progress && current.devices.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < current.devices.size(); ++i) {
      FuzzNetlist candidate = current;
      candidate.devices.erase(candidate.devices.begin() +
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
       << f.devices_before_shrink << " -> " << f.devices_after_shrink
       << " devices";
    if (!f.reproducer_path.empty()) ss << ", reproducer: " << f.reproducer_path;
  }
  return ss.str();
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < options.count; ++i) {
    const FuzzNetlist nl = generate_netlist(options, i);
    ++report.per_class[static_cast<int>(nl.cls)];
    CheckResult r = check_case(nl, options);
    h = hash_double(h, static_cast<double>(r.observable));
    ++report.executed;

    // Static-analysis cross-check: every generated-valid card-based deck
    // must come out of the linter with zero diagnostics (the cim_row class
    // dumps a comment-only provenance deck, which has nothing to lint).
    if (!r.failure && nl.cls != FuzzClass::kCimRow) {
      const lint::LintResult linted = lint::lint_source(nl.to_cir());
      if (!linted.report.clean()) {
        r.failure = fail("lint_clean", "generated-valid deck produced " +
                                           std::to_string(
                                               linted.report.diagnostics()
                                                   .size()) +
                                           " diagnostic(s):\n" +
                                           linted.report.to_text());
      }
    }
    if (!r.failure) continue;

    FuzzFailure f;
    f.index = i;
    f.cls = nl.cls;
    f.invariant = r.failure->invariant;
    f.detail = r.failure->detail;
    f.devices_before_shrink = static_cast<int>(nl.devices.size());
    f.minimized = shrink_netlist(nl, options);
    f.devices_after_shrink = static_cast<int>(f.minimized.devices.size());
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
