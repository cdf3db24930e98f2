#include "lint/rules.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "fefet/fefet.hpp"
#include "spice/primitives.hpp"

namespace sfc::lint {
namespace {

using spice::Device;
using spice::NodeId;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ------------------------------------------------------------------ rules

void rule_floating_node(const LintContext& ctx, LintReport& out) {
  const spice::Circuit& c = ctx.circuit;
  const std::size_t n = c.num_nodes();
  if (n == 0) return;
  const bool caps_conduct = !ctx.deck || !ctx.deck->tran.empty();
  const ConductionComponents& comps = ctx.analyses.components(caps_conduct);
  const NodeIncidence& incidence = ctx.analyses.incidence();
  const std::size_t ground = comps.component_of(spice::kGround);
  // One diagnostic per disconnected island, anchored at its first device.
  std::unordered_set<std::size_t> reported;
  for (std::size_t i = 0; i < n; ++i) {
    if (incidence.touches[i].empty()) continue;  // unused-node's job
    const std::size_t root = comps.root[i];
    if (root == ground || reported.count(root) != 0) continue;
    reported.insert(root);
    std::string nodes;
    std::size_t line = 0;
    for (std::size_t j = i; j < n; ++j) {
      if (comps.root[j] != root || incidence.touches[j].empty()) continue;
      if (!nodes.empty()) nodes += "', '";
      nodes += c.node_name(static_cast<NodeId>(j));
      for (const auto& touch : incidence.touches[j]) {
        const std::size_t l = touch.device->source_line();
        if (l && (line == 0 || l < line)) line = l;
      }
    }
    Diagnostic d;
    d.rule = "floating-node";
    d.severity = Severity::kError;
    d.line = line;
    d.object = c.node_name(static_cast<NodeId>(i));
    d.message = "node(s) '" + nodes + "' have no DC path to ground";
    d.hint =
        "add a resistive path to ground or reference the island from a "
        "source; the solver would otherwise rely on gmin leakage and can "
        "report a singular matrix";
    out.add(std::move(d));
  }
}

void rule_vsource_loop(const LintContext& ctx, LintReport& out) {
  const spice::Circuit& c = ctx.circuit;
  const std::size_t n = c.num_nodes();
  Dsu dsu(n + 1);
  for (const auto& dev : c.devices()) {
    if (!is_voltage_defined(*dev)) continue;
    const auto [a, b] = voltage_branch(*dev);
    const std::size_t sa = node_slot(a, n);
    const std::size_t sb = node_slot(b, n);
    Diagnostic d;
    d.rule = "vsource-loop";
    d.severity = Severity::kError;
    d.line = dev->source_line();
    d.object = dev->name();
    if (sa == sb) {
      d.message = "both terminals of voltage-defined device '" + dev->name() +
                  "' connect to node '" + c.node_name(a) + "' (shorted)";
      d.hint = "remove the device or separate its terminals";
      out.add(std::move(d));
      continue;
    }
    if (dsu.find(sa) == dsu.find(sb)) {
      d.message = "voltage-defined loop closed by '" + dev->name() +
                  "' between nodes '" + c.node_name(a) + "' and '" +
                  c.node_name(b) + "'";
      d.hint =
          "voltage sources fix branch voltages; a loop of them "
          "over-determines the system — insert a series resistance";
      out.add(std::move(d));
      continue;
    }
    dsu.unite(sa, sb);
  }
}

void rule_dangling_terminal(const LintContext& ctx, LintReport& out) {
  const spice::Circuit& c = ctx.circuit;
  const NodeIncidence& incidence = ctx.analyses.incidence();
  for (std::size_t i = 0; i < incidence.touches.size(); ++i) {
    const auto& touches = incidence.touches[i];
    if (touches.size() != 1) continue;
    const auto& touch = touches.front();
    Diagnostic d;
    d.rule = "dangling-terminal";
    d.severity = Severity::kWarning;
    d.line = touch.device->source_line();
    d.object = touch.device->name();
    d.message = "node '" + c.node_name(static_cast<NodeId>(i)) +
                "' is touched only by terminal " +
                std::to_string(touch.terminal) + " of '" +
                touch.device->name() + "'";
    d.hint = "connect the node to the rest of the circuit or drop the device";
    out.add(std::move(d));
  }
}

void rule_unused_node(const LintContext& ctx, LintReport& out) {
  const spice::Circuit& c = ctx.circuit;
  const NodeIncidence& incidence = ctx.analyses.incidence();
  for (std::size_t i = 0; i < incidence.touches.size(); ++i) {
    if (!incidence.touches[i].empty()) continue;
    Diagnostic d;
    d.rule = "unused-node";
    d.severity = Severity::kNote;
    d.object = c.node_name(static_cast<NodeId>(i));
    d.message = "node '" + d.object + "' is declared but no device touches it";
    d.hint = "drop the node or wire a device to it";
    out.add(std::move(d));
  }
}

void rule_fefet_vth_window(const LintContext& ctx, LintReport& out) {
  for (const auto& dev : ctx.circuit.devices()) {
    const auto* z = dynamic_cast<const fefet::FeFet*>(dev.get());
    if (!z) continue;
    const fefet::PreisachParams& p = z->ferroelectric().params();
    if (p.vth_low < p.vth_high) continue;
    Diagnostic d;
    d.rule = "fefet-vth-window";
    d.severity = Severity::kError;
    d.line = dev->source_line();
    d.object = dev->name();
    d.message = "FeFET '" + dev->name() + "' has vthlow (" + fmt(p.vth_low) +
                " V) >= vthhigh (" + fmt(p.vth_high) +
                " V): the memory window is empty or inverted";
    d.hint = "swap or widen the thresholds (paper reference: 0.25 V / 1.7 V)";
    out.add(std::move(d));
  }
}

void rule_nonpositive_value(const LintContext& ctx, LintReport& out) {
  const auto flag = [&out](const Device& dev, const std::string& what,
                           double v) {
    Diagnostic d;
    d.rule = "nonpositive-value";
    d.severity = Severity::kError;
    d.line = dev.source_line();
    d.object = dev.name();
    d.message = "device '" + dev.name() + "' has non-positive " + what +
                " (" + fmt(v) + ")";
    d.hint = "physical element values must be > 0";
    out.add(std::move(d));
  };
  for (const auto& dev : ctx.circuit.devices()) {
    if (const auto* r = dynamic_cast<const spice::Resistor*>(dev.get())) {
      if (r->resistance() <= 0.0) flag(*dev, "resistance", r->resistance());
    } else if (const auto* c = dynamic_cast<const spice::Capacitor*>(dev.get())) {
      if (c->capacitance() <= 0.0) flag(*dev, "capacitance", c->capacitance());
    } else if (const auto* s = dynamic_cast<const spice::VSwitch*>(dev.get())) {
      if (s->params().r_on <= 0.0) flag(*dev, "on-resistance", s->params().r_on);
      if (s->params().r_off <= 0.0) {
        flag(*dev, "off-resistance", s->params().r_off);
      }
    } else if (const auto* m = dynamic_cast<const devices::Mosfet*>(dev.get())) {
      if (m->params().w <= 0.0) flag(*dev, "channel width", m->params().w);
      if (m->params().l <= 0.0) flag(*dev, "channel length", m->params().l);
    }
  }
}

void rule_tran_step(const LintContext& ctx, LintReport& out) {
  if (!ctx.deck) return;
  for (const spice::TranDirective& tr : ctx.deck->tran) {
    std::string problem;
    if (tr.dt <= 0.0) {
      problem = ".tran step " + fmt(tr.dt) + " s must be positive";
    } else if (tr.t_stop <= 0.0) {
      problem = ".tran stop time " + fmt(tr.t_stop) + " s must be positive";
    } else if (tr.dt > tr.t_stop) {
      problem = ".tran step " + fmt(tr.dt) + " s exceeds stop time " +
                fmt(tr.t_stop) + " s";
    }
    if (problem.empty()) continue;
    Diagnostic d;
    d.rule = "tran-step";
    d.severity = Severity::kError;
    d.line = tr.line;
    d.object = ".tran";
    d.message = std::move(problem);
    d.hint = "use 0 < dt <= t_stop";
    out.add(std::move(d));
  }
}

void rule_temp_range(const LintContext& ctx, LintReport& out) {
  if (!ctx.deck || !ctx.deck->has_temperature) return;
  const double t = ctx.deck->temperature_c;
  if (t >= 0.0 && t <= 85.0) return;
  Diagnostic d;
  d.rule = "temp-range";
  d.severity = Severity::kWarning;
  d.line = ctx.deck->temperature_line;
  d.object = ".temp";
  d.message = ".temp " + fmt(t) +
              " degC is outside the paper's validated 0-85 degC envelope";
  d.hint =
      "device models are calibrated for 0-85 degC (DATE'24 Figs. 1-9); "
      "results outside it are extrapolations";
  out.add(std::move(d));
}

void rule_unused_model(const LintContext& ctx, LintReport& out) {
  if (!ctx.deck) return;
  for (const spice::ModelDef& m : ctx.deck->models) {
    if (m.uses > 0) continue;
    Diagnostic d;
    d.rule = "unused-model";
    d.severity = Severity::kWarning;
    d.line = m.line;
    d.object = m.name;
    d.message = ".model '" + m.name + "' is defined but never instantiated";
    d.hint = "remove the model card or reference it from an M card";
    out.add(std::move(d));
  }
}

void rule_dc_sweep_source(const LintContext& ctx, LintReport& out) {
  if (!ctx.deck) return;
  for (const spice::DcSweepDirective& dc : ctx.deck->dc) {
    const Device* dev = ctx.circuit.find(dc.source);
    std::string problem;
    if (!dev) {
      problem = ".dc sweeps unknown source '" + dc.source + "'";
    } else if (!dynamic_cast<const spice::VSource*>(dev)) {
      problem = ".dc sweep target '" + dc.source + "' is not a voltage source";
    } else if (dc.step == 0.0) {
      problem = ".dc step is zero (sweep would never terminate)";
    }
    if (problem.empty()) continue;
    Diagnostic d;
    d.rule = "dc-sweep-source";
    d.severity = Severity::kError;
    d.line = dc.line;
    d.object = dc.source;
    d.message = std::move(problem);
    d.hint = "name a V card and use a non-zero step";
    out.add(std::move(d));
  }
}

void rule_empty_deck(const LintContext& ctx, LintReport& out) {
  if (!ctx.circuit.devices().empty()) return;
  Diagnostic d;
  d.rule = "empty-deck";
  d.severity = Severity::kNote;
  d.object = "";
  d.message = "netlist defines no devices";
  d.hint = "";
  out.add(std::move(d));
}

}  // namespace

const std::vector<Rule>& builtin_rules() {
  static const std::vector<Rule> rules = {
      {"floating-node", Severity::kError,
       "a node (island) has no DC path to ground", rule_floating_node},
      {"vsource-loop", Severity::kError,
       "loop or short of voltage-defined branches (V/E/L)",
       rule_vsource_loop},
      {"dangling-terminal", Severity::kWarning,
       "a node is touched by exactly one device terminal",
       rule_dangling_terminal},
      {"unused-node", Severity::kNote,
       "a declared node is touched by no device", rule_unused_node},
      {"fefet-vth-window", Severity::kError,
       "FeFET programmed window has vthlow >= vthhigh",
       rule_fefet_vth_window},
      {"nonpositive-value", Severity::kError,
       "non-positive R/C or MOSFET/FeFET W/L", rule_nonpositive_value},
      {"tran-step", Severity::kError, ".tran with dt <= 0 or dt > t_stop",
       rule_tran_step},
      {"temp-range", Severity::kWarning,
       ".temp outside the validated 0-85 degC envelope", rule_temp_range},
      {"unused-model", Severity::kWarning, ".model defined but never used",
       rule_unused_model},
      {"dc-sweep-source", Severity::kError,
       ".dc target missing, not a V source, or zero step",
       rule_dc_sweep_source},
      {"subthreshold-window", Severity::kError,
       "FeFET gate bias may leave the subthreshold read window over the "
       "deck's temperature range",
       passes::subthreshold_window},
      {"vth-temp-drift", Severity::kError,
       "FeFET memory window collapses or thresholds invert over 0-85 degC",
       passes::vth_temp_drift},
      {"cim-array-shape", Severity::kError,
       "CiM bitline with duplicated wordlines, ragged rows, or no sense "
       "branch",
       passes::cim_array_shape},
      {"adc-range", Severity::kWarning,
       "readout node interval exceeds the configured ADC full scale",
       passes::adc_range},
      {"empty-deck", Severity::kNote, "netlist defines no devices",
       rule_empty_deck},
  };
  return rules;
}

void validate_rule_table(const std::vector<Rule>& rules) {
  std::unordered_set<std::string> seen;
  for (const Rule& r : rules) {
    if (!seen.insert(r.id).second) {
      throw std::invalid_argument("lint: duplicate rule id '" +
                                  std::string(r.id) +
                                  "' in rule table (registration would be "
                                  "silently shadowed)");
    }
  }
}

const std::vector<ParseRuleInfo>& parse_rules() {
  static const std::vector<ParseRuleInfo> rules = {
      {"duplicate-device", "device name redefined (both lines reported)"},
      {"duplicate-model", ".model name redefined (both lines reported)"},
      {"duplicate-subckt", ".subckt name redefined (both lines reported)"},
      {"undefined-model", "M card references a model never defined"},
      {"undefined-subckt", "X card references a subcircuit never defined"},
      {"subckt-port-mismatch", "X card node count != .subckt port count"},
      {"nonpositive-value", "device card with a non-positive element value"},
      {"unknown-card", "unrecognized device card letter"},
      {"unknown-directive", "unrecognized dot directive"},
      {"parse-error", "malformed card (missing node/value, bad number, ...)"},
  };
  return rules;
}

}  // namespace sfc::lint
