#include "lint/rules.hpp"

#include <cstdio>
#include <string>
#include <unordered_set>

#include "spice/primitives.hpp"

namespace sfc::lint {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

namespace {

using spice::Device;
using spice::NodeId;

// ------------------------------------------------------------------ rules

void rule_floating_node(const LintContext& ctx, LintReport& out) {
  const spice::Circuit& c = ctx.circuit;
  const std::size_t n = c.num_nodes();
  if (n == 0) return;
  const ConductionComponents& comps = ctx.components;
  const NodeIncidence& incidence = ctx.incidence;
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
    // A voltage source fixes its branch voltage whatever the current, so
    // a loop of them (or a shorted one) makes the MNA matrix singular.
    if (dynamic_cast<const spice::VSource*>(dev.get()) == nullptr) continue;
    const auto t = dev->terminals();
    const NodeId a = t[0];
    const NodeId b = t[1];
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
  const NodeIncidence& incidence = ctx.incidence;
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
  const NodeIncidence& incidence = ctx.incidence;
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
       "loop or short of voltage-source branches", rule_vsource_loop},
      {"dangling-terminal", Severity::kWarning,
       "a node is touched by exactly one device terminal",
       rule_dangling_terminal},
      {"unused-node", Severity::kNote,
       "a declared node is touched by no device", rule_unused_node},
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

const std::vector<ParseRuleInfo>& parse_rules() {
  static const std::vector<ParseRuleInfo> rules = {
      {"duplicate-device", "device name redefined (both lines reported)"},
      {"duplicate-model", ".model name redefined (both lines reported)"},
      {"duplicate-subckt", ".subckt name redefined (both lines reported)"},
      {"undefined-model", "M card references a model never defined"},
      {"undefined-subckt", "X card references a subcircuit never defined"},
      {"subckt-port-mismatch", "X card node count != .subckt port count"},
      {"nonpositive-value", "device card with a non-positive element value"},
      {"fefet-vth-window", "FeFET card with vthlow >= vthhigh"},
      {"unknown-card", "unrecognized device card letter"},
      {"unknown-directive", "unrecognized dot directive"},
      {"parse-error", "malformed card (missing node/value, bad number, ...)"},
  };
  return rules;
}

}  // namespace sfc::lint
