// Semantic lint passes: consume the LintContext's operating-point
// intervals and FeFET device physics to prove (or refute) the paper's
// operating regime statically — before any Newton iteration runs.
//
// Temperature handling: a pass evaluates its device law at the corner
// temperatures of the deck's range (the .temp value, or the paper's full
// 0-85 degC envelope when unspecified) plus the memory-window clamp point
// when it falls inside. Every law involved is piecewise linear in T, so
// corner evaluation bounds the whole range exactly.
#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "fefet/fefet.hpp"
#include "lint/rules.hpp"

namespace sfc::lint {
namespace passes {
namespace {

using spice::NodeId;

/// subthreshold-window: required head-room between the worst-case FeFET
/// gate-source bias and the high-VTH (erased) state threshold [V].
constexpr double kSubthresholdMargin = 0.1;
/// vth-temp-drift: minimum acceptable memory window anywhere in the
/// temperature range [V].
constexpr double kMinMemoryWindow = 0.2;
/// adc-range: readout full scale [V]; mirrors cim::ReadBias::v_bl.
constexpr double kAdcFullScale = 1.2;
/// adc-range: slack added to the full scale before flagging [V].
constexpr double kAdcTolerance = 1e-6;

/// Corner temperatures of [lo, hi] for the FeFET threshold laws: the two
/// endpoints plus the temperature where the memory-window shrink clamps
/// to zero (mw(T) = mw0 * max(1 + tc_mw (T - T0), 0)), if interior. All
/// threshold expressions are linear between these points.
std::vector<double> corner_temps(double lo, double hi,
                                 const fefet::PreisachParams& p) {
  std::vector<double> t = {lo};
  if (hi != lo) t.push_back(hi);
  if (p.tc_mw != 0.0) {
    const double clamp = p.t_nominal_c - 1.0 / p.tc_mw;
    if (clamp > lo && clamp < hi) t.push_back(clamp);
  }
  return t;
}

/// Effective threshold of the fully programmed ('1', low) or erased
/// ('0', high) state at a temperature, composed from the same model
/// pieces the solver uses (channel tempco, Preisach window, MC shift) so
/// the static check can never drift from the dynamic model.
double state_vth(const fefet::FeFet& z, double temp_c, bool high_state) {
  const fefet::PreisachParams& p = z.ferroelectric().params();
  const double mid = 0.5 * (p.vth_low + p.vth_high);
  const double half_mw = 0.5 * z.ferroelectric().memory_window(temp_c);
  return z.params().vth(temp_c) + mid + (high_state ? half_mw : -half_mw) +
         z.vth_shift();
}

/// FeFETs grouped by their (non-ground) drain node — the CiM bitline
/// structure. Groups with >= 2 cells are treated as bitlines by the
/// array-shape and ADC-range passes. std::map keeps diagnostics ordered.
std::map<NodeId, std::vector<const fefet::FeFet*>> group_by_drain(
    const spice::Circuit& circuit) {
  std::map<NodeId, std::vector<const fefet::FeFet*>> groups;
  for (const auto& dev : circuit.devices()) {
    const auto* z = dynamic_cast<const fefet::FeFet*>(dev.get());
    if (!z) continue;
    const NodeId drain = z->terminals()[0];
    if (drain == spice::kGround) continue;
    groups[drain].push_back(z);
  }
  return groups;
}

}  // namespace

void subthreshold_window(const LintContext& ctx, LintReport& out) {
  const OperatingIntervals& iv = ctx.intervals;
  for (const auto& dev : ctx.circuit.devices()) {
    const auto* z = dynamic_cast<const fefet::FeFet*>(dev.get());
    if (!z) continue;
    const auto t = z->terminals();  // {drain, gate, source}
    const Interval vgs = iv.envelope_at(t[1]) - iv.envelope_at(t[2]);
    if (!vgs.is_bounded()) {
      Diagnostic d;
      d.rule = "subthreshold-window";
      d.severity = Severity::kNote;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() +
                  "' gate-source bias is not statically boundable (" +
                  vgs.str() + "); the subthreshold window cannot be proved";
      d.hint =
          "current sources or floating capacitors near the gate "
          "defeat the interval analysis — bias the gate resistively from a "
          "voltage source to make the window checkable";
      out.add(std::move(d));
      continue;
    }

    const fefet::PreisachParams& p = z->ferroelectric().params();
    double worst_vth = std::numeric_limits<double>::infinity();
    double worst_temp = iv.temp_lo;
    for (double temp : corner_temps(iv.temp_lo, iv.temp_hi, p)) {
      const double vth = state_vth(*z, temp, /*high_state=*/true);
      if (vth < worst_vth) {
        worst_vth = vth;
        worst_temp = temp;
      }
    }

    if (vgs.hi() > worst_vth - kSubthresholdMargin) {
      Diagnostic d;
      d.rule = "subthreshold-window";
      d.severity = Severity::kError;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() + "' gate-source bias may reach " +
                  fmt(vgs.hi()) + " V while the erased (high-VTH) state "
                  "threshold drops to " + fmt(worst_vth) + " V at " +
                  fmt(worst_temp) + " degC — less than the " +
                  fmt(kSubthresholdMargin) +
                  " V subthreshold margin, so a stored '0' may conduct";
      d.hint =
          "lower the read/wordline bias (paper operating point: 0.35 V) or "
          "widen the programming window; the temperature-resilience claim "
          "needs every erased cell off across the whole range";
      out.add(std::move(d));
      continue;
    }

    // Read disturb: worst-case |VGS| against the weakest ferroelectric
    // domain (mean coercive voltage minus three sigma) at the corner
    // where vc is lowest. No extra margin here — the check flags bias
    // that can actually flip domains, not conservative headroom.
    const double peak = std::max(vgs.hi(), -vgs.lo());
    double weakest_vc = std::numeric_limits<double>::infinity();
    double weakest_temp = iv.temp_lo;
    for (double temp : {iv.temp_lo, iv.temp_hi}) {
      const double vc =
          p.vc_mean + p.tc_vc * (temp - p.t_nominal_c) - 3.0 * p.vc_sigma;
      if (vc < weakest_vc) {
        weakest_vc = vc;
        weakest_temp = temp;
      }
    }
    if (peak > weakest_vc) {
      Diagnostic d;
      d.rule = "subthreshold-window";
      d.severity = Severity::kWarning;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() + "' gate bias may reach " +
                  fmt(peak) + " V, above the weakest domain coercive "
                  "voltage " + fmt(weakest_vc) + " V (vc - 3 sigma at " +
                  fmt(weakest_temp) + " degC): repeated reads will disturb "
                  "the stored polarization";
      d.hint =
          "keep read pulses below the coercive tail or refresh the cell "
          "periodically (see PreisachModel::read_disturb)";
      out.add(std::move(d));
    }
  }
}

void vth_temp_drift(const LintContext& ctx, LintReport& out) {
  for (const auto& dev : ctx.circuit.devices()) {
    const auto* z = dynamic_cast<const fefet::FeFet*>(dev.get());
    if (!z) continue;
    const fefet::PreisachParams& p = z->ferroelectric().params();

    // Cell robustness is a property of the device, not of today's deck:
    // always check the paper's full temperature envelope.
    double min_mw = std::numeric_limits<double>::infinity();
    double min_mw_temp = 0.0;
    double min_low_vth = std::numeric_limits<double>::infinity();
    double min_low_temp = 0.0;
    for (double temp : corner_temps(0.0, 85.0, p)) {
      const double mw = z->ferroelectric().memory_window(temp);
      if (mw < min_mw) {
        min_mw = mw;
        min_mw_temp = temp;
      }
      const double low = state_vth(*z, temp, /*high_state=*/false);
      if (low < min_low_vth) {
        min_low_vth = low;
        min_low_temp = temp;
      }
    }

    if (min_mw <= 0.0) {
      Diagnostic d;
      d.rule = "vth-temp-drift";
      d.severity = Severity::kError;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() +
                  "' memory window collapses to zero at " + fmt(min_mw_temp) +
                  " degC (tc_mw = " + fmt(p.tc_mw) +
                  " /K): stored states become indistinguishable inside the "
                  "0-85 degC range";
      d.hint =
          "reduce |tc_mw| or widen vthlow/vthhigh so the window survives "
          "the full temperature envelope";
      out.add(std::move(d));
      continue;
    }
    if (min_mw < kMinMemoryWindow) {
      Diagnostic d;
      d.rule = "vth-temp-drift";
      d.severity = Severity::kWarning;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() + "' memory window shrinks to " +
                  fmt(min_mw) + " V at " + fmt(min_mw_temp) +
                  " degC, below the " + fmt(kMinMemoryWindow) +
                  " V minimum for reliable sensing";
      d.hint =
          "the paper's reference window is 1.45 V at 27 degC; check the "
          "programming pulse amplitude/width";
      out.add(std::move(d));
    }
    if (min_low_vth <= 0.0) {
      Diagnostic d;
      d.rule = "vth-temp-drift";
      d.severity = Severity::kWarning;
      d.line = dev->source_line();
      d.object = dev->name();
      d.message = "FeFET '" + dev->name() +
                  "' programmed (low-VTH) state drifts to " +
                  fmt(min_low_vth) + " V at " + fmt(min_low_temp) +
                  " degC: the cell conducts even with its wordline at 0 V "
                  "and leaks into the bitline when deselected";
      d.hint = "raise vthlow or reduce the channel tc_vth magnitude";
      out.add(std::move(d));
    }
  }
}

void cim_array_shape(const LintContext& ctx, LintReport& out) {
  const auto groups = group_by_drain(ctx.circuit);
  const NodeIncidence& incidence = ctx.incidence;

  // Ragged-array bookkeeping across all bitlines (>= 2 cells each).
  NodeId first_bl = spice::kGround;
  std::size_t first_count = 0;

  for (const auto& [bl, cells] : groups) {
    if (cells.size() < 2) continue;  // not a bitline, just one cell

    // Duplicate wordline: two cells on one bitline sharing a gate node
    // would add their weight twice into the MAC sum.
    std::map<NodeId, const fefet::FeFet*> by_gate;
    for (const fefet::FeFet* z : cells) {
      const NodeId gate = z->terminals()[1];
      const auto [it, inserted] = by_gate.emplace(gate, z);
      if (inserted) continue;
      Diagnostic d;
      d.rule = "cim-array-shape";
      d.severity = Severity::kError;
      d.line = z->source_line();
      d.object = z->name();
      d.message = "cells '" + it->second->name() + "' and '" + z->name() +
                  "' on bitline '" + ctx.circuit.node_name(bl) +
                  "' share wordline '" + ctx.circuit.node_name(gate) + "'";
      d.hint =
          "each wordline may select at most one cell per bitline, or its "
          "input counts twice in the analog MAC sum";
      out.add(std::move(d));
    }

    // Sense / reference branch: the bitline must connect to something
    // besides the cells themselves, or the accumulated current has
    // nowhere to be read (Fig. 2's sense resistor / charge-share cap).
    bool has_sense = false;
    for (const auto& touch :
         incidence.touches[static_cast<std::size_t>(bl)]) {
      if (dynamic_cast<const fefet::FeFet*>(touch.device) == nullptr) {
        has_sense = true;
        break;
      }
    }
    if (!has_sense) {
      Diagnostic d;
      d.rule = "cim-array-shape";
      d.severity = Severity::kError;
      d.line = cells.front()->source_line();
      d.object = ctx.circuit.node_name(bl);
      d.message = "bitline '" + ctx.circuit.node_name(bl) + "' has " +
                  std::to_string(cells.size()) +
                  " FeFET cells but no sense or reference branch";
      d.hint =
          "attach the read source / sense network to the bitline (the "
          "paper's VBL + series sense path)";
      out.add(std::move(d));
    }

    if (first_count == 0) {
      first_bl = bl;
      first_count = cells.size();
    } else if (cells.size() != first_count) {
      Diagnostic d;
      d.rule = "cim-array-shape";
      d.severity = Severity::kWarning;
      d.line = cells.front()->source_line();
      d.object = ctx.circuit.node_name(bl);
      d.message = "CiM array is ragged: bitline '" +
                  ctx.circuit.node_name(first_bl) + "' has " +
                  std::to_string(first_count) + " cells but bitline '" +
                  ctx.circuit.node_name(bl) + "' has " +
                  std::to_string(cells.size());
      d.hint =
          "pad missing cells with erased (high-VTH) devices so every "
          "column sees the same wordline fan-in";
      out.add(std::move(d));
    }
  }
}

void adc_range(const LintContext& ctx, LintReport& out) {
  const OperatingIntervals& iv = ctx.intervals;
  for (const auto& [bl, cells] : group_by_drain(ctx.circuit)) {
    if (cells.size() < 2) continue;
    const Interval v = iv.envelope_at(bl);
    if (!v.is_bounded()) {
      Diagnostic d;
      d.rule = "adc-range";
      d.severity = Severity::kNote;
      d.line = cells.front()->source_line();
      d.object = ctx.circuit.node_name(bl);
      d.message = "readout node '" + ctx.circuit.node_name(bl) +
                  "' is not statically boundable (" + v.str() +
                  "); ADC range compliance cannot be proved";
      d.hint =
          "drive the bitline from voltage sources through resistive paths "
          "to make its swing checkable";
      out.add(std::move(d));
      continue;
    }
    if (v.hi() > kAdcFullScale + kAdcTolerance || v.lo() < -kAdcTolerance) {
      Diagnostic d;
      d.rule = "adc-range";
      d.severity = Severity::kWarning;
      d.line = cells.front()->source_line();
      d.object = ctx.circuit.node_name(bl);
      d.message = "readout node '" + ctx.circuit.node_name(bl) +
                  "' may swing over " + v.str() +
                  " V, outside the ADC full scale [0, " +
                  fmt(kAdcFullScale) + "] V";
      d.hint =
          "rescale the bitline bias or the sense gain (ReadBias::v_bl); "
          "codes past full scale clip and corrupt the MAC result";
      out.add(std::move(d));
    }
  }
}

}  // namespace passes
}  // namespace sfc::lint
