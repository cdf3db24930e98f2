#include "cim/montecarlo.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "exec/stream.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace sfc::cim {

std::vector<ProcessCorner> standard_corners() {
  return {
      {"TT", 0.0, 1.0},
      {"SS", +0.030, 0.88},
      {"FF", -0.030, 1.12},
  };
}

ArrayConfig apply_corner(const ArrayConfig& cfg, const ProcessCorner& corner) {
  ArrayConfig out = cfg;
  auto shift_mos = [&](devices::MosfetParams& p) {
    p.vth0 += corner.dvth;
    p.mu0 *= corner.mobility_scale;
  };
  auto shift_fefet = [&](fefet::FeFetParams& p) {
    // Global VTH shift enters through the ferroelectric window midpoint.
    p.ferroelectric.vth_low += corner.dvth;
    p.ferroelectric.vth_high += corner.dvth;
    p.channel.mu0 *= corner.mobility_scale;
  };
  shift_fefet(out.cell2t.fefet);
  shift_fefet(out.cell1r.fefet);
  shift_mos(out.cell2t.m1);
  shift_mos(out.cell2t.m2);
  return out;
}

std::vector<double> MonteCarloResult::errors() const {
  std::vector<double> e;
  e.reserve(samples.size());
  for (const auto& s : samples) e.push_back(s.error_percent);
  return e;
}

namespace {

/// Everything one Monte Carlo run produces; merged in run order.
struct RunOutcome {
  std::vector<MonteCarloSample> samples;
  double wall_ms = 0.0;
};

}  // namespace

MonteCarloResult run_montecarlo(const ArrayConfig& cfg,
                                const MonteCarloConfig& mc) {
  SFC_TRACE_SPAN("cim.run_montecarlo");
  SFC_TRACE_COUNT("cim.mc.runs", static_cast<std::uint64_t>(std::max(0, mc.runs)));
  const int n = cfg.cells_per_row;
  MonteCarloResult result;

  std::vector<int> macs = mc.mac_values;
  if (macs.empty()) {
    for (int k = 0; k <= n; ++k) macs.push_back(k);
  }

  // Nominal (variation-free) levels first; they define both the reference
  // outputs and the level spacing that normalizes the error.
  std::vector<double> nominal;
  {
    CiMRow row(cfg);
    row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
    for (const MacResult& r : row.evaluate_levels(mc.temperature_c)) {
      if (!r.converged) result.all_converged = false;
      nominal.push_back(r.v_acc);
    }
  }
  result.nominal_levels = nominal;
  double spacing_sum = 0.0;
  for (int k = 0; k < n; ++k) {
    spacing_sum += nominal[static_cast<std::size_t>(k) + 1] -
                   nominal[static_cast<std::size_t>(k)];
  }
  result.level_spacing = std::fabs(spacing_sum) / static_cast<double>(n);
  result.full_scale =
      std::fabs(nominal[static_cast<std::size_t>(n)] - nominal[0]);
  assert(result.level_spacing > 0.0);

  // Independent runs: run k draws from the counter-based stream
  // (mc.seed, k) and simulates its own row replica, making each run a
  // pure function of its index — the determinism contract of the header.
  // Each run writes its own outcome slot and reports whether every MAC
  // cycle converged, so the job tallies failed runs. A run takes tens of
  // ms, so it times itself: two clock reads are noise at that size.
  std::vector<RunOutcome> outcomes(
      static_cast<std::size_t>(std::max(0, mc.runs)));
  result.job = sfc::exec::parallel_for(
      mc.exec, outcomes.size(), [&](std::size_t run_index) {
        const auto t0 = std::chrono::steady_clock::now();
        util::Rng rng = sfc::exec::stream_rng(mc.seed, run_index);
        std::vector<double> fe_shifts(static_cast<std::size_t>(n));
        for (auto& s : fe_shifts) s = rng.normal(0.0, mc.sigma_vt_fefet);

        CiMRow row(cfg);
        row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
        row.set_fefet_vth_shifts(fe_shifts);

        RunOutcome& outcome = outcomes[run_index];
        outcome.samples.reserve(macs.size());
        bool converged = true;
        for (int k : macs) {
          MacResult r = row.evaluate(level_inputs(n, k), mc.temperature_c);
          if (!r.converged) {
            converged = false;
            continue;
          }
          MonteCarloSample s;
          s.run = static_cast<int>(run_index);
          s.mac = k;
          s.v_acc = r.v_acc;
          const double deviation =
              std::fabs(r.v_acc - nominal[static_cast<std::size_t>(k)]);
          s.error_percent = deviation / result.full_scale * 100.0;
          s.error_levels = deviation / result.level_spacing;
          outcome.samples.push_back(s);
        }
        outcome.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        return converged;
      });

  // Merge in run order; aggregate statistics stay order-independent.
  if (result.job.failed > 0) result.all_converged = false;
  result.job.task_ms.reserve(outcomes.size());
  for (const auto& outcome : outcomes) {
    result.job.task_ms.push_back(outcome.wall_ms);
    for (const auto& s : outcome.samples) {
      result.max_error_percent =
          std::max(result.max_error_percent, s.error_percent);
      result.max_error_levels =
          std::max(result.max_error_levels, s.error_levels);
      result.samples.push_back(s);
    }
  }
  if (!result.samples.empty()) {
    double sum = 0.0;
    for (const auto& s : result.samples) sum += s.error_percent;
    result.mean_error_percent = sum / static_cast<double>(result.samples.size());
  }
  return result;
}

}  // namespace sfc::cim
