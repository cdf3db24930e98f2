#include "spice/sweep.hpp"

#include <cmath>
#include <stdexcept>

#include "trace/trace.hpp"

namespace sfc::spice {

std::vector<double> linspace_step(double lo, double hi, double step) {
  // NaN, infinite or negative: a zero or non-finite step, a non-finite
  // bound, or a step that walks away from hi. Below 2^64 the count casts.
  const double intervals = (hi - lo) / step;
  if (step == 0.0 || !std::isfinite(step) ||
      !(intervals >= 0.0 && intervals < 0x1p64)) {
    throw std::invalid_argument(
        "linspace_step: need a finite non-zero step toward hi and finite "
        "bounds");
  }
  std::vector<double> values;
  const auto count = static_cast<std::size_t>(std::floor(intervals + 1e-9)) + 1;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(lo + static_cast<double>(i) * step);
  }
  if (std::fabs(values.back() - hi) > std::fabs(step) * 1e-6) {
    values.push_back(hi);
  }
  return values;
}

std::vector<double> linspace_count(double lo, double hi, std::size_t n) {
  if (n < 2) {
    throw std::invalid_argument("linspace_count: need at least 2 points");
  }
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return values;
}

std::vector<SweepPoint> run_sweep(Circuit& circuit, const SweepSpec& spec,
                                  const sfc::exec::ExecPolicy& exec,
                                  sfc::exec::JobReport* report) {
  SFC_TRACE_SPAN("spice.run_sweep");
  SFC_TRACE_COUNT("spice.sweep.points", spec.values.size());
  // Every point writes its own slot and returns whether it converged, so
  // the job report tallies failed points.
  std::vector<SweepPoint> points(spec.values.size());
  sfc::exec::JobReport job;
  if (spec.continuation) {
    // Point k warm-starts from point k-1's solution: a strictly serial
    // recurrence on the original circuit (the historical dc_sweep
    // behaviour), which a one-thread job runs inline in index order.
    Engine engine(circuit, spec.temperature_c);
    std::vector<double> warm;
    job = sfc::exec::parallel_for(
        sfc::exec::ExecPolicy::serial(), points.size(), [&](std::size_t i) {
          SweepPoint& p = points[i];
          p.value = spec.values[i];
          if (spec.apply) spec.apply(circuit, p.value);
          p.op = engine.dc_operating_point(spec.options,
                                           warm.empty() ? nullptr : &warm);
          if (p.op.converged) warm = p.op.x;
          return p.op.converged;
        });
  } else {
    // Independent points: every point solves a private clone — also in the
    // serial case, so the result never depends on the thread count (device
    // state mutated by one solve cannot leak into another point).
    job = sfc::exec::parallel_for(exec, points.size(), [&](std::size_t i) {
      SweepPoint& p = points[i];
      p.value = spec.values[i];
      Circuit local = circuit.clone();
      double temperature = spec.temperature_c;
      if (spec.apply) {
        spec.apply(local, p.value);
      } else {
        temperature = p.value;  // temperature sweep
      }
      Engine engine(local, temperature);
      p.op = engine.dc_operating_point(spec.options);
      return p.op.converged;
    });
  }
  if (report) *report = std::move(job);
  return points;
}

}  // namespace sfc::spice
