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

std::vector<SweepPoint> run_sweep(Circuit& circuit, const SweepSpec& spec) {
  if (!spec.apply) {
    throw std::invalid_argument("run_sweep: SweepSpec::apply is required");
  }
  SFC_TRACE_SPAN("spice.run_sweep");
  SFC_TRACE_COUNT("spice.sweep.points", spec.values.size());
  Engine engine(circuit, spec.temperature_c);
  std::vector<SweepPoint> points(spec.values.size());
  const std::vector<double>* warm = nullptr;  // last converged solution
  for (std::size_t i = 0; i < points.size(); ++i) {
    SweepPoint& p = points[i];
    p.value = spec.values[i];
    spec.apply(circuit, p.value);
    p.op = engine.dc_operating_point(spec.options, warm);
    if (p.op.converged) warm = &p.op.x;
  }
  return points;
}

}  // namespace sfc::spice
