#include "spice/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "trace/trace.hpp"

namespace sfc::spice {
namespace {

/// Per-iteration clamp on any voltage update [V] (damping for exponential
/// devices).
constexpr double kMaxUpdateVoltage = 0.3;
/// Starting gmin of the DC stepping fallback [S], and its reduction factor
/// per stepping stage.
constexpr double kGminStart = 1e-3;
constexpr double kGminStepFactor = 10.0;
/// Step halvings before a transient gives up on a step.
constexpr int kMaxStepRetries = 12;

}  // namespace

Engine::Engine(Circuit& circuit, double temperature_c)
    : circuit_(circuit), temperature_c_(temperature_c) {
  circuit_.finalize();
}

void Engine::stamp_linear(const SimContext& ctx, Stamper& s) const {
  for (Device* dev : circuit_.linear_devices()) dev->stamp(ctx, s);
  // gmin from every node to ground keeps the matrix nonsingular when
  // subthreshold devices are effectively off.
  const int num_nodes = static_cast<int>(circuit_.num_nodes());
  for (int n = 0; n < num_nodes; ++n) s.add_matrix(n, n, ctx.gmin);
}

void Engine::stamp_nonlinear(const SimContext& ctx, Stamper& s) const {
  for (Device* dev : circuit_.nonlinear_devices()) dev->stamp(ctx, s);
}

void Engine::assemble(const SimContext& ctx, const std::vector<double>& x,
                      DenseMatrix& a, std::vector<double>& b) const {
  a.set_zero();
  std::fill(b.begin(), b.end(), 0.0);
  Stamper stamper(a, b, x, circuit_.num_nodes());
  stamp_linear(ctx, stamper);
  stamp_nonlinear(ctx, stamper);
}

bool Engine::apply_update(std::vector<double>& x,
                          const std::vector<double>& x_new,
                          const NewtonOptions& options) const {
  // Damped update: clamp each voltage component's change. Aux variables
  // (branch currents) are left unclamped, as their scale is unknown. Both
  // tests are written so that a NaN change never counts as small.
  const std::size_t size = x.size();
  bool converged = true;
  for (std::size_t i = 0; i < size; ++i) {
    double delta = x_new[i] - x[i];
    if (i < circuit_.num_nodes()) {
      delta = std::clamp(delta, -kMaxUpdateVoltage, kMaxUpdateVoltage);
      if (!(std::fabs(delta) < options.vtol)) converged = false;
      x[i] += delta;
    } else {
      const double tol =
          options.reltol * std::max(std::fabs(x[i]), std::fabs(x_new[i])) +
          1e-15;
      if (!(std::fabs(delta) <= tol)) converged = false;
      x[i] = x_new[i];
    }
  }
  return converged;
}

SolverWorkspace& Engine::stamp_baseline(const SimContext& ctx,
                                        const std::vector<double>& x) {
  SolverWorkspace& ws = workspaces_[static_cast<int>(ctx.mode)];
  const std::size_t size = circuit_.system_size();
  if (ws.size == size && ws.mode == ctx.mode &&
      ws.plan_version == circuit_.plan_version()) {
    SFC_TRACE_COUNT("spice.stampplan.cache_hits", 1);
  } else {
    SFC_TRACE_COUNT("spice.stampplan.compiles", 1);
    ws.a = DenseMatrix(size, size);
    ws.a_base = DenseMatrix(size, size);
    ws.b.assign(size, 0.0);
    ws.b_base.assign(size, 0.0);
    ws.pattern.assign(size * size, 0);
    ws.pattern_valid = false;
    ws.plan.reset();
    ws.size = size;
    ws.mode = ctx.mode;
    ws.plan_version = circuit_.plan_version();
  }

  // Linear devices may not read the Newton iterate (Device::is_linear
  // contract), so it is legal to build the baseline before x has
  // converged.
  ws.a_base.set_zero();
  std::fill(ws.b_base.begin(), ws.b_base.end(), 0.0);
  Stamper stamper(ws.a_base, ws.b_base, x, circuit_.num_nodes());
  if (!ws.pattern_valid) stamper.record_pattern(&ws.pattern, size);
#ifndef NDEBUG
  stamper.forbid_iterate_reads(true);
#endif
  stamp_linear(ctx, stamper);
  return ws;
}

bool Engine::plan_assemble_and_solve(const SimContext& ctx,
                                     const std::vector<double>& x,
                                     SolverWorkspace& ws) {
  ws.a.copy_from(ws.a_base);
  std::copy(ws.b_base.begin(), ws.b_base.end(), ws.b.begin());
  Stamper stamper(ws.a, ws.b, x, circuit_.num_nodes());
  if (!ws.pattern_valid) stamper.record_pattern(&ws.pattern, ws.size);
  stamp_nonlinear(ctx, stamper);
  ws.pattern_valid = true;

  // solve_frozen's schedule is pivot-robust (drift just re-records the
  // order), so a false return means a genuinely singular system —
  // exactly when factor_and_compile/lu_solve would fail too. Both solve
  // in ws.b, which the next iteration restores from b_base.
  if (!ws.plan.valid()) {
    SFC_TRACE_COUNT("spice.lu.factorizations", 1);
    return ws.plan.factor_and_compile(ws.a, ws.b, ws.pattern);
  }
  [[maybe_unused]] const std::size_t refreezes_before =
      ws.plan.refreeze_count();
  const bool factored = ws.plan.solve_frozen(ws.a, ws.b);
  SFC_TRACE_COUNT("spice.lu.frozen_solves", 1);
  SFC_TRACE_COUNT("spice.lu.refreezes",
                  ws.plan.refreeze_count() - refreezes_before);
  return factored;
}

bool Engine::newton_solve(const SimContext& ctx, std::vector<double>& x,
                          const NewtonOptions& options, int* iterations_out) {
  SFC_TRACE_SPAN("spice.newton_solve");
  circuit_.finalize();
  const bool plan = options.use_stamp_plan;
  SolverWorkspace* ws = plan ? &stamp_baseline(ctx, x) : nullptr;
  // The reference assembles and solves in buffers of its own (empty on the
  // plan path), so it reads nothing the stamp plan caches.
  const std::size_t ref_size = plan ? 0 : circuit_.system_size();
  DenseMatrix ref_a(ref_size, ref_size);
  std::vector<double> ref_b(ref_size);
  const std::vector<double>& x_new = plan ? ws->b : ref_b;

  int iters = 0;
  bool ok = false;
  while (!ok && iters < options.max_iterations) {
    ++iters;
    bool factored;
    if (plan) {
      factored = plan_assemble_and_solve(ctx, x, *ws);
    } else {
      assemble(ctx, x, ref_a, ref_b);
      SFC_TRACE_COUNT("spice.lu.dense_solves", 1);
      factored = lu_solve(ref_a, ref_b);
    }
    if (!factored) break;
    ok = apply_update(x, x_new, options) && iters > 1;
  }
  if (iterations_out) *iterations_out = iters;
  SFC_TRACE_COUNT("spice.newton.solves", 1);
  SFC_TRACE_COUNT("spice.newton.iterations", iters);
  if (!ok) SFC_TRACE_COUNT("spice.newton.failures", 1);
  return ok;
}

DcResult Engine::dc_operating_point(const NewtonOptions& options,
                                    const std::vector<double>* warm_start) {
  SFC_TRACE_SPAN("spice.dc_operating_point");
  SFC_TRACE_COUNT("spice.dc.solves", 1);
  circuit_.finalize();
  DcResult result;
  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = temperature_c_;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.num_nodes = circuit_.num_nodes();

  const std::size_t size = circuit_.system_size();
  std::vector<double> x = (warm_start && warm_start->size() == size)
                              ? *warm_start
                              : std::vector<double>(size, 0.0);

  // Plain attempt at final gmin, then gmin stepping from a large leak.
  ctx.gmin = options.gmin_final;
  bool ok = newton_solve(ctx, x, options, nullptr);

  if (!ok) {
    SFC_TRACE_COUNT("spice.dc.gmin_fallbacks", 1);
    x.assign(size, 0.0);
    double gmin = kGminStart;
    ok = true;
    while (gmin >= options.gmin_final * 0.999) {
      SFC_TRACE_COUNT("spice.newton.gmin_steps", 1);
      ctx.gmin = gmin;
      if (!newton_solve(ctx, x, options, nullptr)) {
        ok = false;
        break;
      }
      if (gmin == options.gmin_final) break;
      gmin = std::max(gmin / kGminStepFactor, options.gmin_final);
    }
  }

  result.converged = ok;
  result.gmin_used = ctx.gmin;
  result.x = x;
  for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
    result.voltages[circuit_.node_name(static_cast<NodeId>(n))] = x[n];
  }
  for (const auto& dev : circuit_.devices()) {
    if (dev->num_aux() == 1) {
      result.currents["I(" + dev->name() + ")"] =
          x[circuit_.num_nodes() + static_cast<std::size_t>(dev->aux_base())];
    }
  }
  return result;
}

std::vector<std::string> Engine::signal_names() const {
  std::vector<std::string> names;
  names.reserve(circuit_.system_size());
  for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
    names.push_back(circuit_.node_name(static_cast<NodeId>(n)));
  }
  for (const auto& dev : circuit_.devices()) {
    for (int k = 0; k < dev->num_aux(); ++k) {
      if (dev->num_aux() == 1) {
        names.push_back("I(" + dev->name() + ")");
      } else {
        names.push_back("I(" + dev->name() + "." + std::to_string(k) + ")");
      }
    }
  }
  return names;
}

std::vector<double> Engine::breakpoints(double t_stop) const {
  std::vector<double> points;
  for (const auto& dev : circuit_.devices()) {
    dev->collect_breakpoints(t_stop, points);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](double a, double b) {
                             return std::fabs(a - b) < 1e-18;
                           }),
               points.end());
  // Keep only breakpoints strictly inside (0, t_stop).
  std::vector<double> inside;
  for (double p : points) {
    if (p > 1e-18 && p < t_stop - 1e-18) inside.push_back(p);
  }
  return inside;
}

AcResult Engine::ac(const std::vector<double>& frequencies_hz,
                    const NewtonOptions& options) {
  SFC_TRACE_SPAN("spice.ac");
  circuit_.finalize();
  AcResult result;
  result.op = dc_operating_point(options);
  if (!result.op.converged) return result;

  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;  // linearization context
  ctx.temperature_c = temperature_c_;
  ctx.num_nodes = circuit_.num_nodes();

  const std::size_t size = circuit_.system_size();
  ComplexMatrix a(size, size);
  std::vector<std::complex<double>> b(size);
  result.set_signal_names(signal_names());

  for (double f : frequencies_hz) {
    const double omega = 2.0 * M_PI * f;
    a.set_zero();
    std::fill(b.begin(), b.end(), std::complex<double>{0.0, 0.0});
    AcStamper stamper(a, b, result.op.x, circuit_.num_nodes(), omega);
    for (const auto& dev : circuit_.devices()) {
      dev->stamp_ac(ctx, stamper);
    }
    for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
      a.at(n, n) += options.gmin_final;
    }
    std::vector<std::complex<double>> x = b;
    if (!lu_solve(a, x)) {
      result.converged = false;
      return result;
    }
    result.append_point(f, x);
  }
  result.converged = true;
  return result;
}

/// Logarithmic frequency grid helper for AC sweeps.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade) {
  std::vector<double> freqs;
  const double decades = std::log10(f_stop / f_start);
  const int total =
      std::max(2, static_cast<int>(decades * points_per_decade) + 1);
  for (int i = 0; i < total; ++i) {
    freqs.push_back(f_start *
                    std::pow(10.0, decades * i / (total - 1)));
  }
  return freqs;
}

TransientResult Engine::transient(double t_stop,
                                  const TransientOptions& options) {
  SFC_TRACE_SPAN("spice.transient");
  circuit_.finalize();
  TransientResult result;

  // Initial condition: DC operating point with sources at t = 0.
  DcResult dc = dc_operating_point(options.newton);
  if (!dc.converged) {
    result.converged = false;
    return result;
  }
  std::vector<double> x = dc.x;

  SimContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.method = options.method;
  ctx.temperature_c = temperature_c_;
  ctx.gmin = options.newton.gmin_final;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.num_nodes = circuit_.num_nodes();

  for (const auto& dev : circuit_.devices()) {
    dev->start_transient(ctx, x);
  }

  result.set_signal_names(signal_names());
  result.append_sample(0.0, x);

  const std::vector<double> bps = breakpoints(t_stop);
  std::size_t next_bp = 0;
  SFC_TRACE_COUNT("spice.tran.breakpoints", bps.size());

  // Running per-source power for trapezoidal energy integration.
  std::vector<double> prev_power(circuit_.devices().size(), 0.0);
  {
    std::size_t di = 0;
    for (const auto& dev : circuit_.devices()) {
      prev_power[di++] = dev->delivered_power(ctx, x);
    }
  }
  std::vector<double> energy(circuit_.devices().size(), 0.0);

  double t = 0.0;
  bool just_crossed_breakpoint = true;  // first step uses BE for robustness
  while (t < t_stop - 1e-18) {
    // Choose the step: nominal dt, clipped to the next breakpoint / stop.
    double target = t + options.dt;
    bool hits_bp = false;
    if (next_bp < bps.size() && bps[next_bp] <= target + 1e-18) {
      target = bps[next_bp];
      hits_bp = true;
    }
    if (target > t_stop) {
      target = t_stop;
      hits_bp = false;
    }
    const double dt = target - t;
    if (dt <= 0.0) {  // breakpoint coincides with current time
      ++next_bp;
      continue;
    }

    // Solve the step, halving on Newton failure.
    bool solved = false;
    std::vector<double> x_try;
    int retries = 0;
    double step = dt;
    while (retries <= kMaxStepRetries) {
      ctx.time = t + step;
      ctx.dt = step;
      ctx.method = just_crossed_breakpoint ? IntegrationMethod::kBackwardEuler
                                           : options.method;
      x_try = x;
      int iters = 0;
      if (newton_solve(ctx, x_try, options.newton, &iters)) {
        SFC_TRACE_HIST("spice.tran.newton_iterations_per_step", iters);
        solved = true;
        break;
      }
      SFC_TRACE_COUNT("spice.tran.steps_rejected", 1);
      step *= 0.5;
      ++retries;
    }
    if (!solved) {
      result.converged = false;
      return result;
    }

    SFC_TRACE_COUNT("spice.tran.steps_accepted", 1);

    x = x_try;
    for (const auto& dev : circuit_.devices()) {
      dev->accept_step(ctx, x);
    }

    // Energy bookkeeping (trapezoidal in time).
    {
      std::size_t di = 0;
      for (const auto& dev : circuit_.devices()) {
        const double p = dev->delivered_power(ctx, x);
        energy[di] += 0.5 * (p + prev_power[di]) * ctx.dt;
        prev_power[di] = p;
        ++di;
      }
    }

    t = ctx.time;
    just_crossed_breakpoint = false;
    if (hits_bp && std::fabs(t - bps[next_bp]) < 1e-18) {
      ++next_bp;
      just_crossed_breakpoint = true;
    }
    result.append_sample(t, x);
  }

  {
    std::size_t di = 0;
    for (const auto& dev : circuit_.devices()) {
      if (energy[di] != 0.0) result.source_energy[dev->name()] = energy[di];
      ++di;
    }
  }
  result.converged = true;
  return result;
}

}  // namespace sfc::spice
