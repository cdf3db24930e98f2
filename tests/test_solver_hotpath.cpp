// Solver hot-path validation: the compiled stamp-plan assembly and the
// frozen-pivot LU must be *bit-identical* to the reference Newton step
// (use_stamp_plan = false: full assemble + dense partial-pivot LU) — not
// tolerance-close — on the paper's circuits, the paper's rows must satisfy
// KCL at their DC points, and the steady-state Newton loop must not touch
// the heap. The trace ledger is the only count of solver work, so the two
// paths' Newton iterations are compared through TestProbe deltas; those
// assertions compile out with SFC_TRACE=OFF.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "cim/array.hpp"
#include "cim/montecarlo.hpp"
#include "spice/engine.hpp"
#include "spice/matrix.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"
#include "trace/trace.hpp"

// ---------------------------------------------------------------------
// Global allocation counter. Only the delta between snapshots matters;
// gtest and the fixtures allocate freely outside the counted regions.
// ---------------------------------------------------------------------
namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sfc::spice {
namespace {

// Bitwise equality — distinguishes +0.0 from -0.0 and never tolerates
// rounding drift. NaN == NaN under memcmp, unlike operator==.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_vectors_bitwise_equal(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i], b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void expect_transients_bitwise_equal(const TransientResult& a,
                                     const TransientResult& b) {
  ASSERT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.num_samples(), b.num_samples());
  expect_vectors_bitwise_equal(a.time(), b.time(), "time");
  ASSERT_EQ(a.signal_names(), b.signal_names());
  for (const auto& name : a.signal_names()) {
    expect_vectors_bitwise_equal(a.waveform(name), b.waveform(name),
                                 "waveform " + name);
  }
  for (const auto& [source, energy] : a.source_energy) {
    const auto it = b.source_energy.find(source);
    ASSERT_NE(it, b.source_energy.end()) << source;
    EXPECT_TRUE(bits_equal(energy, it->second)) << "energy " << source;
  }
}

NewtonOptions legacy_options() {
  NewtonOptions o;
  o.use_stamp_plan = false;
  return o;
}

NewtonOptions hot_options() {
  NewtonOptions o;
  o.use_stamp_plan = true;
  return o;
}

// ---------------------------------------------------------------------
// Fig. 7 cell: DC operating point, legacy vs stamp plan.
// ---------------------------------------------------------------------

TEST(SolverHotPath, Fig7CellDcBitIdentical) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 1;
  cim::CiMRow row(cfg);
  row.set_stored({1});

  Engine legacy_engine(row.circuit(), 27.0);
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe legacy_probe;
#endif
  const DcResult ref = legacy_engine.dc_operating_point(legacy_options());
  ASSERT_TRUE(ref.converged);
#if SFC_TRACE_ENABLED
  // Read before the hot run starts: a probe that is still alive counts it.
  const std::uint64_t ref_iterations =
      legacy_probe.counter_delta("spice.newton.iterations");
  EXPECT_GT(ref_iterations, 0u);
  EXPECT_EQ(legacy_probe.counter_delta("spice.dc.solves"), 1u);
  EXPECT_GT(legacy_probe.counter_delta("spice.lu.dense_solves"), 0u);
  EXPECT_EQ(legacy_probe.counter_delta("spice.stampplan.compiles"), 0u);
#endif

  Engine hot_engine(row.circuit(), 27.0);
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe hot_probe;
#endif
  const DcResult hot = hot_engine.dc_operating_point(hot_options());
  ASSERT_TRUE(hot.converged);
  EXPECT_TRUE(bits_equal(hot.gmin_used, ref.gmin_used));
  expect_vectors_bitwise_equal(hot.x, ref.x, "x");
#if SFC_TRACE_ENABLED
  EXPECT_EQ(hot_probe.counter_delta("spice.newton.iterations"),
            ref_iterations);
  EXPECT_GT(hot_probe.counter_delta("spice.stampplan.compiles"), 0u);
  EXPECT_GT(hot_probe.counter_delta("spice.lu.frozen_solves"), 0u);
  EXPECT_EQ(hot_probe.counter_delta("spice.lu.dense_solves"), 0u);
#endif
}

// ---------------------------------------------------------------------
// Fig. 8 row: full 8-cell MAC transients at the paper's temperature
// corners, legacy vs stamp plan. Each row keeps its engine across the
// three cycles, so the compiled plan is reused across temperature changes.
// ---------------------------------------------------------------------

TEST(SolverHotPath, Fig8RowTransientBitIdentical) {
  cim::ArrayConfig legacy_cfg = cim::ArrayConfig::proposed_2t1fefet();
  legacy_cfg.newton.use_stamp_plan = false;
  cim::ArrayConfig hot_cfg = cim::ArrayConfig::proposed_2t1fefet();
  hot_cfg.newton.use_stamp_plan = true;

  const std::vector<int> stored = {1, 0, 1, 1, 0, 1, 0, 1};
  const std::vector<int> inputs = {1, 1, 0, 1, 0, 1, 1, 0};

  cim::CiMRow legacy_row(legacy_cfg);
  legacy_row.set_stored(stored);
  cim::CiMRow hot_row(hot_cfg);
  hot_row.set_stored(stored);

  for (const double temp : {0.0, 27.0, 85.0}) {
    SCOPED_TRACE("T = " + std::to_string(temp) + " degC");
#if SFC_TRACE_ENABLED
    sfc::trace::TestProbe legacy_probe;
#endif
    const cim::MacResult ref =
        legacy_row.evaluate(inputs, temp, /*keep_waveforms=*/true);
    ASSERT_TRUE(ref.converged);
#if SFC_TRACE_ENABLED
    // Read before the hot run starts: a probe that is still alive counts it.
    const std::uint64_t ref_iterations =
        legacy_probe.counter_delta("spice.newton.iterations");
    EXPECT_GT(ref_iterations, 0u);
    sfc::trace::TestProbe hot_probe;
#endif
    const cim::MacResult hot =
        hot_row.evaluate(inputs, temp, /*keep_waveforms=*/true);
    ASSERT_TRUE(hot.converged);
#if SFC_TRACE_ENABLED
    // Both paths take the same Newton iterations, exactly.
    EXPECT_EQ(hot_probe.counter_delta("spice.newton.iterations"),
              ref_iterations);
    EXPECT_GT(hot_probe.counter_delta("spice.lu.frozen_solves"), 0u);
    // Exactly one histogram record per accepted step, by construction.
    EXPECT_EQ(
        hot_probe.histogram_delta("spice.tran.newton_iterations_per_step"),
        hot_probe.counter_delta("spice.tran.steps_accepted"));
    EXPECT_GT(hot_probe.counter_delta("spice.tran.steps_accepted"), 0u);
    // No step on this workload fights Newton past the 16-iteration band.
    EXPECT_EQ(hot_probe.histogram_delta_above(
                  "spice.tran.newton_iterations_per_step", 16.0),
              0u);
#endif

    EXPECT_TRUE(bits_equal(hot.v_acc, ref.v_acc));
    EXPECT_TRUE(bits_equal(hot.energy_joules, ref.energy_joules));
    expect_vectors_bitwise_equal(hot.v_cell, ref.v_cell, "v_cell");
    expect_transients_bitwise_equal(hot.waveforms, ref.waveforms);
  }
}

// ---------------------------------------------------------------------
// Reduced Fig. 9 Monte Carlo (sigma_VT = 54 mV): every run perturbs the
// FeFET thresholds of a fresh row, so each run compiles and replays its
// own plan. The samples must match the legacy path bit for bit.
// ---------------------------------------------------------------------

TEST(SolverHotPath, MonteCarloSamplesBitIdentical) {
  cim::MonteCarloConfig mc;
  mc.runs = 6;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  mc.exec = sfc::exec::ExecPolicy::serial();
  cim::ArrayConfig legacy_cfg = cim::ArrayConfig::proposed_2t1fefet();
  legacy_cfg.newton.use_stamp_plan = false;
  cim::ArrayConfig hot_cfg = cim::ArrayConfig::proposed_2t1fefet();
  hot_cfg.newton.use_stamp_plan = true;

#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const cim::MonteCarloResult ref = cim::run_montecarlo(legacy_cfg, mc);
#if SFC_TRACE_ENABLED
  const std::uint64_t ref_iterations =
      probe.counter_delta("spice.newton.iterations");
  probe.reset();
#endif
  const cim::MonteCarloResult hot = cim::run_montecarlo(hot_cfg, mc);
  ASSERT_TRUE(ref.all_converged);
  ASSERT_TRUE(hot.all_converged);
#if SFC_TRACE_ENABLED
  EXPECT_GT(ref_iterations, 0u);
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"), ref_iterations);
#endif
  expect_vectors_bitwise_equal(hot.nominal_levels, ref.nominal_levels,
                               "nominal levels");
  ASSERT_EQ(hot.samples.size(), ref.samples.size());
  ASSERT_EQ(ref.samples.size(), 6u * 3u);
  for (std::size_t i = 0; i < ref.samples.size(); ++i) {
    EXPECT_EQ(hot.samples[i].run, ref.samples[i].run) << "sample " << i;
    EXPECT_EQ(hot.samples[i].mac, ref.samples[i].mac) << "sample " << i;
    EXPECT_TRUE(bits_equal(hot.samples[i].v_acc, ref.samples[i].v_acc))
        << "sample " << i << ": " << hot.samples[i].v_acc << " vs "
        << ref.samples[i].v_acc;
  }
}

// ---------------------------------------------------------------------
// Netlist-parsed deck: mixed linear/nonlinear cards through the parser.
// ---------------------------------------------------------------------

TEST(SolverHotPath, NetlistDeckTransientBitIdentical) {
  const std::string deck = R"(
* mixed-card deck: MOSFET inverter driving an RC + diode clamp
.model mynmos nmos vth0=0.45 n=1.3
VDD vdd 0 1.2
VIN in 0 PULSE(0 1.2 1n 0.1n 0.1n 3n 10n)
RD vdd out 10k
M1 out in 0 mynmos w=100n l=20n
RL out mid 2k
C1 mid 0 0.5p ic=0
D1 mid 0 is=1e-15
.tran 0.05n 6n
)";

  auto run = [&deck](bool use_stamp_plan) {
    Circuit ckt;
    const NetlistDeck d = parse_netlist(deck, ckt);
    Engine engine(ckt, 27.0);
    TransientOptions opts;
    opts.dt = d.tran.at(0).dt;
    opts.newton.use_stamp_plan = use_stamp_plan;
    return engine.transient(d.tran.at(0).t_stop, opts);
  };

#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const TransientResult ref = run(false);
  ASSERT_TRUE(ref.converged);
#if SFC_TRACE_ENABLED
  const std::uint64_t ref_iterations =
      probe.counter_delta("spice.newton.iterations");
  EXPECT_GT(ref_iterations, 0u);
  probe.reset();
#endif
  const TransientResult hot = run(true);
  expect_transients_bitwise_equal(hot, ref);
#if SFC_TRACE_ENABLED
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"), ref_iterations);
#endif
}

// ---------------------------------------------------------------------
// Temperature ladder: one row, a fresh Engine per temperature across the
// paper's range; the stamp plan must match the reference step bitwise.
// ---------------------------------------------------------------------

TEST(SolverHotPath, TemperatureLadderBitIdenticalToReference) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 2;
  cim::CiMRow row(cfg);
  row.set_stored({1, 1});

  struct Solve {
    DcResult op;
    std::uint64_t newton_iterations = 0;  // traced, all gmin steps
  };
  for (const double temp : {-25.0, 0.0, 25.0, 50.0, 75.0, 100.0}) {
    auto solve = [&](const NewtonOptions& options) {
#if SFC_TRACE_ENABLED
      sfc::trace::TestProbe probe;
#endif
      Engine engine(row.circuit(), temp);
      Solve s{engine.dc_operating_point(options)};
#if SFC_TRACE_ENABLED
      s.newton_iterations = probe.counter_delta("spice.newton.iterations");
#endif
      return s;
    };
    const std::string where = "T = " + std::to_string(temp) + " degC";
    const Solve ref = solve(legacy_options());
    ASSERT_TRUE(ref.op.converged) << where;
    const Solve hot = solve(hot_options());
    ASSERT_TRUE(hot.op.converged) << where;
    EXPECT_EQ(hot.newton_iterations, ref.newton_iterations) << where;
    expect_vectors_bitwise_equal(hot.op.x, ref.op.x, where);
  }
}

// ---------------------------------------------------------------------
// Residual contract: the DC operating point of a paper row, re-assembled
// at itself through the reference assembly, satisfies KCL to the
// fuzzer's tolerance on both paths. Unlike the bitwise comparisons above,
// this holds for any LU that solves the system accurately.
// ---------------------------------------------------------------------

TEST(SolverHotPath, PaperRowsDcResidualWithinKclTolerance) {
  constexpr double kKclTol = 1e-8;  // the fuzzer's dc_kcl bound
  for (const cim::ArrayConfig& preset :
       {cim::ArrayConfig::proposed_2t1fefet(),
        cim::ArrayConfig::baseline_1r_subthreshold()}) {
    for (const int cells : {1, 8}) {
      cim::ArrayConfig cfg = preset;
      cfg.cells_per_row = cells;
      cim::CiMRow row(cfg);
      row.set_stored(std::vector<int>(static_cast<std::size_t>(cells), 1));
      // Every input high: the cell-phase operating point, FeFETs reading.
      for (int i = 0; i < cells; ++i) {
        row.cell(i).wl->set_dc(cfg.wl_read_level());
      }
      const std::size_t size = row.circuit().system_size();
      for (const NewtonOptions& options : {legacy_options(), hot_options()}) {
        Engine engine(row.circuit(), 27.0);
        for (const double temp : {0.0, 27.0, 85.0}) {
          SCOPED_TRACE(std::to_string(cells) + " cells, " +
                       (cfg.kind == cim::CellKind::k2T1FeFet ? "2T" : "1R") +
                       ", stamp plan " +
                       std::to_string(options.use_stamp_plan) + ", T = " +
                       std::to_string(temp));
          engine.set_temperature_c(temp);
          const DcResult op = engine.dc_operating_point(options);
          ASSERT_TRUE(op.converged);
          SimContext ctx;
          ctx.temperature_c = temp;
          ctx.gmin = op.gmin_used;
          ctx.num_nodes = row.circuit().num_nodes();
          DenseMatrix a(size, size);
          std::vector<double> b(size);
          engine.assemble(ctx, op.x, a, b);
          EXPECT_LE(worst_relative_residual(a, op.x, b).relative, kKclTol);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// LuPlan: frozen-pivot replay vs dense full pivoting, and the fallback
// triggers (argmax moved at step 0 or mid-solve) on ill-conditioned
// updates.
// ---------------------------------------------------------------------

DenseMatrix matrix_from(const std::vector<std::vector<double>>& rows) {
  DenseMatrix m(rows.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows.size(); ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

std::vector<char> pattern_of(const DenseMatrix& m) {
  std::vector<char> pattern(m.rows() * m.cols(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      pattern[r * m.cols() + c] = m.at(r, c) != 0.0 ? 1 : 0;
    }
  }
  return pattern;
}

TEST(LuPlanFallback, FrozenSolveMatchesDenseBitwise) {
  // Asymmetric system with an off-diagonal pivot (row 2 wins column 0)
  // and a structural zero block, so the compiled schedule is a strict
  // subset of the dense loop.
  const std::vector<std::vector<double>> base = {
      {1.0, 2.0, 0.0},
      {0.5, 1e-3, 4.0},
      {3.0, 0.0, 1.0},
  };
  const std::vector<double> rhs = {1.0, -2.0, 0.5};

  DenseMatrix a0 = matrix_from(base);
  const std::vector<char> pattern = pattern_of(a0);
  std::vector<double> b0 = rhs;

  LuPlan plan;
  ASSERT_TRUE(plan.factor_and_compile(a0, b0, pattern));
  ASSERT_TRUE(plan.valid());
  EXPECT_GT(plan.compiled_ops(), 0u);

  DenseMatrix dense = matrix_from(base);
  std::vector<double> b_dense = rhs;
  ASSERT_TRUE(lu_solve(dense, b_dense));
  expect_vectors_bitwise_equal(b0, b_dense, "factor_and_compile solution");

  // Same structure, perturbed values that keep the pivot order: the
  // frozen solve must complete without a refreeze and match the dense
  // solve bit for bit.
  std::vector<std::vector<double>> perturbed = base;
  perturbed[0][0] = 1.25;
  perturbed[1][2] = 3.5;
  perturbed[2][0] = 2.75;
  DenseMatrix a1 = matrix_from(perturbed);
  std::vector<double> b1 = rhs;
  ASSERT_TRUE(plan.solve_frozen(a1, b1));
  EXPECT_EQ(plan.refreeze_count(), 0u);

  DenseMatrix dense1 = matrix_from(perturbed);
  std::vector<double> b_dense1 = rhs;
  ASSERT_TRUE(lu_solve(dense1, b_dense1));
  expect_vectors_bitwise_equal(b1, b_dense1, "solve_frozen solution");
}

TEST(LuPlanFallback, ArgmaxChangeRefreezesAndStaysBitIdentical) {
  const std::vector<std::vector<double>> base = {
      {1.0, 2.0, 0.0},
      {0.5, 1e-3, 4.0},
      {3.0, 0.0, 1.0},
  };
  DenseMatrix a0 = matrix_from(base);
  const std::vector<char> pattern = pattern_of(a0);
  std::vector<double> b0 = {1.0, -2.0, 0.5};
  LuPlan plan;
  ASSERT_TRUE(plan.factor_and_compile(a0, b0, pattern));

  // Row 0 now dominates column 0, so the frozen choice (row 2) is no
  // longer the partial-pivot argmax: the plan must fall back to dense
  // pivoting mid-solve rather than silently diverge from lu_solve().
  std::vector<std::vector<double>> swapped = base;
  swapped[0][0] = 10.0;
  DenseMatrix a1 = matrix_from(swapped);
  std::vector<double> b1 = {1.0, -2.0, 0.5};
  ASSERT_TRUE(plan.solve_frozen(a1, b1));
  EXPECT_EQ(plan.refreeze_count(), 1u);
  DenseMatrix dense = matrix_from(swapped);
  std::vector<double> b_dense = {1.0, -2.0, 0.5};
  ASSERT_TRUE(lu_solve(dense, b_dense));
  expect_vectors_bitwise_equal(b1, b_dense, "drifted solution");

  // Self-healing: the refreeze recorded the new order, so re-solving the
  // same system stays on the frozen path and still matches dense.
  DenseMatrix a2 = matrix_from(swapped);
  std::vector<double> b2 = {1.0, -2.0, 0.5};
  ASSERT_TRUE(plan.solve_frozen(a2, b2));
  EXPECT_EQ(plan.refreeze_count(), 1u);
  expect_vectors_bitwise_equal(b2, b_dense, "refrozen solution");
}

TEST(LuPlanFallback, PivotLeavingClassMidSolveFinishesDensely) {
  // Step 0 keeps its frozen pivot (row 0). At step 1 the frozen pivot is
  // row 1 (pattern {2} right of the diagonal); row 2 (pattern {3}) is a
  // candidate outside that interchange class.
  const std::vector<std::vector<double>> base = {
      {4.0, 1.0, 0.0, 0.0},
      {1.0, 3.0, 1.0, 0.0},
      {0.0, 1.0, 0.0, 1.0},
      {0.0, 0.0, 1.0, 2.0},
  };
  const std::vector<double> rhs = {1.0, -2.0, 0.5, 3.0};
  DenseMatrix a0 = matrix_from(base);
  const std::vector<char> pattern = pattern_of(a0);
  std::vector<double> b0 = rhs;
  LuPlan plan;
  ASSERT_TRUE(plan.factor_and_compile(a0, b0, pattern));

  // Row 2 now wins column 1, so the scheduled solve runs step 0 and then
  // finishes densely from step 1.
  std::vector<std::vector<double>> moved = base;
  moved[2][1] = 10.0;
  DenseMatrix dense = matrix_from(moved);
  std::vector<double> b_dense = rhs;
  ASSERT_TRUE(lu_solve(dense, b_dense));

  DenseMatrix a1 = matrix_from(moved);
  std::vector<double> b1 = rhs;
  ASSERT_TRUE(plan.solve_frozen(a1, b1));
  EXPECT_EQ(plan.refreeze_count(), 1u);
  expect_vectors_bitwise_equal(b1, b_dense, "mid-solve dense finish");

  // The dense finish re-recorded the order from step 1 on, so the same
  // system now stays on the compiled schedule.
  DenseMatrix a2 = matrix_from(moved);
  std::vector<double> b2 = rhs;
  ASSERT_TRUE(plan.solve_frozen(a2, b2));
  EXPECT_EQ(plan.refreeze_count(), 1u);
  expect_vectors_bitwise_equal(b2, b_dense, "recompiled solution");
}

TEST(LuPlanFallback, SingularUpdateInvalidatesPlan) {
  const std::vector<std::vector<double>> base = {
      {2.0, 1.0},
      {1.0, 2.0},
  };
  DenseMatrix a0 = matrix_from(base);
  const std::vector<char> pattern = pattern_of(a0);
  std::vector<double> b0 = {1.0, 1.0};
  LuPlan plan;
  ASSERT_TRUE(plan.factor_and_compile(a0, b0, pattern));

  // Rank-1 update: both rows proportional. Dense LU fails, and so must
  // the frozen solve — invalidating the plan instead of dividing by a
  // vanishing pivot.
  const std::vector<std::vector<double>> singular = {
      {2.0, 1.0},
      {4.0, 2.0},
  };
  DenseMatrix a1 = matrix_from(singular);
  std::vector<double> b1 = {1.0, 1.0};
  EXPECT_FALSE(plan.solve_frozen(a1, b1));
  EXPECT_FALSE(plan.valid());
}

// ---------------------------------------------------------------------
// Engine-level fallback: an update that moves the pivots mid-solve must
// still converge to the legacy answer (through refactoring), not fail or
// drift.
// ---------------------------------------------------------------------

TEST(SolverHotPath, SwitchTransitionSurvivesPivotFallback) {
  // A steep switch swings its stamped conductance over ~12 decades
  // between Newton iterates, so its pivots move between solves.
  auto build = [](Circuit& ckt) {
    VSwitch::Params params;
    params.r_on = 10.0;
    params.r_off = 1e12;
    params.v_threshold = 0.5;
    params.v_width = 0.01;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    const auto ctrl = ckt.node("ctrl");
    ckt.add<VSource>("V1", in, kGround, 1.0);
    ckt.add<VSource>("VC", ctrl, kGround, 0.501);  // right at threshold
    ckt.add<VSwitch>("S1", in, out, ctrl, params);
    ckt.add<Resistor>("RL", out, kGround, 1000.0);
  };

  Circuit legacy_ckt;
  build(legacy_ckt);
  Engine legacy_engine(legacy_ckt, 27.0);
  const DcResult ref = legacy_engine.dc_operating_point(legacy_options());
  ASSERT_TRUE(ref.converged);

  Circuit hot_ckt;
  build(hot_ckt);
  Engine hot_engine(hot_ckt, 27.0);
  const DcResult hot = hot_engine.dc_operating_point(hot_options());
  ASSERT_TRUE(hot.converged);
  expect_vectors_bitwise_equal(hot.x, ref.x, "switch op x");
}

// ---------------------------------------------------------------------
// Steady state allocates nothing: once the workspace is warm, a full
// newton_solve() — restamp, frozen factorization, update — must not
// touch the heap.
// ---------------------------------------------------------------------

TEST(SolverHotPath, SteadyStateNewtonSolveDoesNotAllocate) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 4;
  cim::CiMRow row(cfg);
  row.set_stored({1, 0, 1, 1});

  row.circuit().finalize();  // aux variables counted before system_size()
  Engine engine(row.circuit(), 27.0);
  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = 27.0;
  ctx.gmin = NewtonOptions{}.gmin_final;
  ctx.num_nodes = row.circuit().num_nodes();

  const NewtonOptions options = hot_options();
  std::vector<double> x(row.circuit().system_size(), 0.0);
  int iterations = 0;
  // Warm-up: sizes the workspace, records the pattern, freezes pivots.
  ASSERT_TRUE(engine.newton_solve(ctx, x, options, &iterations));
  ASSERT_TRUE(engine.workspace().plan.valid());
  EXPECT_GT(engine.workspace().plan.compiled_ops(), 0u);
  // Second warm-up runs the steady-state (frozen-pivot) branch once so
  // its trace counters do their one-time registration outside the
  // counted region — first execution of a SFC_TRACE_COUNT site
  // allocates the registry entry, every later hit is a relaxed add.
  ASSERT_TRUE(engine.newton_solve(ctx, x, options, &iterations));

  // Steady state: resolving from the converged point re-runs the full
  // iterate-restamp-solve loop (Newton needs >= 2 iterations to declare
  // convergence) without a single allocation. The probe (constructed
  // outside the counted region) proves the trace counters stay live on
  // this path — instrumentation must be allocation-free too.
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const long before = g_alloc_count.load();
  const bool ok = engine.newton_solve(ctx, x, options, &iterations);
  const long after = g_alloc_count.load();
  ASSERT_TRUE(ok);
  EXPECT_GE(iterations, 1);
  EXPECT_EQ(after - before, 0) << "newton_solve allocated on the steady-"
                                  "state path";
#if SFC_TRACE_ENABLED
  EXPECT_EQ(probe.counter_delta("spice.newton.solves"), 1u);
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"),
            static_cast<std::uint64_t>(iterations));
#endif
}

}  // namespace
}  // namespace sfc::spice
