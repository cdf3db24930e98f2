// sfc::exec subsystem: parallel_for semantics, counter-based RNG streams,
// the end-to-end determinism contract (serial vs parallel Monte Carlo and
// dot batches bit-identical), Monte Carlo run times and dot_batch's exec
// counters.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "cim/behavioral.hpp"
#include "cim/montecarlo.hpp"
#include "exec/parallel.hpp"
#include "exec/stream.hpp"
#include "nn/cim_engine.hpp"
#include "trace/trace.hpp"

namespace sfc::exec {
namespace {

TEST(StreamSeed, DeterministicAndDistinct) {
  EXPECT_EQ(stream_seed(42, 0), stream_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(stream_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
  // Different master seeds give different streams for the same index.
  EXPECT_NE(stream_seed(1, 7), stream_seed(2, 7));
}

TEST(StreamRng, SameStreamSameDraws) {
  util::Rng a = stream_rng(99, 3);
  util::Rng b = stream_rng(99, 3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
  }
}

TEST(ParallelFor, EmptyRange) {
  std::atomic<int> count{0};
  const JobReport report =
      parallel_for(ExecPolicy{4}, 0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(report.tasks, 0u);
}

TEST(ParallelFor, SingleElement) {
  std::atomic<int> count{0};
  parallel_for(ExecPolicy{4}, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, OddSizeVisitsEachIndexExactlyOnce) {
  constexpr std::size_t n = 17;
  for (int threads : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> visits(n);
    const JobReport report = parallel_for(
        ExecPolicy{threads}, n,
        [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << ", " << threads
                                     << " threads";
    }
    EXPECT_EQ(report.tasks, n);
    // The job reads the clock only at its start and end.
    EXPECT_TRUE(report.task_ms.empty());
  }
}

TEST(ParallelFor, TalliesConvergedAndFailed) {
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  // A bool-returning body feeds the converged / failed counters.
  const JobReport report = parallel_for(
      ExecPolicy{2}, 10, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(report.converged, 5u);
  EXPECT_EQ(report.failed, 5u);
#if SFC_TRACE_ENABLED
  // The job mirrors its report into the registry.
  EXPECT_EQ(probe.counter_delta("exec.jobs"), 1u);
  EXPECT_EQ(probe.counter_delta("exec.tasks.converged"), 5u);
  EXPECT_EQ(probe.counter_delta("exec.tasks.failed"), 5u);
#endif
}

#if SFC_TRACE_ENABLED
TEST(ParallelFor, TaskCountersAreThreadCountInvariant) {
  // The same job records the same deterministic counters no matter how
  // many workers executed it — the registry-level determinism contract.
  constexpr std::size_t n = 23;
  std::vector<std::uint64_t> converged_deltas;
  for (int threads : {1, 2, 8}) {
    sfc::trace::TestProbe probe;
    parallel_for(ExecPolicy{threads}, n, [](std::size_t) {});
    EXPECT_EQ(probe.counter_delta("exec.jobs"), 1u) << threads << " threads";
    converged_deltas.push_back(probe.counter_delta("exec.tasks.converged"));
  }
  for (const std::uint64_t d : converged_deltas) EXPECT_EQ(d, n);
}
#else
TEST(ParallelFor, TaskCountersAreThreadCountInvariant) {
  GTEST_SKIP() << "built with SFC_TRACE=OFF; counters compile to no-ops";
}
#endif

// run_montecarlo times each run inside its task. The runs of one thread
// never overlap and all lie inside the job, so their times sum to at most
// threads_used x wall.
TEST(JobReport, MonteCarloRunTimesFitTheWall) {
  cim::MonteCarloConfig mc;
  mc.runs = 5;
  mc.mac_values = {0, 8};
  for (int threads : {1, 4}) {
    mc.exec.threads = threads;
    const cim::MonteCarloResult r =
        cim::run_montecarlo(cim::ArrayConfig::proposed_2t1fefet(), mc);
    ASSERT_EQ(r.job.task_ms.size(), static_cast<std::size_t>(mc.runs));
    for (std::size_t k = 0; k < r.job.task_ms.size(); ++k) {
      EXPECT_GT(r.job.task_ms[k], 0.0)
          << "run " << k << ", " << threads << " threads";
    }
    EXPECT_LE(r.job.task_ms_total(), r.job.threads_used * r.job.wall_ms)
        << threads << " threads";
  }
}

// Every drain tallies locally and flushes when it ends, also when a task
// throws in the middle of its chunk.
TEST(ParallelFor, TalliesStayExactWhenATaskThrowsMidChunk) {
  constexpr std::size_t n = 64;  // one chunk of 64 at 1 thread, 4 at 4
  constexpr std::size_t thrower = 13;
  for (int threads : {1, 4}) {
    std::atomic<std::size_t> returned_true{0};
    std::atomic<std::size_t> returned_false{0};
#if SFC_TRACE_ENABLED
    sfc::trace::TestProbe probe;
#endif
    EXPECT_THROW(parallel_for(ExecPolicy{threads}, n,
                              [&](std::size_t i) {
                                if (i == thrower) {
                                  throw std::runtime_error("mid-chunk");
                                }
                                const bool ok = i % 3 != 0;
                                (ok ? returned_true : returned_false)
                                    .fetch_add(1);
                                return ok;
                              }),
                 std::runtime_error);
    if (threads == 1) {
      // Inline in index order: tasks 0..12 ran, and nothing after the throw.
      EXPECT_EQ(returned_true.load(), 8u);
      EXPECT_EQ(returned_false.load(), 5u);
    }
#if SFC_TRACE_ENABLED
    EXPECT_EQ(probe.counter_delta("exec.jobs"), 1u) << threads << " threads";
    EXPECT_EQ(probe.counter_delta("exec.tasks.converged"), returned_true.load())
        << threads << " threads";
    EXPECT_EQ(probe.counter_delta("exec.tasks.failed"), returned_false.load())
        << threads << " threads";
#endif
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  for (int threads : {1, 3}) {
    EXPECT_THROW(
        parallel_for(ExecPolicy{threads}, 8,
                     [](std::size_t i) {
                       if (i == 5) throw std::runtime_error("boom");
                     }),
        std::runtime_error)
        << threads << " threads";
  }
}

TEST(ParallelFor, PreservesIndexOrder) {
  // One thread runs every task inline on the caller, in index order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const JobReport serial =
      parallel_for(ExecPolicy::serial(), 9, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      });
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(serial.threads_used, 1);

  // Any thread count: slot i holds task i's result.
  for (int threads : {1, 4}) {
    std::vector<int> out(9, -1);
    const JobReport report = parallel_for(
        ExecPolicy{threads}, out.size(),
        [&](std::size_t i) { out[i] = static_cast<int>(i * i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << threads << " threads";
    }
    EXPECT_EQ(report.tasks, 9u);
    EXPECT_EQ(report.threads_used, threads);
  }
}

// The workers persist across jobs, so these run the pool's hand-offs:
// jobs posted from inside a task, from two threads at once, and many
// tiny jobs back to back (check.sh runs them under TSan too).
TEST(ParallelFor, NestedJobsVisitEveryIndexOnce) {
  constexpr std::size_t outer = 12;
  constexpr std::size_t inner = 20;
  std::vector<std::atomic<int>> visits(outer * inner);
  std::vector<std::atomic<int>> outer_visits(outer);
  parallel_for(ExecPolicy{4}, outer, [&](std::size_t i) {
    outer_visits[i].fetch_add(1);
    const JobReport report = parallel_for(
        ExecPolicy{4}, inner,
        [&](std::size_t j) { visits[i * inner + j].fetch_add(1); });
    EXPECT_EQ(report.converged, inner);
  });
  for (std::size_t i = 0; i < outer; ++i) {
    EXPECT_EQ(outer_visits[i].load(), 1) << "outer " << i;
    for (std::size_t j = 0; j < inner; ++j) {
      EXPECT_EQ(visits[i * inner + j].load(), 1)
          << "outer " << i << ", inner " << j;
    }
  }
}

TEST(ParallelFor, ConcurrentCallersEachGetTheirOwnJob) {
  constexpr int jobs = 200;
  constexpr std::size_t n = 33;
  auto caller = [&](std::size_t salt, int* wrong) {
    for (int job = 0; job < jobs; ++job) {
      std::vector<std::size_t> out(n, 0);
      const JobReport report = parallel_for(
          ExecPolicy{4}, n, [&](std::size_t i) { out[i] = i * salt; });
      for (std::size_t i = 0; i < n; ++i) *wrong += out[i] != i * salt;
      *wrong += report.converged != n;
    }
  };
  int wrong_a = 0, wrong_b = 0;
  {
    std::thread a(caller, 3, &wrong_a);
    std::thread b(caller, 7, &wrong_b);
    a.join();
    b.join();
  }
  EXPECT_EQ(wrong_a, 0);
  EXPECT_EQ(wrong_b, 0);
}

TEST(ParallelFor, NestedExceptionReachesOuterCaller) {
  std::atomic<int> inner_started{0};
  EXPECT_THROW(
      parallel_for(ExecPolicy{4}, 8,
                   [&](std::size_t i) {
                     parallel_for(ExecPolicy{4}, 16, [&](std::size_t j) {
                       inner_started.fetch_add(1);
                       if (i == 5 && j == 9) throw std::runtime_error("inner");
                     });
                   }),
      std::runtime_error);
  EXPECT_GT(inner_started.load(), 0);
  // The pool is still usable after a failed nested job.
  std::atomic<int> count{0};
  parallel_for(ExecPolicy{4}, 64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, BackToBackTinyJobsFinish) {
  constexpr int jobs = 10000;
  std::size_t total = 0;
  for (int job = 0; job < jobs; ++job) {
    std::size_t out[4] = {};
    parallel_for(ExecPolicy{4}, 4, [&](std::size_t i) { out[i] = i + 1; });
    total += out[0] + out[1] + out[2] + out[3];
  }
  EXPECT_EQ(total, static_cast<std::size_t>(jobs) * 10);
}

TEST(ExecPolicy, ResolvesThreads) {
  EXPECT_EQ(ExecPolicy::serial().resolved_threads(100), 1);
  EXPECT_EQ((ExecPolicy{4}).resolved_threads(2), 2);  // never > n
  EXPECT_GE((ExecPolicy{0}).resolved_threads(100), 1);
}

TEST(Determinism, MonteCarloBitIdenticalAcrossThreadCounts) {
  cim::MonteCarloConfig mc;
  mc.runs = 3;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();

#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe serial_probe;
#endif
  mc.exec.threads = 1;
  const cim::MonteCarloResult serial = cim::run_montecarlo(cfg, mc);
  ASSERT_FALSE(serial.samples.empty());
#if SFC_TRACE_ENABLED
  // The determinism contract extends to the registry: solver-work counters
  // recorded during a serial run must match any parallel run exactly.
  const std::uint64_t serial_iters =
      serial_probe.counter_delta("spice.newton.iterations");
  EXPECT_EQ(serial_probe.counter_delta("cim.mc.runs"), 3u);
  EXPECT_GT(serial_iters, 0u);
#endif

  for (int threads : {2, 8}) {
#if SFC_TRACE_ENABLED
    sfc::trace::TestProbe probe;
#endif
    mc.exec.threads = threads;
    const cim::MonteCarloResult parallel = cim::run_montecarlo(cfg, mc);
#if SFC_TRACE_ENABLED
    EXPECT_EQ(probe.counter_delta("spice.newton.iterations"), serial_iters)
        << threads << " threads";
    EXPECT_EQ(probe.counter_delta("cim.mc.runs"), 3u);
#endif
    ASSERT_EQ(parallel.samples.size(), serial.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      EXPECT_EQ(parallel.samples[i].run, serial.samples[i].run);
      EXPECT_EQ(parallel.samples[i].mac, serial.samples[i].mac);
      EXPECT_EQ(parallel.samples[i].v_acc, serial.samples[i].v_acc)
          << "sample " << i << ", " << threads << " threads";
    }
    EXPECT_EQ(parallel.nominal_levels, serial.nominal_levels);
    EXPECT_EQ(parallel.max_error_percent, serial.max_error_percent);
    EXPECT_EQ(parallel.mean_error_percent, serial.mean_error_percent);
    EXPECT_EQ(parallel.job.threads_used, std::min(threads, mc.runs));
  }
}

// The kinds of dot_batch row: the proposed fabric's noiseless rows
// (integer dots), the baseline's at 85 degC (integer dot plus decode
// correction) and noisy rows (per-row noise streams).
struct RowKind {
  const char* name;
  const cim::BehavioralArrayModel* model;
  double temperature_c;
  bool noisy;

  nn::CimDotEngine::Options options(int threads) const {
    nn::CimDotEngine::Options opts;
    opts.temperature_c = temperature_c;
    opts.with_variation_noise = noisy;
    opts.noise_seed = 11;
    opts.exec.threads = threads;
    return opts;
  }
};

/// Both fabrics carry a sigma from a 4-run sigma_VT Monte Carlo, which
/// noiseless rows ignore. The baseline misdecodes at 85 degC, so its noisy
/// rows flip decodes on top of the miscount correction.
std::vector<RowKind> row_kinds() {
  cim::MonteCarloConfig mc;
  mc.runs = 4;
  mc.sigma_vt_fefet = 0.054;
  static const cim::BehavioralArrayModel proposed =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  static const cim::BehavioralArrayModel baseline =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::baseline_1r_subthreshold(), {27.0, 85.0}, &mc);
  return {RowKind{"noiseless", &proposed, 27.0, false},
          RowKind{"baseline", &baseline, 85.0, false},
          RowKind{"noisy", &proposed, 27.0, true},
          RowKind{"noisy baseline", &baseline, 85.0, true}};
}

/// A batch of `rows` random int8 rows of length `len` and their uint8
/// activations.
struct BatchInputs {
  static constexpr std::size_t len = 96;
  static constexpr std::size_t rows = 13;
  std::vector<std::uint8_t> a;
  std::vector<std::int8_t> w;

  BatchInputs() : a(len), w(rows * len) {
    util::Rng rng(7);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_index(256));
    for (auto& v : w) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(255)) -
                                   127);
    }
  }
};

TEST(Determinism, DotBatchBitIdenticalAcrossThreadCounts) {
  const BatchInputs batch;
  constexpr std::size_t len = BatchInputs::len;
  constexpr std::size_t rows = BatchInputs::rows;
  std::map<std::string_view, std::vector<std::int64_t>> serial_by_kind;
  for (const RowKind& kind : row_kinds()) {
    auto run = [&](int threads) {
#if SFC_TRACE_ENABLED
      sfc::trace::TestProbe probe;
#endif
      nn::CimDotEngine engine(*kind.model, kind.options(threads));
      std::vector<std::int64_t> out(2 * rows);
      engine.dot_batch(batch.a, batch.w, len, rows, out.data());
      // A second batch: new noise rows, reused scratch.
      engine.dot_batch(batch.a, batch.w, len, rows, out.data() + rows);
#if SFC_TRACE_ENABLED
      // Throughput counters are a pure function of the workload shape, so
      // they too must be thread-count invariant.
      EXPECT_EQ(probe.counter_delta("cim.dot.batches"), 2u)
          << kind.name << ", " << threads << " threads";
      EXPECT_EQ(probe.counter_delta("cim.dot.rows"), 2u * rows)
          << kind.name << ", " << threads << " threads";
#endif
      out.push_back(engine.row_errors());
      return out;
    };

    const auto serial = run(1);
    if (std::string_view(kind.name) != "noiseless") {
      EXPECT_GT(serial.back(), 0) << kind.name;  // some groups misdecoded
    }
    for (int threads : {2, 8}) {
      EXPECT_EQ(run(threads), serial) << kind.name << ", " << threads
                                      << " threads";
    }
    serial_by_kind[kind.name] = serial;
  }
  // The noise moves the baseline's corrected rows.
  EXPECT_NE(serial_by_kind["noisy baseline"], serial_by_kind["baseline"]);
}

#if SFC_TRACE_ENABLED
// One dot_batch is one exec job with one task per row, for every row kind
// and thread count; perfbench pins these counters.
TEST(DotBatch, OneExecJobAndOneTaskPerRow) {
  const BatchInputs batch;
  constexpr std::size_t rows = BatchInputs::rows;
  for (const RowKind& kind : row_kinds()) {
    for (int threads : {1, 4}) {
      nn::CimDotEngine engine(*kind.model, kind.options(threads));
      std::vector<std::int64_t> out(rows);
      sfc::trace::TestProbe probe;
      engine.dot_batch(batch.a, batch.w, BatchInputs::len, rows, out.data());
      EXPECT_EQ(probe.counter_delta("exec.jobs"), 1u)
          << kind.name << ", " << threads << " threads";
      EXPECT_EQ(probe.counter_delta("exec.tasks.converged"), rows)
          << kind.name << ", " << threads << " threads";
      EXPECT_EQ(probe.counter_delta("exec.tasks.failed"), 0u)
          << kind.name << ", " << threads << " threads";
      EXPECT_EQ(probe.counter_delta("cim.dot.batches"), 1u)
          << kind.name << ", " << threads << " threads";
      EXPECT_EQ(probe.counter_delta("cim.dot.rows"), rows)
          << kind.name << ", " << threads << " threads";
    }
  }
}
#else
TEST(DotBatch, OneExecJobAndOneTaskPerRow) {
  GTEST_SKIP() << "built with SFC_TRACE=OFF; counters compile to no-ops";
}
#endif

}  // namespace
}  // namespace sfc::exec
