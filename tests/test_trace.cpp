// Observability layer (src/trace): registry semantics, histogram
// bucketing, scoped-span nesting and Chrome-trace export, the shared
// --trace/--metrics CLI wiring, TestProbe deltas, cross-thread-count
// snapshot determinism, and the SFC_TRACE=OFF zero-cost contract (via
// trace_off_tu.cpp, compiled with the gate forced off).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cim/array.hpp"
#include "cim/montecarlo.hpp"
#include "exec/parallel.hpp"
#include "trace/cli.hpp"
#include "trace/trace.hpp"
#include "verify/json.hpp"

using namespace sfc;
using trace::Registry;
using trace::Tracer;
using verify::Json;

// trace_off_tu.cpp: same macros, gate forced off.
namespace sfc::trace::test_off {
int run_disabled_instrumentation();
}

namespace {

/// Round-trip through the canonical text form: proves the document is
/// well-formed JSON and gives a diffable string.
std::string canonical(const Json& j) { return Json::parse(j.dump()).dump(); }

/// First traceEvents entry with the given name; nullptr when absent.
const Json* find_event(const Json& chrome, const std::string& name) {
  for (const Json& e : chrome.get("traceEvents").as_array()) {
    if (e.string_at("name") == name) return &e;
  }
  return nullptr;
}

TEST(TraceRegistry, CounterFindOrCreateIsStableAndAccumulates) {
  trace::Counter& c = Registry::global().counter("test.registry.counter");
  const std::uint64_t before = c.value();
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), before + 7);
  // Same name resolves to the same counter object.
  EXPECT_EQ(&Registry::global().counter("test.registry.counter"), &c);
}

// Counter events land on per-thread shards; a read sums the live shards
// plus what exited threads folded in.
TEST(TraceShards, CounterBumpedOnlyOnAJoinedThreadReadsItsTotal) {
  trace::Counter& c = Registry::global().counter("test.shard.joined");
  const std::uint64_t before = c.value();
  std::thread t([&c] {
    c.add(5);
    c.add(7);
  });
  t.join();
  EXPECT_EQ(c.value(), before + 12);
  trace::TestProbe probe;
  std::thread([&c] { c.add(3); }).join();
  EXPECT_EQ(probe.counter_delta("test.shard.joined"), 3u);
}

TEST(TraceShards, FourThreadsOfAddsSumExactlyLiveAndAfterExit) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 100000;
  trace::Counter& c = Registry::global().counter("test.shard.four_threads");
  const std::uint64_t before = c.value();
  std::latch added(kThreads);
  std::latch release(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(1);
      added.count_down();
      release.wait();
    });
  }
  added.wait();
  // Every thread is alive: the total comes from the live shards.
  EXPECT_EQ(c.value(), before + kThreads * kAdds);
  release.count_down();
  for (std::thread& t : threads) t.join();
  // Every thread has exited: the total comes from the folded shards.
  EXPECT_EQ(c.value(), before + kThreads * kAdds);
}

// A shard covers the counters registered when it last grew; a counter
// registered later grows it again, and reads stay within every shard.
TEST(TraceShards, CounterRegisteredAfterTheShardGrewReadsExactly) {
  std::thread([] {
    trace::Counter& early = Registry::global().counter("test.shard.early");
    const std::uint64_t early0 = early.value();
    early.add(2);
    for (int k = 0; k < 3; ++k) {
      trace::Counter& late = Registry::global().counter(
          "test.shard.late." + std::to_string(k));
      const std::uint64_t late0 = late.value();
      late.add(5);
      EXPECT_EQ(late.value(), late0 + 5);
      EXPECT_EQ(Registry::global().counter_values().at(
                    "test.shard.late." + std::to_string(k)),
                late0 + 5);
    }
    EXPECT_EQ(early.value(), early0 + 2);
  }).join();
}

// The exec pool joins its workers in a static destructor, and each worker
// folds its shard in as it exits, so the shard registry must outlive the
// pool. The child process constructs a checker before the pool, so the
// checker's destructor runs after the pool's join and reads the counter
// that only workers bumped.
TEST(TraceShardsDeathTest, CounterFirstBumpedOnAWorkerSurvivesProcessExit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        struct CheckAtExit {
          CheckAtExit() { Registry::global(); }  // outlives the checker
          ~CheckAtExit() {
            const std::uint64_t total =
                Registry::global().counter("test.shard.worker_only").value();
            std::_Exit(worker_adds > 0 && total == worker_adds.load() ? 0 : 1);
          }
          std::atomic<std::uint64_t> worker_adds{0};
        };
        static CheckAtExit check;
        const std::thread::id caller = std::this_thread::get_id();
        exec::parallel_for(exec::ExecPolicy{4}, 64, [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (std::this_thread::get_id() == caller) return;
          static trace::Counter& c =
              Registry::global().counter("test.shard.worker_only");
          c.add(1);
          check.worker_adds.fetch_add(1);
        });
        std::exit(2);  // the checker decides the status
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(TraceRegistry, HistogramBucketingAndCountAbove) {
  trace::Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 3.0, 10.0}) h.record(v);
  // Bucket k counts values <= bounds[k]; the last bucket is overflow.
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Exact at bucket bounds.
  EXPECT_EQ(h.count_above(1.0), 4u);
  EXPECT_EQ(h.count_above(2.0), 2u);
  EXPECT_EQ(h.count_above(4.0), 1u);
}

TEST(TraceRegistry, DefaultHistogramBoundsAreIterationBuckets) {
  trace::Histogram& h = Registry::global().histogram("test.registry.hist");
  EXPECT_EQ(h.bounds(), trace::iteration_buckets());
  EXPECT_EQ(h.bounds().front(), 1.0);
  EXPECT_EQ(h.bounds().back(), 128.0);
}

TEST(TraceRegistry, MetricNameClassification) {
  EXPECT_TRUE(trace::is_timing_metric("nn.dot_batch_us"));
  EXPECT_TRUE(trace::is_timing_metric("spice.solve_ms"));
  EXPECT_FALSE(trace::is_timing_metric("spice.newton.iterations"));
  EXPECT_FALSE(trace::is_timing_metric("exec.jobs"));
}

TEST(TraceRegistry, SnapshotSchemaAndDeterministicSubset) {
  Registry::global().counter("test.snapshot.events").add(1);
  Registry::global().counter("test.snapshot.wait_us").add(9);

  const Json full = Registry::global().snapshot(true);
  EXPECT_DOUBLE_EQ(full.number_at("schema_version"), 1.0);
  EXPECT_TRUE(full.get("counters").has("test.snapshot.events"));
  EXPECT_TRUE(full.get("counters").has("test.snapshot.wait_us"));

  const Json det = Registry::global().snapshot(false);
  EXPECT_TRUE(det.get("counters").has("test.snapshot.events"));
  EXPECT_FALSE(det.get("counters").has("test.snapshot.wait_us"));
  // Histogram sum/max (CAS-ordering-sensitive for float sums) are full-only.
  Registry::global().histogram("test.snapshot.hist").record(3.0);
  const Json full2 = Registry::global().snapshot(true);
  const Json det2 = Registry::global().snapshot(false);
  EXPECT_TRUE(full2.get("histograms").get("test.snapshot.hist").has("sum"));
  EXPECT_FALSE(det2.get("histograms").get("test.snapshot.hist").has("sum"));
  EXPECT_TRUE(det2.get("histograms").get("test.snapshot.hist").has("counts"));
}

TEST(TraceSpan, NestingDepthAndChromeExport) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  EXPECT_EQ(trace::open_span_count(), 0);
  {
    trace::SpanScope outer("test.span.outer");
    EXPECT_EQ(trace::open_span_count(), 1);
    {
      trace::SpanScope inner("test.span.inner");
      EXPECT_EQ(trace::open_span_count(), 2);
    }
    EXPECT_EQ(trace::open_span_count(), 1);
  }
  EXPECT_EQ(trace::open_span_count(), 0);
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 2u);

  const Json chrome = Json::parse(tracer.chrome_json().dump());
  EXPECT_EQ(chrome.string_at("displayTimeUnit"), "ms");
  const Json* outer = find_event(chrome, "test.span.outer");
  const Json* inner = find_event(chrome, "test.span.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  for (const Json* e : {outer, inner}) {
    EXPECT_EQ(e->string_at("ph"), "X");
    EXPECT_DOUBLE_EQ(e->number_at("pid"), 1.0);
    EXPECT_GE(e->number_at("dur"), 0.0);
  }
  EXPECT_EQ(outer->get("args").number_at("depth"), 0.0);
  EXPECT_EQ(inner->get("args").number_at("depth"), 1.0);
  // The parent starts no later and lasts no shorter than the child; the
  // sort order (ts, then dur descending) puts it first.
  EXPECT_LE(outer->number_at("ts"), inner->number_at("ts"));
  EXPECT_GE(outer->number_at("dur"), inner->number_at("dur"));
}

TEST(TraceSpan, StartClearsPreviousRunAndDisabledRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  { trace::SpanScope s("test.span.stale"); }
  tracer.stop();
  EXPECT_GE(tracer.event_count(), 1u);
  { trace::SpanScope s("test.span.while_off"); }
  EXPECT_EQ(trace::open_span_count(), 0);

  tracer.start();
  EXPECT_EQ(tracer.event_count(), 0u);  // previous run cleared
  tracer.stop();
  EXPECT_EQ(find_event(tracer.chrome_json(), "test.span.while_off"), nullptr);
}

TEST(TraceSpan, ExceptionUnwindClosesSpan) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  try {
    trace::SpanScope s("test.span.throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(trace::open_span_count(), 0);
  tracer.stop();
  EXPECT_NE(find_event(tracer.chrome_json(), "test.span.throwing"), nullptr);
}

TEST(TraceSpan, ParallelSpansLandOnPerThreadTracksSorted) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  exec::ExecPolicy policy;
  policy.threads = 4;
  exec::parallel_for(policy, 16, [](std::size_t) {
    trace::SpanScope s("test.span.task");
  });
  tracer.stop();

  const Json chrome = Json::parse(tracer.chrome_json().dump());
  const auto& events = chrome.get("traceEvents").as_array();
  std::size_t tasks = 0;
  double last_tid = -1.0, last_ts = 0.0;
  for (const Json& e : events) {
    if (e.string_at("name") == std::string("test.span.task")) ++tasks;
    const double tid = e.number_at("tid");
    EXPECT_TRUE(tid > last_tid || (tid == last_tid && e.number_at("ts") >= last_ts))
        << "events must be sorted by (tid, ts)";
    if (tid != last_tid) last_tid = tid;
    last_ts = e.number_at("ts");
  }
  EXPECT_EQ(tasks, 16u);
}

// parallel_for reuses its workers, so repeated jobs record onto the same
// few per-thread tracks instead of registering a new buffer per job.
TEST(TraceSpan, RepeatedJobsReuseThreadTracks) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  exec::ExecPolicy policy;
  policy.threads = 4;
  for (int job = 0; job < 50; ++job) {
    exec::parallel_for(policy, 16, [](std::size_t) {
      trace::SpanScope s("test.span.pooled");
    });
  }
  tracer.stop();

  const Json chrome = tracer.chrome_json();
  std::set<double> tids;
  std::size_t spans = 0;
  for (const Json& e : chrome.get("traceEvents").as_array()) {
    tids.insert(e.number_at("tid"));
    if (e.string_at("name") == std::string("test.span.pooled")) ++spans;
  }
  EXPECT_EQ(spans, 50u * 16u);
  EXPECT_LE(tids.size(), 4u);
}

TEST(TraceSpan, WriteChromeProducesParseableFile) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  { trace::SpanScope s("test.span.file"); }
  tracer.stop();
  const std::string path = "test_trace_chrome_out.json";
  tracer.write_chrome(path);
  const Json parsed = verify::read_json_file(path);
  EXPECT_TRUE(parsed.get("traceEvents").is_array());
  std::remove(path.c_str());
}

TEST(TraceCli, FinishReportsUnwritableOutputAndDisarmsExitHook) {
  const std::string trace_out = "test_trace_cli_out.json";
  std::string args[] = {"prog", "--trace=" + trace_out, "keep", "--metrics",
                        "/nonexistent-dir/metrics.json"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  trace::install_cli_observability(&argc, argv.data());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "keep");
  EXPECT_TRUE(Tracer::global().enabled());

  // The trace is written but the metrics file cannot be: the caller must
  // be told, so a CLI can turn it into its exit status.
  EXPECT_FALSE(trace::finish_cli_observability());
  EXPECT_FALSE(Tracer::global().enabled());
  EXPECT_TRUE(verify::read_json_file(trace_out).get("traceEvents").is_array());
  std::remove(trace_out.c_str());

  // Finished: a second call, like the atexit hook, has nothing to write.
  EXPECT_TRUE(trace::finish_cli_observability());
}

TEST(TraceProbe, CounterAndHistogramDeltas) {
  trace::Counter& c = Registry::global().counter("test.probe.counter");
  trace::Histogram& h = Registry::global().histogram("test.probe.hist");
  c.add(5);
  h.record(3.0);

  trace::TestProbe probe;
  EXPECT_EQ(probe.counter_delta("test.probe.counter"), 0u);
  EXPECT_EQ(probe.counter_delta("test.probe.never_registered"), 0u);
  c.add(2);
  h.record(7.0);
  h.record(40.0);
  EXPECT_EQ(probe.counter_delta("test.probe.counter"), 2u);
  EXPECT_EQ(probe.histogram_delta("test.probe.hist"), 2u);
  // Pre-baseline records (3.0) never leak into the delta.
  EXPECT_EQ(probe.histogram_delta_above("test.probe.hist", 2.0), 2u);
  EXPECT_EQ(probe.histogram_delta_above("test.probe.hist", 16.0), 1u);
  probe.reset();
  EXPECT_EQ(probe.counter_delta("test.probe.counter"), 0u);

  // Counters registered after the baseline count from zero.
  Registry::global().counter("test.probe.late").add(4);
  EXPECT_EQ(probe.counter_delta("test.probe.late"), 4u);
}

TEST(TraceProbe, DeltaSnapshotFiltersNondeterministicMetrics) {
  Registry::global().counter("test.probe.snap.work").add(1);
  Registry::global().counter("test.probe.snap.wall_us").add(123);
  trace::TestProbe probe;
  const Json snap = probe.delta_snapshot();
  EXPECT_DOUBLE_EQ(snap.number_at("schema_version"), 1.0);
  // Zero deltas keep the key set stable across otherwise-identical runs.
  EXPECT_TRUE(snap.get("counters").has("test.probe.snap.work"));
  EXPECT_FALSE(snap.get("counters").has("test.probe.snap.wall_us"));
  for (const auto& [name, value] : snap.get("counters").as_object()) {
    EXPECT_FALSE(trace::is_timing_metric(name)) << name;
  }
}

#if SFC_TRACE_ENABLED
TEST(TraceMacros, CountAndHistRecordIntoGlobalRegistry) {
  trace::TestProbe probe;
  for (int i = 0; i < 3; ++i) SFC_TRACE_COUNT("test.macro.counter", 2);
  SFC_TRACE_HIST("test.macro.hist", 5.0);
  EXPECT_EQ(probe.counter_delta("test.macro.counter"), 6u);
  EXPECT_EQ(probe.histogram_delta("test.macro.hist"), 1u);
}
#else
TEST(TraceMacros, CountAndHistRecordIntoGlobalRegistry) {
  GTEST_SKIP() << "built with SFC_TRACE=OFF; macros compile to no-ops";
}
#endif

TEST(TraceMacros, DisabledTuRegistersNothingAndSkipsArgumentEvaluation) {
  // trace_off_tu.cpp forces SFC_TRACE_ENABLED=0 for its own macros: the
  // argument expressions (each a ++) must never run...
  EXPECT_EQ(trace::test_off::run_disabled_instrumentation(), 0);
  // ...and none of its metric names may reach the registry.
  for (const auto& name : Registry::global().counter_names()) {
    EXPECT_NE(name, "test.off_tu.counter");
  }
  EXPECT_EQ(Registry::global().find_histogram("test.off_tu.histogram"),
            nullptr);
}

/// The cross-thread-count determinism property the subsystem is designed
/// around: for a deterministic workload (Monte Carlo with counter-based
/// RNG streams), the deterministic metric deltas are bit-identical no
/// matter how many threads executed it.
TEST(TraceDeterminism, DeltaSnapshotBitIdenticalAcrossThreadCounts) {
  cim::MonteCarloConfig mc;
  mc.runs = 4;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();

  mc.exec = exec::ExecPolicy::serial();
  trace::TestProbe serial_probe;
  const cim::MonteCarloResult serial = cim::run_montecarlo(cfg, mc);
  const std::string serial_snap = canonical(serial_probe.delta_snapshot());
  const std::uint64_t serial_runs = serial_probe.counter_delta("cim.mc.runs");
  const std::uint64_t serial_iters =
      serial_probe.counter_delta("spice.newton.iterations");

  mc.exec.threads = 8;
  trace::TestProbe parallel_probe;
  const cim::MonteCarloResult parallel = cim::run_montecarlo(cfg, mc);
  const std::string parallel_snap = canonical(parallel_probe.delta_snapshot());

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  EXPECT_EQ(serial_snap, parallel_snap);
#if SFC_TRACE_ENABLED
  // The snapshot carries real solver work, not just an empty key set.
  EXPECT_EQ(serial_runs, 4u);
  EXPECT_GT(serial_iters, 0u);
  EXPECT_EQ(serial_iters,
            parallel_probe.counter_delta("spice.newton.iterations"));
#endif
}

}  // namespace
