// Fan-out API: ExecPolicy (how many threads), parallel_for over an index
// range, and JobReport (job wall time + convergence counts).
//
// Determinism contract
// --------------------
// Tasks receive only their index. As long as a task's result is a pure
// function of that index (all randomness routed through
// exec::stream_seed(seed, index), all outputs written to the task's own
// slot), a job is bit-identical at any thread count — threads only decide
// wall-clock time, never results. Every sfc user of this API (Monte
// Carlo runs, batched NN rows) is structured that way.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <type_traits>
#include <vector>

#include "trace/trace.hpp"

namespace sfc::exec {

/// How a fan-out executes. The default is serial, so callers opt in to
/// parallelism explicitly and single-threaded behaviour stays the
/// reference.
struct ExecPolicy {
  /// Threads that drain the job, the caller included: 1 = inline on the
  /// caller (serial), 0 = one per hardware thread, n > 1 = exactly n.
  int threads = 1;

  static ExecPolicy serial() { return {}; }

  /// Threads a job over `n` tasks will actually use.
  int resolved_threads(std::size_t n) const;
};

/// What a fan-out did: wall time of the whole job and how many tasks
/// reported success ("converged") vs failure.
struct JobReport {
  int threads_used = 1;
  std::size_t tasks = 0;
  double wall_ms = 0.0;          ///< whole-job wall-clock time
  /// Per-task wall time, indexed by task. parallel_for leaves it empty, as
  /// it reads the clock only when the job starts and ends; a caller that
  /// times its own tasks fills it (run_montecarlo times each run).
  std::vector<double> task_ms;
  std::size_t converged = 0;     ///< tasks that completed / returned true
  std::size_t failed = 0;        ///< tasks that returned false

  /// Sum of per-task times — the serial-equivalent work.
  double task_ms_total() const;
  /// task_ms_total / wall_ms: effective parallelism actually achieved
  /// (0 while task_ms is empty).
  double speedup() const;
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Runs body(ctx) on the caller and on up to `helpers` of the process's
/// persistent workers, and returns once the caller's call and every
/// helper's call have returned. body must not throw, and must return only
/// when it has nothing left to hand out, because a worker whose call
/// returns closes the job to further helpers.
void run_with_helpers(int helpers, void (*body)(void*) noexcept, void* ctx);

}  // namespace detail

/// Run fn(i) for every i in [0, n) under `policy` and report timings.
///
/// The caller drains indices from a shared atomic counter alongside up to
/// threads_used - 1 persistent workers (a process-wide set that grows to
/// the largest job and parks when idle); tasks never learn which thread
/// runs them. Workers busy elsewhere (a nested or concurrent job) just do
/// not join, and the caller finishes the job alone. A one-thread job is
/// one chunk, run inline on the caller in index order fn(0), fn(1), ...,
/// fn(n-1). The clock is read only when the job starts and ends. A task
/// may call parallel_for itself; static destructors must not, because the
/// workers are stopped by one.
///
/// `fn` may return void (completion counts as converged) or bool (true is
/// tallied as converged, false as failed — e.g. a Newton solve outcome).
/// The first exception thrown by any task stops the dispensing and is
/// rethrown on the caller once every helper has left the job.
template <typename Fn>
JobReport parallel_for(const ExecPolicy& policy, std::size_t n, Fn&& fn) {
  SFC_TRACE_SPAN("exec.parallel_for");
  JobReport report;
  report.tasks = n;
  report.threads_used = policy.resolved_threads(n);
  if (n == 0) return report;

  // One thread takes the whole range; otherwise about four chunks per
  // thread amortize the atomic fetch without starving the tail.
  const std::size_t chunk =
      report.threads_used == 1
          ? n
          : std::max<std::size_t>(
                1, n / (static_cast<std::size_t>(report.threads_used) * 4));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> converged{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<bool> aborted{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  // The tallies stay local to the drain and reach the shared counts once,
  // when it ends.
  auto drain = [&]() {
    std::size_t ok = 0;
    std::size_t bad = 0;
    while (!aborted.load(std::memory_order_relaxed)) {
      const std::size_t base =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (base >= n) break;
      const std::size_t end = base + chunk < n ? base + chunk : n;
      for (std::size_t i = base; i < end; ++i) {
        try {
          if constexpr (std::is_convertible_v<
                            std::invoke_result_t<Fn&, std::size_t>, bool>) {
            if (fn(i)) {
              ++ok;
            } else {
              ++bad;
            }
          } else {
            fn(i);
            ++ok;
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          aborted.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
    converged.fetch_add(ok, std::memory_order_relaxed);
    failed.fetch_add(bad, std::memory_order_relaxed);
  };

  const auto job_t0 = detail::Clock::now();
  if (report.threads_used == 1) {
    drain();
  } else {
    detail::run_with_helpers(
        report.threads_used - 1,
        [](void* d) noexcept { (*static_cast<decltype(drain)*>(d))(); },
        &drain);
  }
  report.wall_ms = detail::to_ms(detail::Clock::now() - job_t0);
  report.converged = converged.load();
  report.failed = failed.load();
  SFC_TRACE_COUNT("exec.jobs", 1);
  SFC_TRACE_COUNT("exec.tasks.converged", report.converged);
  SFC_TRACE_COUNT("exec.tasks.failed", report.failed);
  if (error) std::rethrow_exception(error);
  return report;
}

}  // namespace sfc::exec
