// Metrics registry: named counters and histograms behind lock-free hot
// paths. The registry answers "what did the engine do" (Newton
// iterations, LU factorizations, step rejections, fan-out jobs) as a
// canonical verify::Json snapshot whose deterministic subset is
// bit-identical across thread counts for a deterministic workload.
//
// Contract
// --------
//   * Instrument sites hold a `Counter&` (stable address for the process
//     lifetime). A counter event is a relaxed load and store on the
//     calling thread's own shard slot: no lock prefix, and no cache line
//     that another thread writes. An event whose counter the shard does
//     not cover yet grows the shard under a mutex; reading a counter
//     takes that mutex and sums the live shards plus what exited threads
//     folded in. The registry mutex is only taken on first registration
//     and on snapshot.
//   * Metric names are dot-separated paths ("spice.newton.iterations");
//     names ending in "_us" / "_ms" are *timing* metrics, excluded from
//     the deterministic snapshot because wall time is scheduling-
//     dependent. Every other name is *deterministic*: a pure function of
//     the workload (see DESIGN.md §11 for the name registry).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "verify/json.hpp"

namespace sfc::trace {

namespace detail {

/// The calling thread's counter slots, indexed by counter id. Only the
/// owning thread writes `slots` and `size`, and only under the shard
/// mutex, so readers on other threads see them consistently under it.
struct Shard {
  std::atomic<std::uint64_t>* slots = nullptr;
  std::size_t size = 0;
  bool retired = false;  ///< the thread is exiting; events go to the total
};

inline thread_local constinit Shard t_shard{};

}  // namespace detail

/// Monotonic event count, sharded per thread. add() touches only the
/// calling thread's slot; value() sums every thread's share.
class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) {
    detail::Shard& shard = detail::t_shard;
    if (id_ < shard.size) [[likely]] {
      std::atomic<std::uint64_t>& slot = shard.slots[id_];
      slot.store(slot.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      add_slow(n);
    }
  }
  /// The live threads' slots plus the totals of threads that exited.
  std::uint64_t value() const;

 private:
  friend class Registry;
  /// An event the calling thread's shard does not cover: grows it.
  void add_slow(std::uint64_t n);

  std::size_t id_;
};

/// Fixed-bound histogram: bucket k counts samples with
/// value <= bounds[k]; one extra overflow bucket catches the rest.
/// record() is one relaxed fetch_add on the bucket plus CAS maintenance
/// of sum/max. Bounds are fixed at registration and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket counts, bounds_.size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  /// Total recorded samples strictly greater than `threshold` (computed
  /// from the bucket whose lower edge is >= threshold — exact when the
  /// threshold is one of the bounds).
  std::uint64_t count_above(double threshold) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Unit-width buckets 1..16 plus 32/64/128 — sized for per-step Newton
/// iteration counts (NewtonOptions::max_iterations defaults to 200).
std::vector<double> iteration_buckets();

/// True for metric names that measure wall time ("_us" / "_ms" suffix).
/// Every other metric replays bit-identically for a deterministic
/// workload at any thread count; only those enter Registry::snapshot(false)
/// and TestProbe::delta_snapshot().
bool is_timing_metric(const std::string& name);

class Registry {
 public:
  /// Process-wide registry every SFC_TRACE_* macro records into.
  static Registry& global();

  /// Find-or-create. The returned reference is stable for the process
  /// lifetime, so call sites cache it in a function-local static.
  Counter& counter(const std::string& name);
  /// First registration fixes the bounds (empty = iteration_buckets()).
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Canonical metrics snapshot (schema_version 1, sorted keys):
  ///   { schema_version, counters: {name: n},
  ///     histograms: {name: {bounds, counts, count, sum, max}} }
  /// `include_timing` = false drops "_us"/"_ms" metrics and histogram
  /// sum/max, leaving only values that are deterministic for a
  /// deterministic workload.
  verify::Json snapshot(bool include_timing = true) const;

  /// Names currently registered (sorted; diagnostics and tests).
  std::vector<std::string> counter_names() const;

  /// Raw value maps for delta probes (TestProbe baselines).
  std::map<std::string, std::uint64_t> counter_values() const;
  std::map<std::string, std::vector<std::uint64_t>> histogram_counts() const;
  /// Lookup without creating; nullptr when the name is unregistered.
  const Histogram* find_histogram(const std::string& name) const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Write Registry::global().snapshot() to `path` (dump(2) + newline).
void write_metrics_file(const std::string& path);

}  // namespace sfc::trace
