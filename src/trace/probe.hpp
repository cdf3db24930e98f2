// Test-instrumentation harness: a TestProbe baselines the global metrics
// registry at construction and answers *delta* questions afterwards, so a
// test can assert on engine internals ("this transient rejected no steps",
// "the sweep failed exactly K points") without resetting global state or
// caring what earlier tests recorded.
//
// Delta snapshots only cover deterministic metrics (timing names, per
// is_timing_metric, are skipped), so a delta snapshot is bit-identical
// across thread counts for a deterministic workload — the property
// test_trace pins down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/registry.hpp"
#include "verify/json.hpp"

namespace sfc::trace {

class TestProbe {
 public:
  explicit TestProbe(Registry& registry = Registry::global());

  /// Re-baseline to the registry's current state.
  void reset();

  /// Counter increase since the baseline. Counters that did not exist at
  /// baseline count from zero; unknown names return 0.
  std::uint64_t counter_delta(const std::string& name) const;

  /// Total histogram records since the baseline.
  std::uint64_t histogram_delta(const std::string& name) const;

  /// Records with value > threshold since the baseline (bucket-exact when
  /// the threshold is a bucket bound — e.g. "no transient step needed
  /// more than 8 Newton iterations").
  std::uint64_t histogram_delta_above(const std::string& name,
                                      double threshold) const;

  /// Canonical Json of every non-timing counter / histogram delta
  /// (schema_version 1, sorted keys; zero deltas are included so the key
  /// set is stable). Diffable across runs and thread counts.
  verify::Json delta_snapshot() const;

 private:
  Registry& registry_;
  std::map<std::string, std::uint64_t> counters0_;
  /// Bucket counts (incl. overflow) at baseline, per histogram.
  std::map<std::string, std::vector<std::uint64_t>> histograms0_;
};

}  // namespace sfc::trace
