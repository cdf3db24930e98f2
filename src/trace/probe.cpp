#include "trace/probe.hpp"

namespace sfc::trace {

TestProbe::TestProbe(Registry& registry) : registry_(registry) { reset(); }

void TestProbe::reset() {
  counters0_ = registry_.counter_values();
  histograms0_ = registry_.histogram_counts();
}

std::uint64_t TestProbe::counter_delta(const std::string& name) const {
  const auto now = registry_.counter_values();
  const auto it = now.find(name);
  if (it == now.end()) return 0;
  const auto base = counters0_.find(name);
  return it->second - (base == counters0_.end() ? 0 : base->second);
}

std::uint64_t TestProbe::histogram_delta(const std::string& name) const {
  const Histogram* h = registry_.find_histogram(name);
  if (h == nullptr) return 0;
  std::uint64_t base_total = 0;
  const auto base = histograms0_.find(name);
  if (base != histograms0_.end()) {
    for (const std::uint64_t n : base->second) base_total += n;
  }
  return h->count() - base_total;
}

std::uint64_t TestProbe::histogram_delta_above(const std::string& name,
                                               double threshold) const {
  const Histogram* h = registry_.find_histogram(name);
  if (h == nullptr) return 0;
  // Baseline tally over the same buckets count_above() sums.
  const auto& bounds = h->bounds();
  std::size_t first = 0;
  while (first < bounds.size() && bounds[first] < threshold) ++first;
  std::uint64_t base_total = 0;
  const auto base = histograms0_.find(name);
  if (base != histograms0_.end()) {
    for (std::size_t i = first + 1; i < base->second.size(); ++i) {
      base_total += base->second[i];
    }
  }
  return h->count_above(threshold) - base_total;
}

verify::Json TestProbe::delta_snapshot() const {
  using verify::Json;
  Json root = Json::object();
  root.set("schema_version", Json(1.0));

  Json counters = Json::object();
  for (const auto& [name, value] : registry_.counter_values()) {
    if (is_timing_metric(name)) continue;
    const auto base = counters0_.find(name);
    const std::uint64_t delta =
        value - (base == counters0_.end() ? 0 : base->second);
    counters.set(name, Json(static_cast<double>(delta)));
  }
  root.set("counters", std::move(counters));

  Json hists = Json::object();
  for (const auto& [name, counts] : registry_.histogram_counts()) {
    if (is_timing_metric(name)) continue;
    const auto base = histograms0_.find(name);
    std::vector<double> deltas(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::uint64_t b =
          (base != histograms0_.end() && i < base->second.size())
              ? base->second[i]
              : 0;
      deltas[i] = static_cast<double>(counts[i] - b);
    }
    hists.set(name, Json::array_of(deltas));
  }
  root.set("histograms", std::move(hists));
  return root;
}

}  // namespace sfc::trace
