#include "layers.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

std::int64_t TimedDotEngine::dot(std::span<const std::uint8_t> a,
                                 std::span<const std::int8_t> w) {
  return inner_.dot(a, w);
}

void TimedDotEngine::dot_batch(std::span<const std::uint8_t> a,
                               std::span<const std::int8_t> weights,
                               std::size_t row_stride, std::size_t rows,
                               std::int64_t* out) {
  const auto t0 = Clock::now();
  inner_.dot_batch(a, weights, row_stride, rows, out);
  dot_batch_ms_ += ms_since(t0);
}

void TimedDotEngine::begin_layer(int layer_index) {
  const auto t0 = Clock::now();
  inner_.begin_layer(layer_index);
  begin_layer_ms_ += ms_since(t0);
}

double time_mac_ns(const sfc::cim::BehavioralArrayModel& model,
                   double temperature_c, bool with_noise) {
  constexpr int kCalls = 300000;
  constexpr int kRepeats = 5;
  const int levels = model.cells() + 1;
  std::vector<double> ns;
  long long sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    sfc::util::Rng rng(0x6d6163ULL + static_cast<std::uint64_t>(rep));
    sfc::util::Rng* noise = with_noise ? &rng : nullptr;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      sink += model.mac(i % levels, temperature_c, noise);
    }
    ns.push_back(ms_since(t0) * 1e6 / kCalls);
  }
  // Every decode lands in 0..cells, so the sum is bounded; the check keeps
  // the loop observable.
  if (sink < 0 || sink > static_cast<long long>(kCalls) * kRepeats * levels) {
    throw std::runtime_error("time_mac_ns: decode out of range");
  }
  return sfc::util::percentile(ns, 50.0);
}

const SpanSummary::Name& SpanSummary::operator[](
    const std::string& name) const {
  static const Name kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

SpanSummary summarize_spans(const sfc::verify::Json& chrome) {
  struct Event {
    std::string name;
    double dur = 0.0;
    int parent = -1;
    double child_us = 0.0;
  };
  std::vector<Event> events;
  const auto& raw = chrome.get("traceEvents").as_array();
  events.reserve(raw.size());
  // chrome_json() sorts by (tid, ts, parents first), so a per-thread stack
  // indexed by nesting depth yields each span's parent.
  std::vector<int> open;
  int tid = -1;
  for (const auto& e : raw) {
    Event ev;
    ev.name = e.string_at("name");
    ev.dur = e.number_at("dur");
    const int ev_tid = static_cast<int>(e.number_at("tid"));
    const auto depth =
        static_cast<std::size_t>(e.get("args").number_at("depth"));
    if (ev_tid != tid) {
      open.clear();
      tid = ev_tid;
    }
    if (depth > 0 && depth <= open.size()) ev.parent = open[depth - 1];
    open.resize(depth, -1);
    open.push_back(static_cast<int>(events.size()));
    events.push_back(std::move(ev));
  }

  for (const auto& ev : events) {
    if (ev.parent >= 0) {
      events[static_cast<std::size_t>(ev.parent)].child_us += ev.dur;
    }
  }
  SpanSummary out;
  for (const auto& ev : events) {
    SpanSummary::Name& agg = out.by_name[ev.name];
    ++agg.count;
    agg.total_us += ev.dur;
    agg.self_us += ev.dur - ev.child_us;
    agg.dur_us.push_back(ev.dur);
  }
  return out;
}

void Hash::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Hash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
