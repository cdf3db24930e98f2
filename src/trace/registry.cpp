#include "trace/registry.hpp"

#include <algorithm>

namespace sfc::trace {
namespace {

/// Every live thread's shard, and the totals of the threads that exited.
/// Never destroyed: worker threads fold their shards in as they exit, and
/// the exec pool joins its workers in a static destructor that may run
/// after this object's would have.
class Shards {
 public:
  static Shards& instance() {
    static Shards* const shards = new Shards;
    return *shards;
  }

  Shards(const Shards&) = delete;
  Shards& operator=(const Shards&) = delete;

  std::size_t new_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    exited_.push_back(0);
    return exited_.size() - 1;
  }

  void enroll(detail::Shard* shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.push_back(shard);
  }

  /// Grows the calling thread's shard to every registered counter, then
  /// adds n to counter `id`. A retiring thread's events go straight to the
  /// exited total. A shard never outgrows exited_.
  void add(detail::Shard& shard, std::size_t id, std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard.retired) {
      exited_[id] += n;
      return;
    }
    const std::size_t size = exited_.size();
    auto* slots = new std::atomic<std::uint64_t>[size];
    for (std::size_t i = 0; i < size; ++i) {
      slots[i].store(
          i < shard.size ? shard.slots[i].load(std::memory_order_relaxed) : 0,
          std::memory_order_relaxed);
    }
    delete[] shard.slots;
    shard.slots = slots;
    shard.size = size;
    slots[id].store(slots[id].load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
  }

  /// Folds an exiting thread's shard into the exited totals.
  void retire(detail::Shard* shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < shard->size; ++i) {
      exited_[i] += shard->slots[i].load(std::memory_order_relaxed);
    }
    live_.erase(std::find(live_.begin(), live_.end(), shard));
    delete[] shard->slots;
    *shard = detail::Shard{nullptr, 0, true};
  }

  /// Every counter's live slots plus its exited total, indexed by id.
  std::vector<std::uint64_t> totals() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> sums = exited_;
    for (const detail::Shard* shard : live_) {
      for (std::size_t i = 0; i < shard->size; ++i) {
        sums[i] += shard->slots[i].load(std::memory_order_relaxed);
      }
    }
    return sums;
  }

 private:
  Shards() = default;

  std::mutex mutex_;
  std::vector<detail::Shard*> live_;
  std::vector<std::uint64_t> exited_;  ///< exited threads, per counter id
};

/// Enrolls the thread's shard on its first counter event and retires it
/// when the thread exits.
struct ShardOwner {
  ShardOwner() { Shards::instance().enroll(&detail::t_shard); }
  ~ShardOwner() { Shards::instance().retire(&detail::t_shard); }
  ShardOwner(const ShardOwner&) = delete;
  ShardOwner& operator=(const ShardOwner&) = delete;
};

}  // namespace

Counter::Counter() : id_(Shards::instance().new_id()) {}

void Counter::add_slow(std::uint64_t n) {
  detail::Shard& shard = detail::t_shard;
  if (!shard.retired) {
    thread_local ShardOwner owner;
  }
  Shards::instance().add(shard, id_, n);
}

std::uint64_t Counter::value() const {
  return Shards::instance().totals()[id_];
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::count_above(double threshold) const {
  const auto it =
      std::lower_bound(bounds_.begin(), bounds_.end(), threshold);
  std::uint64_t total = 0;
  for (auto idx = static_cast<std::size_t>(it - bounds_.begin()) + 1;
       idx <= bounds_.size(); ++idx) {
    total += buckets_[idx].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> iteration_buckets() {
  std::vector<double> bounds;
  for (int i = 1; i <= 16; ++i) bounds.push_back(i);
  bounds.push_back(32.0);
  bounds.push_back(64.0);
  bounds.push_back(128.0);
  return bounds;
}

bool is_timing_metric(const std::string& name) {
  const auto ends_with = [&name](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  return ends_with("_us") || ends_with("_ms");
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(bounds.empty() ? iteration_buckets()
                                                      : std::move(bounds));
  }
  return *slot;
}

verify::Json Registry::snapshot(bool include_timing) const {
  using verify::Json;
  std::lock_guard<std::mutex> lock(mutex_);
  Json root = Json::object();
  root.set("schema_version", Json(1.0));

  Json counters = Json::object();
  const std::vector<std::uint64_t> totals = Shards::instance().totals();
  for (const auto& [name, c] : counters_) {
    if (!include_timing && is_timing_metric(name)) continue;
    counters.set(name, Json(static_cast<double>(totals[c->id_])));
  }
  root.set("counters", std::move(counters));

  Json hists = Json::object();
  for (const auto& [name, h] : histograms_) {
    if (!include_timing && is_timing_metric(name)) continue;
    Json hj = Json::object();
    hj.set("bounds", Json::array_of(h->bounds()));
    const auto counts = h->counts();
    std::vector<double> as_double(counts.begin(), counts.end());
    hj.set("counts", Json::array_of(as_double));
    hj.set("count", Json(static_cast<double>(h->count())));
    if (include_timing) {
      // sum/max of a timing-valued histogram drift run to run even for a
      // deterministic workload; the deterministic subset keeps only the
      // bucket counts.
      hj.set("sum", Json(h->sum()));
      hj.set("max", Json(h->max()));
    }
    hists.set(name, std::move(hj));
  }
  root.set("histograms", std::move(hists));
  return root;
}

std::vector<std::string> Registry::counter_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, c] : counters_) names.push_back(name);
  return names;
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  const std::vector<std::uint64_t> totals = Shards::instance().totals();
  for (const auto& [name, c] : counters_) out[name] = totals[c->id_];
  return out;
}

std::map<std::string, std::vector<std::uint64_t>> Registry::histogram_counts()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const auto& [name, h] : histograms_) out[name] = h->counts();
  return out;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void write_metrics_file(const std::string& path) {
  verify::write_json_file(path, Registry::global().snapshot());
}

}  // namespace sfc::trace
