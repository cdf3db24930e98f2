#include "exec/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <thread>

namespace sfc::exec {
namespace {

/// Pause instructions a worker spins through, watching for a new job,
/// before it parks on the condition variable; a caller spins as long for
/// its helpers to leave before it parks. A noisy VGG forward posts a job
/// every few tens of µs, so a spinning worker joins the next one at once
/// where a parked one first waits for a futex wake-up (DESIGN.md §7 has
/// the measurement). An idle worker burns at most this budget per job.
constexpr int kSpinPauses = 20000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until done() or the budget runs out.
template <typename Done>
void spin_until(Done done) {
  for (int i = 0; i < kSpinPauses && !done(); ++i) cpu_relax();
}

/// One parallel_for fan-out. It lives on the caller's stack; the pool only
/// points at it while it is open or has helpers inside.
struct Job {
  void (*body)(void*) noexcept;
  void* ctx;
  int helpers;  ///< workers 0 .. helpers - 1 may join
  /// Helpers inside body. Changed only under Pool::mutex_; atomic so the
  /// caller can spin on it without the lock.
  std::atomic<int> active{0};
};

/// The process-wide set of persistent workers. Worker w joins only jobs
/// that want more than w helpers, so a job at T threads runs on the caller
/// and on workers 0 .. T - 2 at most.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      posted_.fetch_add(1);  // ends the spinners' wait
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (workers_.size() < static_cast<std::size_t>(job.helpers)) {
        const int index = static_cast<int>(workers_.size());
        workers_.emplace_back([this, index] { work(index); });
      }
      open_.push_back(&job);
      posted_.fetch_add(1);
    }
    wake_.notify_all();
    job.body(job.ctx);
    // Close the job before waiting: once it is off the open list no
    // helper can join it, and once `active` reads 0 under the lock no
    // helper touches it again, so it may leave the caller's stack.
    std::unique_lock<std::mutex> lock(mutex_);
    close(job);
    lock.unlock();
    spin_until([&] { return job.active.load() == 0; });
    lock.lock();
    done_.wait(lock, [&] { return job.active.load() == 0; });
  }

 private:
  void close(Job& job) {
    const auto it = std::find(open_.begin(), open_.end(), &job);
    if (it != open_.end()) open_.erase(it);
  }

  Job* claim(int index) {
    for (Job* job : open_) {
      if (index < job->helpers) {
        job->active.fetch_add(1);
        return job;
      }
    }
    return nullptr;
  }

  void work(int index) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const std::uint64_t seen = posted_.load();
      if (Job* job = claim(index)) {
        lock.unlock();
        job->body(job->ctx);
        lock.lock();
        // body returned, so the job has nothing left to hand out.
        close(*job);
        if (job->active.fetch_sub(1) == 1) done_.notify_all();
        continue;
      }
      if (stop_) return;
      lock.unlock();
      spin_until([&] { return posted_.load() != seen; });
      lock.lock();
      wake_.wait(lock, [&] { return stop_ || posted_.load() != seen; });
    }
  }

  std::mutex mutex_;  ///< guards everything below but posted_'s reads
  std::condition_variable wake_;  ///< parked workers wait for a new job
  std::condition_variable done_;  ///< callers wait for their helpers
  std::vector<Job*> open_;        ///< jobs helpers may still join
  std::atomic<std::uint64_t> posted_{0};  ///< jobs posted, spun on unlocked
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

}  // namespace

namespace detail {

void run_with_helpers(int helpers, void (*body)(void*) noexcept, void* ctx) {
  Job job{body, ctx, helpers};
  Pool::instance().run(job);
}

}  // namespace detail

int ExecPolicy::resolved_threads(std::size_t n) const {
  int t = threads == 0 ? static_cast<int>(std::thread::hardware_concurrency())
                       : threads;
  t = std::max(1, t);
  if (n > 0) {
    t = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(t), n));
  }
  return t;
}

double JobReport::task_ms_total() const {
  double total = 0.0;
  for (double t : task_ms) total += t;
  return total;
}

double JobReport::speedup() const {
  return wall_ms > 0.0 ? task_ms_total() / wall_ms : 1.0;
}

}  // namespace sfc::exec
