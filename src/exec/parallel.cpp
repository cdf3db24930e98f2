#include "exec/parallel.hpp"

#include <algorithm>

namespace sfc::exec {

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
