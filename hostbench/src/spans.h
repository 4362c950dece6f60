// The benchmark's clocks and its in-memory span log.
//
// Spans are recorded only by the benchmark's own code (around replay
// chunks and isolated layer passes), kept in memory and written out when
// the run ends. A span's self time is its duration minus the time its
// child spans cover.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

/// CPU time consumed by the calling thread, in nanoseconds. Scheduler
/// preemption and hypervisor steal do not count.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Monotonic wall-clock seconds (run budgets only, never measurements).
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal
  std::uint32_t id = 0;   // 1-based; 0 means "no parent"
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;  // thread-CPU clock
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }

  /// Opens a span now; returns its id.
  std::uint32_t open(const char* name, std::uint32_t parent = 0) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{name, id, parent, cpu_ns(), 0});
    return id;
  }
  void close(std::uint32_t id) { spans_[id - 1].end_ns = cpu_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name, in first-seen order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ns_by_name()
      const;

  /// {"spans": [{"name", "id", "parent", "start_ns", "end_ns"}, ...]}
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace hostbench
