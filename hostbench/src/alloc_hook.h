// Process-wide allocation accounting for the benchmark binary.
//
// alloc_hook.cpp replaces the global operator new/delete family, so every
// heap allocation made anywhere in the process (the guard, the simulator,
// the benchmark itself) is counted. The benchmark is single-threaded;
// the counters are plain integers.
#pragma once

#include <cstdint>

namespace hostbench::alloc {

struct Snapshot {
  std::uint64_t calls = 0;       // operator new calls since process start
  std::int64_t live_bytes = 0;   // usable bytes currently allocated
  std::int64_t peak_bytes = 0;   // high-water mark since reset_peak()
};

[[nodiscard]] Snapshot snapshot();

/// Restarts the high-water mark at the current live level.
void reset_peak();

}  // namespace hostbench::alloc
