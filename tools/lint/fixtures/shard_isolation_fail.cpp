// Fixture: MUST FAIL the shard-isolation rule (both passes).
//
// Two violations: per-source state (a BoundedTable and a rate limiter)
// declared outside the nested Shard struct with no shardsafe annotation,
// and a hard-coded `shards_[0]` subscript inside the packet path — every
// lane would read lane 0's counters instead of its own.
#include <cstdint>
#include <memory>
#include <vector>

namespace common {
template <typename K, typename V>
struct BoundedTable {};
}  // namespace common

namespace dnsguard {

struct TokenLimiter {
  bool admit(std::uint32_t) { return true; }
};

struct Packet {
  std::uint32_t src = 0;
};

class LeakyGuard {
 public:
  void process(const Packet& p) {
    // Violation: constant subscript on the per-packet path.
    Shard& s = *shards_[0];
    if (!s.busy && !shared_rl_.admit(p.src)) s.busy = true;
  }

 private:
  struct Shard {
    bool busy = false;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  // Violations: per-source mutable state outside Shard, unannotated.
  common::BoundedTable<std::uint32_t, std::uint64_t> per_source_;
  TokenLimiter shared_rl_;
};

}  // namespace dnsguard
