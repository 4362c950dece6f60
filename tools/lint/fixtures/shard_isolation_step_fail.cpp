// Fixture: MUST FAIL the shard-isolation rule (packet-path pass only).
//
// A sim-free guard core whose per-packet entry is `step`, not `process`.
// Every piece of per-source state lives inside Shard, so the declaration
// pass is clean; the one violation is the hard-coded `shards_[0]` that
// only `step` reaches. A rule that knew only the `process` root would
// find nothing here.
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

class StepCore {
 public:
  std::int64_t step(const Packet& p, std::int64_t now) {
    return admit(p) ? now : 0;
  }

 private:
  struct Shard {
    common::BoundedTable<std::uint32_t, std::uint64_t> per_source;
    TokenLimiter rl;
  };

  bool admit(const Packet& p) {
    // Violation: every lane reads lane 0's limiter.
    return shards_[0]->rl.admit(p.src);
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dnsguard
