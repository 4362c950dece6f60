// Fixture: MUST PASS the shard-isolation rule.
//
// A sharded class keeps every piece of per-source mutable state inside the
// nested `struct Shard`, so each lane owns its slice; the one deliberately
// shared member carries a shardsafe annotation, and the only hard-coded
// shard subscript sits in cold setup code the packet path never reaches.
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

class ShardedGuard {
 public:
  void bind_metrics() {
    // Cold path: pin the representative lane for gauge registration.
    probe_ = shards_[0].get();
  }

  void process(const Packet& p) {
    Shard& s = *shards_[p.src % shards_.size()];
    if (!s.rl.admit(p.src) || !aggregate_rl_.admit(0)) drops_++;
  }

 private:
  struct Shard {
    common::BoundedTable<std::uint32_t, std::uint64_t> per_source_;
    TokenLimiter rl;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* probe_ = nullptr;
  // DNSGUARD_LINT_ALLOW(shardsafe): global ceiling across all lanes by
  // design — it caps the aggregate, the per-shard rl caps each source
  TokenLimiter aggregate_rl_;
  std::uint64_t drops_ = 0;
};

}  // namespace dnsguard
