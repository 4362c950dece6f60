// BoundedTable: the one per-source state container every subsystem shares.
//
// The guard exists to stop spoofed floods, yet any unbounded map keyed by
// a remote-controlled value (source address, port, query id) turns the
// defense itself into the DoS target: an attacker spraying spoofed sources
// inflates the map until the guard swaps or dies. BoundedTable closes that
// class in one place by combining
//
//   - a hard capacity cap (allocation happens up front / in chunks, and
//     steady state never touches the allocator),
//   - LRU eviction at the cap (or refusal, for tables whose entries
//     represent verified work that must not be displaced),
//   - TTL and idle-timeout reaping, incremental via a wrapping cursor so
//     the cost is spread over packet events instead of spiking, and
//   - per-reason eviction accounting wired into obs::MetricsRegistry
//     (occupancy gauge + eviction/expiry counters), so "this table is
//     under state-exhaustion pressure" is an exported signal, not a
//     heap profile.
//
// Layout: an open-addressing, linear-probe index of u32 slot references
// over slots stored in a std::deque (chunked, addresses stable — Value*
// handed out by find()/try_emplace() stay valid until that entry itself is
// erased or evicted). The LRU list is intrusive: u32 prev/next indices in
// the slots, no nodes, no allocation. Values live in std::optional so
// Value needs no default constructor (TokenBucket has none) and free
// slots hold no live Value.
//
// Reentrancy rule: the eviction callback runs after the entry has been
// fully unlinked (it receives the moved-out key and value), so it may
// touch *other* tables, send packets, and even erase() or insert *other*
// entries of the evicting table itself (slot storage is stable and the
// evicted entry is already off the index/LRU when the callback runs —
// the guard's NAT-evict -> TCP-close -> NAT-erase_if chain relies on
// this). The one thing it must not do is clear() the evicting table.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dnsguard::common {

/// Why an entry left the table involuntarily. Plain erase()/clear() are
/// voluntary and carry no reason.
enum class EvictReason : std::uint8_t {
  kCapacity,  // displaced by a new entry while the table was full
  kTtl,       // absolute lifetime (or per-entry deadline) passed
  kIdle,      // not touched for longer than the idle timeout
};

[[nodiscard]] constexpr std::string_view evict_reason_name(EvictReason r) {
  switch (r) {
    case EvictReason::kCapacity: return "capacity";
    case EvictReason::kTtl: return "ttl";
    case EvictReason::kIdle: return "idle";
  }
  return "?";
}

/// Counter/gauge cells for one table; bind() attaches them under
/// "<prefix>.size", "<prefix>.evicted_capacity", ... so every bounded
/// table in the system exports the same shape.
struct BoundedTableStats {
  obs::Counter inserts;
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evicted_capacity;
  obs::Counter expired_ttl;
  obs::Counter expired_idle;
  obs::Counter insert_refused;
  obs::Gauge occupancy;  // current size; .max is the high-water mark

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_gauge(p + ".size", occupancy);
    registry.attach_counter(p + ".inserts", inserts);
    registry.attach_counter(p + ".hits", hits);
    registry.attach_counter(p + ".misses", misses);
    registry.attach_counter(p + ".evicted_capacity", evicted_capacity);
    registry.attach_counter(p + ".expired_ttl", expired_ttl);
    registry.attach_counter(p + ".expired_idle", expired_idle);
    registry.attach_counter(p + ".insert_refused", insert_refused);
  }

  void reset() {
    inserts.reset();
    hits.reset();
    misses.reset();
    evicted_capacity.reset();
    expired_ttl.reset();
    expired_idle.reset();
    insert_refused.reset();
    occupancy.reset();
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BoundedTable {
 public:
  struct Config {
    std::size_t capacity = 1024;
    /// Absolute entry lifetime from insertion; zero = no TTL. Individual
    /// entries can override their deadline via set_expiry().
    SimDuration ttl{};
    /// Evict entries untouched for this long; zero = no idle reaping.
    SimDuration idle_timeout{};
    /// Full table + new key: evict the LRU entry (true) or refuse the
    /// insert (false — for tables of verified work, where §III.G's "refuse
    /// new hosts rather than evict active ones" applies).
    bool evict_lru_when_full = true;
  };

  struct InsertResult {
    Value* value = nullptr;  // null only when the insert was refused
    bool inserted = false;   // false: key already present (or refused)
  };

  /// Runs on capacity eviction and TTL/idle expiry (not on erase/clear).
  using EvictCallback = std::function<void(const Key&, Value&, EvictReason)>;

  explicit BoundedTable(Config config) : config_(config) {
    if (config_.capacity == 0) config_.capacity = 1;
    std::size_t buckets = 8;
    while (buckets < config_.capacity * 2) buckets <<= 1;
    index_.assign(buckets, 0);
    mask_ = buckets - 1;
  }
  BoundedTable() : BoundedTable(Config{}) {}

  BoundedTable(const BoundedTable&) = delete;
  BoundedTable& operator=(const BoundedTable&) = delete;
  BoundedTable(BoundedTable&&) = default;
  BoundedTable& operator=(BoundedTable&&) = default;

  void set_evict_callback(EvictCallback cb) { on_evict_ = std::move(cb); }

  /// Looks up `key`, refreshing its LRU position and last-use time. A
  /// TTL/idle-expired entry is evicted on contact and reported as a miss.
  [[nodiscard]] Value* find(const Key& key, SimTime now) {
    const std::size_t b = find_bucket(key);
    if (b == kNoBucket) {
      ++stats_.misses;
      return nullptr;
    }
    const std::uint32_t si = index_[b] - 1;
    if (expired(slots_[si], now)) {
      remove_bucket(b, expire_reason(slots_[si], now));
      ++stats_.misses;
      return nullptr;
    }
    Slot& s = slots_[si];
    s.last_use = now;
    lru_move_front(si);
    ++stats_.hits;
    return &*s.value;
  }

  /// Read-only lookup: no LRU touch, no lazy eviction, no stats.
  [[nodiscard]] const Value* peek(const Key& key, SimTime now) const {
    const std::size_t b = find_bucket(key);
    if (b == kNoBucket) return nullptr;
    const Slot& s = slots_[index_[b] - 1];
    return expired(s, now) ? nullptr : &*s.value;
  }

  /// True if the key occupies a slot, expired or not (query-id reuse
  /// checks care about occupancy, not liveness).
  [[nodiscard]] bool contains(const Key& key) const {
    return find_bucket(key) != kNoBucket;
  }

  /// Inserts Value{args...} under `key` if absent. An existing live entry
  /// is returned with inserted=false (and touched); an expired one is
  /// evicted first. At capacity: LRU-evict if configured, else refuse
  /// (null value).
  template <typename... Args>
  InsertResult try_emplace(const Key& key, SimTime now, Args&&... args) {
    const std::size_t b = find_bucket(key);
    if (b != kNoBucket) {
      const std::uint32_t si = index_[b] - 1;
      if (!expired(slots_[si], now)) {
        Slot& s = slots_[si];
        s.last_use = now;
        lru_move_front(si);
        ++stats_.hits;
        return {&*s.value, false};
      }
      remove_bucket(b, expire_reason(slots_[si], now));
    }
    if (size_ >= config_.capacity) {
      if (!config_.evict_lru_when_full || lru_tail_ == kNil) {
        ++stats_.insert_refused;
        return {nullptr, false};
      }
      // Charge the eviction honestly: if the LRU entry is already past
      // its TTL/idle deadline, this is an expiry that a find() or reap()
      // would have reported as kTtl/kIdle — not capacity pressure. The
      // contact path and the cursor sweep must agree, or the
      // evicted_capacity gauge reads "table thrashing" when the table is
      // merely full of expired entries.
      const Slot& tail = slots_[lru_tail_];
      remove_slot(lru_tail_, expired(tail, now) ? expire_reason(tail, now)
                                                : EvictReason::kCapacity);
    }
    const std::uint32_t si = alloc_slot();
    Slot& s = slots_[si];
    s.key = key;
    s.value.emplace(std::forward<Args>(args)...);
    s.inserted_at = now;
    s.last_use = now;
    s.expires_at =
        config_.ttl.ns > 0 ? now + config_.ttl : SimTime{kNoExpiryNs};
    lru_push_front(si);
    index_insert(si);
    ++size_;
    ++stats_.inserts;
    stats_.occupancy.set(static_cast<std::int64_t>(size_));
    return {&*s.value, true};
  }

  /// Overrides the entry's absolute deadline (per-entry TTL, e.g. a cookie
  /// cache honoring the TXT record's own TTL). False if the key is absent.
  bool set_expiry(const Key& key, SimTime expires_at) {
    const std::size_t b = find_bucket(key);
    if (b == kNoBucket) return false;
    slots_[index_[b] - 1].expires_at = expires_at;
    return true;
  }

  /// Voluntary removal: no eviction callback, no reason counter.
  bool erase(const Key& key) {
    const std::size_t b = find_bucket(key);
    if (b == kNoBucket) return false;
    remove_bucket(b, std::nullopt);
    return true;
  }

  /// Removes every entry matching pred(key, value); returns the count.
  /// Voluntary (no callback) — the caller already knows.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    for (std::uint32_t si = 0; si < slots_.size(); ++si) {
      if (slots_[si].value && pred(std::as_const(slots_[si].key),
                                   *slots_[si].value)) {
        remove_slot(si, std::nullopt);
        ++erased;
      }
    }
    return erased;
  }

  /// Evicts expired entries, scanning at most `max_scan` slots from a
  /// wrapping cursor — call with a small budget from packet handlers for
  /// amortized O(1) reaping, or with the default to sweep everything.
  /// The slot count is re-read every step instead of cached: an eviction
  /// callback may insert entries (growing the slot array — the sweep then
  /// covers them instead of wrapping early past live slots) and a table
  /// whose storage shrinks mid-sweep terminates instead of walking off
  /// the end.
  std::size_t reap(SimTime now,
                   std::size_t max_scan = std::numeric_limits<
                       std::size_t>::max()) {
    std::size_t reaped = 0;
    for (std::size_t i = 0; i < max_scan; ++i) {
      const std::size_t n = slots_.size();
      if (n == 0 || i >= n) break;
      if (cursor_ >= n) cursor_ = 0;
      Slot& s = slots_[cursor_];
      if (s.value && expired(s, now)) {
        remove_slot(cursor_, expire_reason(s, now));
        ++reaped;
      }
      ++cursor_;
    }
    return reaped;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_) {
      if (s.value) fn(std::as_const(s.key), *s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.value) fn(s.key, *s.value);
    }
  }

  /// The least-recently-used key, or nullptr when empty (tests).
  [[nodiscard]] const Key* lru_key() const {
    return lru_tail_ == kNil ? nullptr : &slots_[lru_tail_].key;
  }

  void clear() {
    slots_.clear();
    free_.clear();
    index_.assign(index_.size(), 0);
    lru_head_ = lru_tail_ = kNil;
    size_ = 0;
    cursor_ = 0;
    stats_.occupancy.set(0);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] bool full() const { return size_ >= config_.capacity; }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] const BoundedTableStats& stats() const { return stats_; }
  [[nodiscard]] BoundedTableStats& stats() { return stats_; }
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix) {
    stats_.bind(registry, prefix);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;
  static constexpr std::size_t kNoBucket =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::int64_t kNoExpiryNs =
      std::numeric_limits<std::int64_t>::max();

  struct Slot {
    Key key{};
    std::optional<Value> value;  // disengaged == free slot
    SimTime inserted_at{};
    SimTime last_use{};
    SimTime expires_at{kNoExpiryNs};
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  // Small keys (ports, query ids) hash to themselves under std::hash;
  // a Fibonacci multiply spreads them across the high bits before the
  // power-of-two mask.
  [[nodiscard]] std::size_t bucket_of(const Key& key) const {
    const std::uint64_t h =
        static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 32) & mask_;
  }

  [[nodiscard]] std::size_t find_bucket(const Key& key) const {
    std::size_t b = bucket_of(key);
    while (index_[b] != 0) {
      if (slots_[index_[b] - 1].key == key) return b;
      b = (b + 1) & mask_;
    }
    return kNoBucket;
  }

  void index_insert(std::uint32_t si) {
    std::size_t b = bucket_of(slots_[si].key);
    while (index_[b] != 0) b = (b + 1) & mask_;
    index_[b] = si + 1;
  }

  // Backward-shift deletion keeps every remaining entry reachable from
  // its home bucket without tombstones.
  void index_erase_at(std::size_t b) {
    index_[b] = 0;
    std::size_t hole = b;
    std::size_t j = b;
    while (true) {
      j = (j + 1) & mask_;
      if (index_[j] == 0) break;
      const std::size_t home = bucket_of(slots_[index_[j] - 1].key);
      const bool home_in_hole_j = hole < j ? (home > hole && home <= j)
                                           : (home > hole || home <= j);
      if (!home_in_hole_j) {
        index_[hole] = index_[j];
        index_[j] = 0;
        hole = j;
      }
    }
  }

  [[nodiscard]] bool expired(const Slot& s, SimTime now) const {
    if (s.expires_at.ns != kNoExpiryNs && now >= s.expires_at) return true;
    return config_.idle_timeout.ns > 0 &&
           now - s.last_use >= config_.idle_timeout;
  }
  [[nodiscard]] EvictReason expire_reason(const Slot& s, SimTime now) const {
    return s.expires_at.ns != kNoExpiryNs && now >= s.expires_at
               ? EvictReason::kTtl
               : EvictReason::kIdle;
  }

  std::uint32_t alloc_slot() {
    if (!free_.empty()) {
      const std::uint32_t si = free_.back();
      free_.pop_back();
      return si;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void lru_push_front(std::uint32_t si) {
    Slot& s = slots_[si];
    s.lru_prev = kNil;
    s.lru_next = lru_head_;
    if (lru_head_ != kNil) slots_[lru_head_].lru_prev = si;
    lru_head_ = si;
    if (lru_tail_ == kNil) lru_tail_ = si;
  }
  void lru_unlink(std::uint32_t si) {
    Slot& s = slots_[si];
    if (s.lru_prev != kNil) {
      slots_[s.lru_prev].lru_next = s.lru_next;
    } else {
      lru_head_ = s.lru_next;
    }
    if (s.lru_next != kNil) {
      slots_[s.lru_next].lru_prev = s.lru_prev;
    } else {
      lru_tail_ = s.lru_prev;
    }
    s.lru_prev = s.lru_next = kNil;
  }
  void lru_move_front(std::uint32_t si) {
    if (lru_head_ == si) return;
    lru_unlink(si);
    lru_push_front(si);
  }

  void remove_slot(std::uint32_t si, std::optional<EvictReason> reason) {
    std::size_t b = bucket_of(slots_[si].key);
    while (index_[b] != si + 1) b = (b + 1) & mask_;
    remove_bucket(b, reason);
  }

  void remove_bucket(std::size_t b, std::optional<EvictReason> reason) {
    const std::uint32_t si = index_[b] - 1;
    Slot& s = slots_[si];
    index_erase_at(b);
    lru_unlink(si);
    Key key = std::move(s.key);
    Value value = std::move(*s.value);
    s.value.reset();
    s.key = Key{};
    s.expires_at = SimTime{kNoExpiryNs};
    free_.push_back(si);
    --size_;
    stats_.occupancy.set(static_cast<std::int64_t>(size_));
    if (reason) {
      switch (*reason) {
        case EvictReason::kCapacity: ++stats_.evicted_capacity; break;
        case EvictReason::kTtl: ++stats_.expired_ttl; break;
        case EvictReason::kIdle: ++stats_.expired_idle; break;
      }
      // Entry is fully unlinked: the callback may reenter this table or
      // others (see the reentrancy rule in the file header); only clear()
      // of this table is off-limits.
      if (on_evict_) on_evict_(key, value, *reason);
    }
  }

  Config config_;
  std::vector<std::uint32_t> index_;  // slot index + 1; 0 = empty
  std::size_t mask_ = 0;
  std::deque<Slot> slots_;            // stable addresses, chunked growth
  std::vector<std::uint32_t> free_;
  std::uint32_t lru_head_ = kNil;     // most recently used
  std::uint32_t lru_tail_ = kNil;     // least recently used
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;            // reap() scan position
  BoundedTableStats stats_;
  EvictCallback on_evict_;
};

}  // namespace dnsguard::common
