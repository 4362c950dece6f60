// BoundedTable unit suite: LRU order, TTL/idle reaping, capacity
// enforcement, eviction accounting, pointer stability, index integrity
// under churn and index growth (the properties every per-source table in
// the system now depends on).
#include "common/bounded_table.h"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"

namespace dnsguard::common {
namespace {

using Table = BoundedTable<std::uint32_t, std::string>;

SimTime at(std::int64_t ms) { return SimTime{} + milliseconds(ms); }

TEST(BoundedTable, InsertFindErase) {
  Table t({.capacity = 8});
  auto r = t.try_emplace(1, at(0), "one");
  ASSERT_NE(r.value, nullptr);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.value, "one");

  auto again = t.try_emplace(1, at(1), "uno");
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(*again.value, "one") << "existing entry must not be replaced";

  EXPECT_EQ(*t.find(1, at(2)), "one");
  EXPECT_EQ(t.find(2, at(2)), nullptr);
  EXPECT_EQ(t.size(), 1u);

  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.find(1, at(3)), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(BoundedTable, CapacityEvictsLeastRecentlyUsed) {
  Table t({.capacity = 3});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");
  ASSERT_NE(t.lru_key(), nullptr);
  EXPECT_EQ(*t.lru_key(), 1u);

  // Touching 1 makes 2 the LRU victim.
  EXPECT_NE(t.find(1, at(3)), nullptr);
  t.try_emplace(4, at(4), "d");
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(2, at(5)), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(t.find(1, at(5)), nullptr);
  EXPECT_NE(t.find(3, at(5)), nullptr);
  EXPECT_NE(t.find(4, at(5)), nullptr);
  EXPECT_EQ(t.stats().evicted_capacity.value(), 1u);
}

TEST(BoundedTable, RefusalModeRejectsAtCap) {
  Table t({.capacity = 2, .evict_lru_when_full = false});
  EXPECT_TRUE(t.try_emplace(1, at(0), "a").inserted);
  EXPECT_TRUE(t.try_emplace(2, at(0), "b").inserted);
  auto r = t.try_emplace(3, at(0), "c");
  EXPECT_EQ(r.value, nullptr);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.stats().insert_refused.value(), 1u);
  // Existing keys still resolve at cap.
  EXPECT_FALSE(t.try_emplace(1, at(1), "x").inserted);
}

TEST(BoundedTable, TtlExpiryOnContactAndReap) {
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(5), "b");

  EXPECT_NE(t.find(1, at(9)), nullptr);
  EXPECT_EQ(t.find(1, at(10)), nullptr) << "TTL deadline is inclusive";
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);

  // Entry 2 expires at 15ms; a full reap at 20ms clears it.
  EXPECT_EQ(t.reap(at(20)), 1u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 2u);
}

TEST(BoundedTable, IdleTimeoutRunsFromLastTouch) {
  Table t({.capacity = 8, .idle_timeout = milliseconds(10)});
  t.try_emplace(1, at(0), "a");
  EXPECT_NE(t.find(1, at(8)), nullptr);   // touch resets the idle clock
  EXPECT_NE(t.find(1, at(17)), nullptr);  // 9ms idle: still alive
  EXPECT_EQ(t.find(1, at(27)), nullptr);  // 10ms idle: expired
  EXPECT_EQ(t.stats().expired_idle.value(), 1u);
}

TEST(BoundedTable, PerEntryExpiryOverride) {
  Table t({.capacity = 8});  // no table-wide TTL
  t.try_emplace(1, at(0), "a");
  EXPECT_TRUE(t.set_expiry(1, at(50)));
  EXPECT_FALSE(t.set_expiry(9, at(50)));
  EXPECT_NE(t.find(1, at(49)), nullptr);
  EXPECT_EQ(t.find(1, at(50)), nullptr);
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);
}

TEST(BoundedTable, PeekDoesNotTouchLru) {
  Table t({.capacity = 2});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  EXPECT_NE(t.peek(1, at(2)), nullptr);  // no LRU refresh
  t.try_emplace(3, at(3), "c");
  EXPECT_EQ(t.peek(1, at(4)), nullptr) << "peek must not have protected 1";
  EXPECT_NE(t.peek(2, at(4)), nullptr);
}

TEST(BoundedTable, EvictionCallbackReportsReasonNotOnErase) {
  struct Evt {
    std::uint32_t key;
    std::string value;
    EvictReason reason;
  };
  std::vector<Evt> events;
  Table t({.capacity = 2, .ttl = milliseconds(10)});
  t.set_evict_callback([&](const std::uint32_t& k, std::string& v,
                           EvictReason r) { events.push_back({k, v, r}); });

  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");  // capacity-evicts 1
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, 1u);
  EXPECT_EQ(events[0].value, "a");
  EXPECT_EQ(events[0].reason, EvictReason::kCapacity);

  t.reap(at(20));  // TTL-evicts 2 and 3
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].reason, EvictReason::kTtl);
  EXPECT_EQ(events[2].reason, EvictReason::kTtl);

  t.try_emplace(4, at(21), "d");
  t.erase(4);  // voluntary: no callback
  t.try_emplace(5, at(22), "e");
  t.clear();   // voluntary: no callback
  EXPECT_EQ(events.size(), 3u);
}

TEST(BoundedTable, ValuePointersStableAcrossChurn) {
  Table t({.capacity = 64});
  auto* first = t.try_emplace(0, at(0), "zero").value;
  std::string* pinned = first;
  for (std::uint32_t k = 1; k < 64; ++k) t.try_emplace(k, at(k), "v");
  for (std::uint32_t k = 1; k < 64; k += 2) t.erase(k);
  for (std::uint32_t k = 100; k < 130; ++k) t.try_emplace(k, at(k), "w");
  EXPECT_EQ(pinned, t.find(0, at(200))) << "slot addresses must be stable";
  EXPECT_EQ(*pinned, "zero");
}

TEST(BoundedTable, IndexIntegrityUnderHeavyChurn) {
  // Dense small keys + a power-of-two-mask index is the worst case for
  // probe clustering and backward-shift deletion; mirror against a
  // std::unordered_map oracle.
  BoundedTable<std::uint16_t, std::uint32_t> t({.capacity = 512});
  std::unordered_map<std::uint16_t, std::uint32_t> oracle;
  std::uint64_t rng = 0x123456789abcdefULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<std::uint16_t>(next() % 700);
    if (next() % 3 == 0) {
      EXPECT_EQ(t.erase(key), oracle.erase(key) > 0);
    } else if (oracle.size() < 512 || oracle.count(key) != 0) {
      auto r = t.try_emplace(key, at(i), static_cast<std::uint32_t>(i));
      auto [it, inserted] = oracle.try_emplace(key,
                                               static_cast<std::uint32_t>(i));
      ASSERT_NE(r.value, nullptr);
      EXPECT_EQ(r.inserted, inserted);
      EXPECT_EQ(*r.value, it->second);
    }
    ASSERT_EQ(t.size(), oracle.size());
  }
  for (const auto& [k, v] : oracle) {
    auto* found = t.find(k, at(99999));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(BoundedTable, IncrementalReapCoversTableAcrossCalls) {
  Table t({.capacity = 128, .ttl = milliseconds(1)});
  for (std::uint32_t k = 0; k < 100; ++k) t.try_emplace(k, at(0), "x");
  std::size_t total = 0;
  for (int i = 0; i < 10; ++i) total += t.reap(at(100), 10);
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE(t.empty());
}

TEST(BoundedTable, EraseIfAndForEach) {
  Table t({.capacity = 16});
  for (std::uint32_t k = 0; k < 10; ++k) {
    t.try_emplace(k, at(0), k % 2 ? "odd" : "even");
  }
  EXPECT_EQ(t.erase_if([](const std::uint32_t&, const std::string& v) {
              return v == "odd";
            }),
            5u);
  std::unordered_set<std::uint32_t> seen;
  t.for_each([&](const std::uint32_t& k, std::string& v) {
    EXPECT_EQ(v, "even");
    seen.insert(k);
  });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(BoundedTable, MetricsBindExportsOccupancyAndEvictions) {
  obs::MetricsRegistry registry;
  Table t({.capacity = 2});
  t.bind_metrics(registry, "test.table");
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");
  const auto* size = registry.find_gauge("test.table.size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->value(), 2);
  EXPECT_EQ(size->max(), 2);
  const auto* evicted = registry.find_counter("test.table.evicted_capacity");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->value(), 1u);
  t.erase(2);
  EXPECT_EQ(size->value(), 1);
}

TEST(BoundedTable, ContainsSeesExpiredOccupancyPeekDoesNot) {
  Table t({.capacity = 4, .ttl = milliseconds(5)});
  t.try_emplace(1, at(0), "a");
  EXPECT_TRUE(t.contains(1));
  EXPECT_EQ(t.peek(1, at(10)), nullptr);
  EXPECT_TRUE(t.contains(1)) << "contains() reports slot occupancy";
  t.reap(at(10));
  EXPECT_FALSE(t.contains(1));
}

TEST(BoundedTable, ExpiredEntryIsReplacedNotReturned) {
  Table t({.capacity = 4, .ttl = milliseconds(5)});
  t.try_emplace(1, at(0), "stale");
  auto r = t.try_emplace(1, at(10), "fresh");
  ASSERT_NE(r.value, nullptr);
  EXPECT_TRUE(r.inserted) << "expired entry must be evicted, then re-created";
  EXPECT_EQ(*r.value, "fresh");
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BoundedTable, TtlBoundaryExactDeadlineConsistentAcrossPaths) {
  // An entry whose deadline equals `now` is expired on every path at
  // once — find(), peek(), reap() and the gauges must agree, or the same
  // instant yields a hit on one path and an expiry on another.
  Table t({.capacity = 4, .ttl = milliseconds(100)});
  t.try_emplace(1, at(0), "a");
  EXPECT_NE(t.peek(1, at(99)), nullptr);
  EXPECT_EQ(t.peek(1, at(100)), nullptr) << "now == expires_at is expired";
  EXPECT_EQ(t.find(1, at(100)), nullptr);
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);

  t.try_emplace(2, at(0), "b");
  EXPECT_EQ(t.reap(at(100)), 1u) << "reap uses the same boundary as find";
  EXPECT_EQ(t.stats().expired_ttl.value(), 2u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(BoundedTable, FullTableOfExpiredEntriesChargesExpiryNotCapacity) {
  // Displacing an already-dead LRU tail at capacity is an expiry that a
  // sweep would have found — charging it to evicted_capacity makes a
  // table full of corpses read as live-entry thrashing.
  Table t({.capacity = 3, .ttl = milliseconds(10)});
  for (std::uint32_t k = 0; k < 3; ++k) t.try_emplace(k, at(0), "old");
  for (std::uint32_t k = 10; k < 13; ++k) {
    auto r = t.try_emplace(k, at(20), "live");
    EXPECT_TRUE(r.inserted);
  }
  EXPECT_EQ(t.stats().evicted_capacity.value(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 3u);
  // A genuinely live tail displaced at capacity still counts as such.
  EXPECT_TRUE(t.try_emplace(20, at(21), "new").inserted);
  EXPECT_EQ(t.stats().evicted_capacity.value(), 1u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 3u);
}

TEST(BoundedTable, ReapSurvivesCallbackErasingSiblingEntries) {
  // The eviction callback may erase *other* entries of the evicting
  // table (the guard's NAT-evict -> TCP-close -> NAT-erase_if chain);
  // the reap cursor must neither crash nor skip live slots over it.
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  for (std::uint32_t k = 1; k <= 8; ++k) t.try_emplace(k, at(0), "v");
  t.set_evict_callback(
      [&t](const std::uint32_t& k, std::string&, EvictReason) {
        if (k == 1) t.erase(2);
      });
  EXPECT_EQ(t.reap(at(20)), 7u) << "key 2 left voluntarily, not reaped";
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 7u);
}

TEST(BoundedTable, ReapCoversEntriesInsertedByEvictionCallback) {
  // Insertions from the callback can grow the slot array mid-sweep; the
  // re-read bound must cover them instead of wrapping early (and fresh
  // entries must of course survive the sweep that created them).
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  for (std::uint32_t k = 1; k <= 4; ++k) t.try_emplace(k, at(0), "old");
  bool seeded = false;
  t.set_evict_callback([&](const std::uint32_t&, std::string&, EvictReason) {
    if (!seeded) {
      seeded = true;
      t.try_emplace(100, at(20), "fresh");
      t.try_emplace(101, at(20), "fresh");
    }
  });
  EXPECT_EQ(t.reap(at(20)), 4u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_NE(t.peek(100, at(21)), nullptr);
  EXPECT_NE(t.peek(101, at(21)), nullptr);
}

TEST(BoundedTable, IndexStartsSmallAndStopsAtTheCapBucketCount) {
  BoundedTable<std::uint32_t, std::uint32_t> t({.capacity = 1000});
  EXPECT_EQ(t.bucket_count(), 16u);
  for (std::uint32_t k = 0; k < 8; ++k) t.try_emplace(k, at(0), k);
  EXPECT_EQ(t.bucket_count(), 16u) << "load 1/2 is still allowed";
  t.try_emplace(8, at(0), 8u);
  EXPECT_EQ(t.bucket_count(), 32u);
  for (std::uint32_t k = 9; k < 5000; ++k) t.try_emplace(k, at(0), k);
  EXPECT_EQ(t.bucket_count(), 2048u) << "pow2 >= 2x capacity, never more";
  t.clear();
  EXPECT_EQ(t.bucket_count(), 16u);

  BoundedTable<std::uint32_t, std::uint32_t> tiny({.capacity = 1});
  EXPECT_EQ(tiny.bucket_count(), 8u);
}

// --- Differential test against a naive reference ---------------------------
//
// The reference keeps entries in a std::map and LRU order in a std::list.
// It mirrors slot positions (a vector plus a LIFO free list) only because
// reap() walks slots with a cursor, so the order of its callbacks is part
// of the contract.

using Event = std::tuple<std::uint32_t, std::uint64_t, EvictReason>;

class ReferenceTable {
 public:
  using Config = BoundedTable<std::uint32_t, std::uint64_t>::Config;
  explicit ReferenceTable(Config c) : config_(c) {
    if (config_.capacity == 0) config_.capacity = 1;
  }

  std::vector<Event> events;

  std::optional<std::uint64_t> find(std::uint32_t key, SimTime now) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    if (expired(it->second, now)) {
      remove(key, expire_reason(it->second, now));
      return std::nullopt;
    }
    touch(key, now);
    return map_.at(key).value;
  }

  [[nodiscard]] std::optional<std::uint64_t> peek(std::uint32_t key,
                                                  SimTime now) const {
    auto it = map_.find(key);
    if (it == map_.end() || expired(it->second, now)) return std::nullopt;
    return it->second.value;
  }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    return map_.count(key) != 0;
  }

  /// (value or nullopt when refused, inserted)
  std::pair<std::optional<std::uint64_t>, bool> try_emplace(
      std::uint32_t key, SimTime now, std::uint64_t value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (!expired(it->second, now)) {
        touch(key, now);
        return {it->second.value, false};
      }
      remove(key, expire_reason(it->second, now));
    }
    if (map_.size() >= config_.capacity) {
      if (!config_.evict_lru_when_full || lru_.empty()) {
        return {std::nullopt, false};
      }
      const std::uint32_t tail = lru_.back();
      const Entry& e = map_.at(tail);
      remove(tail, expired(e, now) ? expire_reason(e, now)
                                   : EvictReason::kCapacity);
    }
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = slots_.size();
      slots_.emplace_back();
    }
    slots_[slot] = key;
    map_[key] = Entry{value, now,
                      config_.ttl.ns > 0 ? std::optional(now + config_.ttl)
                                         : std::nullopt,
                      slot};
    lru_.push_front(key);
    return {value, true};
  }

  bool set_expiry(std::uint32_t key, SimTime at) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    it->second.expires_at = at;
    return true;
  }

  bool erase(std::uint32_t key) {
    if (map_.count(key) == 0) return false;
    remove(key, std::nullopt);
    return true;
  }

  bool erase_if_value_odd(std::uint32_t key) {
    auto it = map_.find(key);
    if (it == map_.end() || it->second.value % 2 == 0) return false;
    remove(key, std::nullopt);
    return true;
  }

  std::size_t reap(SimTime now, std::size_t max_scan) {
    std::size_t reaped = 0;
    for (std::size_t i = 0; i < max_scan; ++i) {
      const std::size_t n = slots_.size();
      if (n == 0 || i >= n) break;
      if (cursor_ >= n) cursor_ = 0;
      if (slots_[cursor_]) {
        const std::uint32_t key = *slots_[cursor_];
        const Entry& e = map_.at(key);
        if (expired(e, now)) {
          remove(key, expire_reason(e, now));
          ++reaped;
        }
      }
      ++cursor_;
    }
    return reaped;
  }

  void clear() {
    map_.clear();
    lru_.clear();
    slots_.clear();
    free_.clear();
    cursor_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::optional<std::uint32_t> lru_key() const {
    if (lru_.empty()) return std::nullopt;
    return lru_.back();
  }

 private:
  struct Entry {
    std::uint64_t value;
    SimTime last_use;
    std::optional<SimTime> expires_at;
    std::size_t slot;
  };

  [[nodiscard]] bool expired(const Entry& e, SimTime now) const {
    if (e.expires_at && now >= *e.expires_at) return true;
    return config_.idle_timeout.ns > 0 &&
           now - e.last_use >= config_.idle_timeout;
  }
  [[nodiscard]] static EvictReason expire_reason(const Entry& e,
                                                 SimTime now) {
    return e.expires_at && now >= *e.expires_at ? EvictReason::kTtl
                                                : EvictReason::kIdle;
  }

  void touch(std::uint32_t key, SimTime now) {
    map_.at(key).last_use = now;
    lru_.remove(key);
    lru_.push_front(key);
  }

  void remove(std::uint32_t key, std::optional<EvictReason> reason) {
    const Entry e = map_.at(key);
    map_.erase(key);
    lru_.remove(key);
    slots_[e.slot].reset();
    free_.push_back(e.slot);
    if (reason) events.emplace_back(key, e.value, *reason);
  }

  Config config_;
  std::map<std::uint32_t, Entry> map_;
  std::list<std::uint32_t> lru_;  // front = most recently used
  std::vector<std::optional<std::uint32_t>> slots_;
  std::vector<std::size_t> free_;
  std::size_t cursor_ = 0;
};

// Sixteen keys share each hash value, so probe runs are long and
// backward-shift deletion moves entries across every index doubling.
struct ClusteredHash {
  std::size_t operator()(std::uint32_t k) const { return k >> 4; }
};

template <typename Hash>
void run_differential(ReferenceTable::Config config, std::uint64_t seed) {
  BoundedTable<std::uint32_t, std::uint64_t, Hash> t(
      {.capacity = config.capacity,
       .ttl = config.ttl,
       .idle_timeout = config.idle_timeout,
       .evict_lru_when_full = config.evict_lru_when_full});
  ReferenceTable ref(config);
  std::vector<Event> events;
  t.set_evict_callback(
      [&events](const std::uint32_t& k, std::uint64_t& v, EvictReason r) {
        events.emplace_back(k, v, r);
      });
  std::uint64_t rng = seed;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto key_space = static_cast<std::uint32_t>(config.capacity * 3);
  std::size_t max_buckets = 8;
  while (max_buckets < config.capacity * 2) max_buckets <<= 1;
  std::size_t doublings = 0;
  std::size_t callbacks = 0;
  std::size_t buckets = t.bucket_count();
  std::int64_t now_us = 0;
  for (std::uint64_t step = 0; step < 30000; ++step) {
    // Fill fast at first (so the index grows), then churn at capacity.
    now_us += static_cast<std::int64_t>(next() % (step < 2000 ? 20 : 400));
    const SimTime now = SimTime{} + microseconds(now_us);
    const auto key = static_cast<std::uint32_t>(next() % key_space);
    const std::uint64_t op = next() % 100;
    SCOPED_TRACE("step " + std::to_string(step));
    if (op < 45) {
      auto r = t.try_emplace(key, now, step);
      auto want = ref.try_emplace(key, now, step);
      ASSERT_EQ(r.value != nullptr, want.first.has_value());
      ASSERT_EQ(r.inserted, want.second);
      if (r.value != nullptr) {
        ASSERT_EQ(*r.value, *want.first);
      }
    } else if (op < 70) {
      const std::uint64_t* got = t.find(key, now);
      auto want = ref.find(key, now);
      ASSERT_EQ(got != nullptr, want.has_value());
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
    } else if (op < 75) {
      const std::uint64_t* got = t.peek(key, now);
      auto want = ref.peek(key, now);
      ASSERT_EQ(got != nullptr, want.has_value());
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
      ASSERT_EQ(t.contains(key), ref.contains(key));
    } else if (op < 82) {
      ASSERT_EQ(t.erase(key), ref.erase(key));
    } else if (op < 88) {
      auto odd = [](const std::uint64_t& v) { return v % 2 == 1; };
      ASSERT_EQ(t.erase(key, odd), ref.erase_if_value_odd(key));
    } else if (op < 91) {
      const auto ahead_us = static_cast<std::int64_t>(next() % 20000);
      const SimTime at = now + microseconds(ahead_us);
      ASSERT_EQ(t.set_expiry(key, at), ref.set_expiry(key, at));
    } else if (op < 99) {
      const std::size_t budget = next() % 2 ? 4 : 64;
      ASSERT_EQ(t.reap(now, budget), ref.reap(now, budget));
    } else if (next() % 20 == 0) {
      t.clear();
      ref.clear();
      ASSERT_EQ(t.bucket_count(), std::min<std::size_t>(16, max_buckets));
    }
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(events, ref.events);
    callbacks += events.size();
    events.clear();
    ref.events.clear();
    if (config.evict_lru_when_full) {
      const auto want = ref.lru_key();
      ASSERT_EQ(t.lru_key() != nullptr, want.has_value());
      if (want) {
        ASSERT_EQ(*t.lru_key(), *want);
      }
    } else {
      ASSERT_EQ(t.lru_key(), nullptr) << "refusing tables keep no LRU list";
    }
    ASSERT_LE(t.bucket_count(), max_buckets);
    ASSERT_LE(t.size() * 2, t.bucket_count());
    if (t.bucket_count() > buckets) ++doublings;
    buckets = t.bucket_count();
  }
  EXPECT_GE(doublings, 4u) << "the index must have grown through the run";
  EXPECT_GT(callbacks, 0u);
}

ReferenceTable::Config make_config(std::size_t capacity, std::int64_t ttl_ms,
                                   std::int64_t idle_ms, bool evict) {
  return {.capacity = capacity,
          .ttl = milliseconds(ttl_ms),
          .idle_timeout = milliseconds(idle_ms),
          .evict_lru_when_full = evict};
}

void run_both_hashes(const char* name, ReferenceTable::Config c) {
  SCOPED_TRACE(name);
  run_differential<std::hash<std::uint32_t>>(c, 0x9e3779b97f4a7c15ULL);
  run_differential<ClusteredHash>(c, 0xdeadbeefcafef00dULL);
}

TEST(BoundedTable, MatchesNaiveReferenceThroughIndexGrowth) {
  // make_config(capacity, ttl ms, idle ms, evict at the cap); 0 = none.
  run_both_hashes("lru", make_config(300, 0, 0, true));
  run_both_hashes("lru_ttl", make_config(300, 40, 0, true));
  run_both_hashes("lru_idle", make_config(257, 0, 15, true));
  run_both_hashes("refuse_idle", make_config(300, 0, 15, false));
  run_both_hashes("refuse_ttl_idle", make_config(500, 60, 20, false));
}

}  // namespace
}  // namespace dnsguard::common
