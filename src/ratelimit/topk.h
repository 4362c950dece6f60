// Space-Saving top-k heavy-hitter tracker (Metwally et al.).
//
// Rate-Limiter1 "tracks the top requesters and limits the rate of cookie
// response to them" (§III.F). Tracking every source address seen during a
// spoofed flood would let the attacker exhaust guard memory, so the guard
// keeps only a bounded table of candidate heavy hitters with the classic
// Space-Saving guarantee: any key with true count > N/capacity is present,
// and each reported count overestimates by at most the minimum counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bounded_table.h"

namespace dnsguard::ratelimit {

/// Entries sit in a flat vector; a BoundedTable maps key -> entry index
/// and a binary min-heap over (count, entry index) names the eviction
/// victim, so a record costs O(log capacity) and never allocates once the
/// monitored set is full. The victim is the one a linear scan would pick:
/// the lowest-index entry among those with the minimum count.
template <typename Key, typename Hash = std::hash<Key>>
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity)
      : capacity_(capacity),
        index_({.capacity = capacity, .evict_lru_when_full = false}) {}

  /// Records one occurrence of `key`; returns its (over)estimated count.
  std::uint64_t record(const Key& key) {
    if (const std::uint32_t* i = index_.find(key, SimTime{})) {
      ++entries_[*i].count;
      sift_down(entries_[*i].heap_pos);
      return entries_[*i].count;
    }
    if (entries_.size() < capacity_) {
      const auto i = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{key, 1, 0, i});
      heap_.push_back(i);
      sift_up(i);
      index_.try_emplace(key, SimTime{}, i);
      return 1;
    }
    // Evict the minimum-count entry and inherit its count as error bound.
    const std::uint32_t victim = heap_[0];
    Entry& e = entries_[victim];
    index_.erase(e.key);
    e.key = key;
    e.error = e.count;
    ++e.count;
    sift_down(0);
    index_.try_emplace(key, SimTime{}, victim);
    return e.count;
  }

  /// Estimated count for `key` (0 if not tracked).
  [[nodiscard]] std::uint64_t estimate(const Key& key) const {
    const std::uint32_t* i = index_.peek(key, SimTime{});
    return i == nullptr ? 0 : entries_[*i].count;
  }

  /// Upper bound on the estimation error for `key` (0 if exact).
  [[nodiscard]] std::uint64_t error(const Key& key) const {
    const std::uint32_t* i = index_.peek(key, SimTime{});
    return i == nullptr ? 0 : entries_[*i].error;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return index_.contains(key);
  }

  struct Item {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
  };

  /// The tracked items, highest count first.
  [[nodiscard]] std::vector<Item> top() const {
    std::vector<Item> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      out.push_back(Item{e.key, e.count, e.error});
    }
    std::sort(out.begin(), out.end(),
              [](const Item& a, const Item& b) { return a.count > b.count; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear() {
    entries_.clear();
    heap_.clear();
    index_.clear();
  }

 private:
  struct Entry {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
    std::uint32_t heap_pos;
  };

  [[nodiscard]] bool less(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t ca = entries_[a].count;
    const std::uint64_t cb = entries_[b].count;
    return ca < cb || (ca == cb && a < b);
  }

  void place(std::size_t pos, std::uint32_t i) {
    heap_[pos] = i;
    entries_[i].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const std::uint32_t i = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!less(i, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, i);
  }

  // Counts only grow, so an entry only ever moves toward the leaves.
  void sift_down(std::size_t pos) {
    const std::uint32_t i = heap_[pos];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], i)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, i);
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> heap_;  // entry indices, min (count, index) first
  common::BoundedTable<Key, std::uint32_t, Hash> index_;
};

}  // namespace dnsguard::ratelimit
