// Bounded per-node trace ring: the last N packet-lifecycle events
// (rx -> classify -> rewrite/drop -> tx) of a simulation node, recorded
// allocation-free into a fixed ring and dumped when a test fails or a
// bench wants to explain an anomaly.
//
// One entry is 32 bytes of plain data; recording is a handful of stores
// plus a masked index increment, cheap enough to leave on in the packet
// hot path of every node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/drop_reason.h"

namespace dnsguard::obs {

enum class TraceEvent : std::uint8_t {
  kRx = 0,     // packet accepted into the node's receive queue
  kClassify,   // request classified (scheme / cookie decision made)
  kRewrite,    // message rewritten / synthesized (cookie reply, restore)
  kDrop,       // packet discarded; `reason` says why
  kTx,         // packet emitted toward the network
  kQueueDrop,  // arrival discarded before rx (receive queue full)
};

[[nodiscard]] std::string_view trace_event_name(TraceEvent e);

struct TraceEntry {
  SimTime at;                 // simulated time of the event
  std::uint32_t src = 0;      // IPv4 source of the packet, host order
  std::uint32_t dst = 0;      // IPv4 destination, host order
  std::uint16_t info = 0;     // protocol detail (DNS id, port, ...)
  TraceEvent event = TraceEvent::kRx;
  DropReason reason = DropReason::kNone;

  [[nodiscard]] std::string to_string() const;
};

class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (masked wraparound).
  explicit TraceRing(std::size_t capacity = 128);

  void record(SimTime at, TraceEvent event, std::uint32_t src,
              std::uint32_t dst, std::uint16_t info = 0,
              DropReason reason = DropReason::kNone) noexcept {
    TraceEntry& e = ring_[head_ & mask_];
    e.at = at;
    e.src = src;
    e.dst = dst;
    e.info = info;
    e.event = event;
    e.reason = reason;
    ++head_;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Number of retained entries (<= capacity once wrapped).
  [[nodiscard]] std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  /// Total events ever recorded (monotonic; exceeds size() after wrap).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }

  /// Retained entries, oldest first.
  [[nodiscard]] std::vector<TraceEntry> entries() const;

  /// Multi-line human dump ("  +1.234ms rx 10.0.1.1 -> 10.1.1.254 id=7"),
  /// oldest first; `label` heads the block. Intended for test-failure
  /// diagnostics: EXPECT_...(...) << ring.dump("guard");
  [[nodiscard]] std::string dump(std::string_view label = "trace") const;

  void clear() { head_ = 0; }

 private:
  std::vector<TraceEntry> ring_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
};

}  // namespace dnsguard::obs
