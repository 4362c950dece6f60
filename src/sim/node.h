// Node: a simulated machine with one CPU and a bounded receive queue.
//
// The CPU cost model is the heart of the reproduction: every throughput
// and CPU-utilization curve in the paper's evaluation (Figs. 5-7) emerges
// from nodes whose packet handlers charge calibrated service times.
//
// Service discipline: packets wait in a FIFO receive lane; the CPU serves
// them in order; a handler returns the CPU cost it consumed, and any
// packets it emitted leave the node when that service time completes. When
// the lane is full, arrivals are dropped — which is what pushes a
// saturated BIND server's goodput off a cliff in Fig. 5.
//
// Every node runs the same lane service path. By default it has one lane
// of `rx_queue_capacity` packets, served one packet per service event.
// enable_sharded_service() models N independent cores instead: deliver()
// routes arrivals by the subclass's shard_of(), and each lane drains its
// queue in bursts of up to batch_max packets with its own busy clock.
// Determinism rules: the simulator is single-threaded, lane service
// events tie-break in schedule order (EventQueue FIFO at equal
// timestamps), a burst is processed at one sim instant, and every
// packet's emissions are released at that packet's own completion time on
// its lane, so N-lane runs are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "net/packet.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dnsguard::sim {

/// Per-node counters. `busy` accumulates CPU service time; utilization over
/// a measurement window is busy_delta / window.
struct NodeStats {
  obs::Counter rx;
  obs::Counter tx;
  obs::Counter dropped_queue_full;
  SimDuration busy{};
};

class Node {
 public:
  explicit Node(Simulator& sim, std::string name,
                std::size_t rx_queue_capacity = 4096)
      : sim_(sim), name_(std::move(name)) {
    enable_sharded_service(1, rx_queue_capacity, 1);
    sim_.add_node(this);
  }
  virtual ~Node() { sim_.remove_node(this); }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Stable registration id assigned by Simulator::add_node (monotonic,
  /// never reused). All simulator-side per-node config (gateways, latency
  /// pairs) keys on this instead of the node's address, so reruns are
  /// independent of heap layout.
  [[nodiscard]] std::uint64_t sim_id() const { return sim_id_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NodeStats{}; }

  /// CPU utilization between `reset_stats()` (or construction) and now,
  /// given the elapsed window length.
  [[nodiscard]] double utilization(SimDuration window) const {
    if (window.ns <= 0) return 0.0;
    return static_cast<double>(stats_.busy.ns) /
           static_cast<double>(window.ns);
  }

  /// Entry point used by the Simulator: enqueue an arriving packet.
  void deliver(net::Packet packet);

  /// The node's packet-lifecycle trace ring (rx -> classify -> rewrite /
  /// drop -> tx). Bounded, always on, dumpable on test failure:
  ///   EXPECT_EQ(...) << node.trace_ring().dump(node.name());
  [[nodiscard]] const obs::TraceRing& trace_ring() const { return trace_; }

 protected:
  /// Handles one packet. Implementations do their protocol work, emit
  /// packets via `send()` / `send_direct()`, and return the CPU time the
  /// work cost. Emitted packets leave the node when that time has elapsed.
  virtual SimDuration process(const net::Packet& packet) = 0;

  // --- shard-per-core service (opt-in) -------------------------------------

  /// Switches this node to N shard lanes, each a FIFO of `lane_capacity`
  /// packets drained in bursts of up to `batch_max` packets. Call once,
  /// from the subclass constructor, before any packet is delivered.
  void enable_sharded_service(std::size_t lanes, std::size_t lane_capacity,
                              std::size_t batch_max);

  /// Maps an arriving packet to a lane index in [0, lanes). Must be a
  /// pure function of the packet (determinism). Not called on a 1-lane
  /// node.
  [[nodiscard]] virtual std::size_t shard_of(const net::Packet&) const {
    return 0;
  }

  /// Emits a packet into the routed network (released at service end).
  void send(net::Packet packet);
  /// Emits a packet on a private wire to a specific peer.
  void send_direct(Node* to, net::Packet packet);

  /// Schedules a timer callback (timers model OS timers: no CPU charge).
  template <typename F>
  void schedule_in(SimDuration delay, F&& fn) {
    sim_.schedule_in(delay, std::forward<F>(fn));
  }

  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// Records a lifecycle event for `packet` in the trace ring. `info` is
  /// the DNS id when the payload carries one (first two payload bytes).
  void trace(obs::TraceEvent event, const net::Packet& packet,
             obs::DropReason reason = obs::DropReason::kNone);

  /// Tags this node's process() spans in the wall-clock profiler (e.g.
  /// kGuardService). Call from the subclass constructor; the default
  /// lumps the node under the generic node.service stage.
  void set_profile_stage(obs::prof::Stage stage) { prof_stage_ = stage; }

 private:
  friend class Simulator;  // assigns sim_id_ at registration

  struct PendingSend {
    Node* direct_to;  // nullptr => routed send
    net::Packet packet;
  };

  struct ShardLane {
    std::deque<net::Packet> queue;
    SimTime busy_until{};
    bool scheduled = false;
  };

  void maybe_schedule_lane(std::size_t lane);
  void serve_lane(std::size_t lane);
  void flush_outbox_at(SimTime at);

  Simulator& sim_;
  std::uint64_t sim_id_ = 0;
  std::string name_;
  std::vector<PendingSend> outbox_;
  bool in_process_ = false;
  std::vector<ShardLane> lanes_;
  std::size_t lane_capacity_ = 0;
  std::size_t batch_max_ = 1;
  obs::prof::Stage prof_stage_ = obs::prof::Stage::kNodeService;
  NodeStats stats_;
  obs::TraceRing trace_{128};
};

}  // namespace dnsguard::sim
