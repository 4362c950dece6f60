#include "sim/node.h"

namespace dnsguard::sim {

void Node::trace(obs::TraceEvent event, const net::Packet& packet,
                 obs::DropReason reason) {
  std::uint16_t info = 0;
  if (packet.payload.size() >= 2) {
    info = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(packet.payload[0]) << 8) |
        packet.payload[1]);
  }
  trace_.record(now(), event, packet.src_ip.value(), packet.dst_ip.value(),
                info, reason);
}

void Node::enable_sharded_service(std::size_t lanes,
                                  std::size_t lane_capacity,
                                  std::size_t batch_max) {
  lanes_.clear();
  lanes_.resize(lanes == 0 ? 1 : lanes);
  lane_capacity_ = lane_capacity;
  batch_max_ = batch_max == 0 ? 1 : batch_max;
}

void Node::deliver(net::Packet packet) {
  std::size_t lane_idx = lanes_.size() == 1 ? 0 : shard_of(packet);
  if (lane_idx >= lanes_.size()) lane_idx = 0;
  ShardLane& lane = lanes_[lane_idx];
  if (lane.queue.size() >= lane_capacity_) {
    stats_.dropped_queue_full++;
    sim_.mutable_stats().packets_dropped_queue_full++;
    trace(obs::TraceEvent::kQueueDrop, packet, obs::DropReason::kQueueFull);
    return;
  }
  stats_.rx++;
  sim_.mutable_stats().packets_delivered++;
  trace(obs::TraceEvent::kRx, packet);
  // DNSGUARD_LINT_ALLOW(alloc): deque push moves the packet (payloads are
  // pooled); the lane is capped at lane_capacity_ so its chunk storage
  // reaches steady state after warmup
  lane.queue.push_back(std::move(packet));
  maybe_schedule_lane(lane_idx);
}

void Node::maybe_schedule_lane(std::size_t lane_idx) {
  ShardLane& lane = lanes_[lane_idx];
  if (lane.scheduled || lane.queue.empty()) return;
  lane.scheduled = true;
  SimTime start = std::max(now(), lane.busy_until);
  sim_.schedule_at(start, [this, lane_idx] { serve_lane(lane_idx); });
}

void Node::serve_lane(std::size_t lane_idx) {
  ShardLane& lane = lanes_[lane_idx];
  lane.scheduled = false;
  if (lane.queue.empty()) return;

  // Attribute this burst's spans to this lane's profiler cells; merged
  // again only at report time.
  obs::prof::LaneScope prof_lane(lane_idx);

  // A burst is served at one sim instant, but each packet's service cost
  // advances the lane clock and its emissions leave at its own completion
  // time. Packets are processed in place at the front of the queue: every
  // delivery is a scheduled event, so nothing can join the lane mid-burst.
  SimTime t = std::max(now(), lane.busy_until);
  for (std::size_t k = 0; k < batch_max_ && !lane.queue.empty(); ++k) {
    net::Packet& packet = lane.queue.front();
    in_process_ = true;
    SimDuration cost;
    {
      DNSGUARD_PROF_SCOPE(prof_stage_);
      cost = process(packet);
    }
    in_process_ = false;
    // The packet is consumed: recycle its payload buffer for the encode
    // paths (handlers that keep the packet copy it, payload included).
    packet.release_payload();
    lane.queue.pop_front();
    if (cost.ns < 0) cost.ns = 0;
    stats_.busy = stats_.busy + cost;
    t = t + cost;
    // Packets emitted during process() leave when its service time ends.
    if (!outbox_.empty()) flush_outbox_at(t);
  }
  lane.busy_until = t;

  maybe_schedule_lane(lane_idx);
}

void Node::flush_outbox_at(SimTime at) {
  auto sends = std::move(outbox_);
  outbox_.clear();
  // The next send() refills a vector a finished flush handed back, keeping
  // its capacity, instead of growing a fresh one.
  if (!spare_outboxes_.empty()) {
    outbox_ = std::move(spare_outboxes_.back());
    spare_outboxes_.pop_back();
  }
  sim_.schedule_at(at, [this, sends = std::move(sends)]() mutable {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kOutboxFlush);
    for (auto& s : sends) {
      stats_.tx++;
      trace(obs::TraceEvent::kTx, s.packet);
      if (s.direct_to != nullptr) {
        sim_.send_direct(this, s.direct_to, std::move(s.packet));
      } else {
        sim_.send_packet(this, std::move(s.packet));
      }
    }
    sends.clear();
    // DNSGUARD_LINT_ALLOW(alloc): the spare list grows only to the peak
    // number of in-flight flushes, then recycles in place
    spare_outboxes_.push_back(std::move(sends));
  });
}

void Node::send(net::Packet packet) {
  if (in_process_) {
    outbox_.push_back(PendingSend{nullptr, std::move(packet)});
  } else {
    // Sends from timer callbacks leave immediately (the timer already
    // accounted for any think-time).
    stats_.tx++;
    trace(obs::TraceEvent::kTx, packet);
    sim_.send_packet(this, std::move(packet));
  }
}

void Node::send_direct(Node* to, net::Packet packet) {
  if (in_process_) {
    outbox_.push_back(PendingSend{to, std::move(packet)});
  } else {
    stats_.tx++;
    trace(obs::TraceEvent::kTx, packet);
    sim_.send_direct(this, to, std::move(packet));
  }
}

}  // namespace dnsguard::sim
