#include "replay.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "alloc_hook.h"
#include "common/pool.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace hostbench {

using namespace dnsguard;

namespace {

/// Stand-in for the ANS or the client side: consumes whatever the guard
/// emits, optionally logging it.
class Sink final : public sim::Node {
 public:
  Sink(sim::Simulator& sim, std::string name, bool to_ans, OutputLog* log)
      : sim::Node(sim, std::move(name), std::size_t{1} << 20),
        to_ans_(to_ans),
        log_(log) {}

 protected:
  SimDuration process(const net::Packet& p) override {
    if (log_ != nullptr) {
      OutputRecord r;
      r.to_ans = to_ans_;
      r.udp = p.is_udp();
      r.has_payload = !p.payload.empty();
      r.src_ip = p.src_ip.value();
      r.dst_ip = p.dst_ip.value();
      r.src_port = p.src_port();
      r.dst_port = p.dst_port();
      if (r.udp && p.payload.size() >= 2) {
        r.dns_id = static_cast<std::uint16_t>((p.payload[0] << 8) |
                                              p.payload[1]);
      }
      log_->outputs.push_back(r);
      log_->digest = digest_packet(log_->digest ^ (to_ans_ ? 1 : 2), now(), p);
    }
    return SimDuration{};
  }

 private:
  bool to_ans_;
  OutputLog* log_;
};

/// A pooled copy of a recorded packet: the guard consumes its input and
/// returns the payload buffer to the same pool, so steady-state injection
/// allocates nothing.
net::Packet copy_packet(const net::Packet& p) {
  net::Packet out;
  out.src_ip = p.src_ip;
  out.dst_ip = p.dst_ip;
  out.ttl = p.ttl;
  out.transport = p.transport;
  out.payload = BufferPool::local().acquire(p.payload.size());
  out.payload.assign(p.payload.begin(), p.payload.end());
  return out;
}

/// The single self-rescheduling injector: at each distinct arrival time
/// it delivers every packet recorded for that instant, in recorded order,
/// then schedules itself for the next one. It also closes timing chunks.
class Injector {
 public:
  Injector(sim::Simulator& sim, sim::Node& target,
           const std::vector<Arrival>& arrivals, const ReplayOptions& options,
           ReplayResult& result)
      : sim_(sim),
        target_(target),
        arrivals_(arrivals),
        spans_(options.spans),
        parent_span_(options.parent_span),
        result_(result) {
    result_.chunk_ns_per_pkt.reserve(arrivals_.size() / kChunkPackets + 1);
    if (spans_ != nullptr) spans_->reserve(arrivals_.size() / kChunkPackets + 2);
  }

  /// Starts the first chunk's clock and schedules the first delivery.
  void start() {
    chunk_t0_ = cpu_ns();
    if (spans_ != nullptr) span_ = spans_->open("replay.chunk", parent_span_);
    if (!arrivals_.empty()) {
      sim_.schedule_at(arrivals_[0].at, [this] { step(); });
    }
  }

  /// Removes an untimed pause from the open chunk.
  void exclude(std::int64_t ns) { chunk_t0_ += ns; }

  /// Closes the trailing partial chunk's span (its time is not a sample).
  void finish() {
    if (spans_ != nullptr && span_ != 0) spans_->close(span_);
  }

 private:
  void step() {
    const SimTime t = arrivals_[next_].at;
    do {
      target_.deliver(copy_packet(arrivals_[next_].packet));
      ++next_;
      if (++in_chunk_ == kChunkPackets) close_chunk();
    } while (next_ < arrivals_.size() && arrivals_[next_].at == t);
    if (next_ < arrivals_.size()) {
      sim_.schedule_at(arrivals_[next_].at, [this] { step(); });
    }
  }

  void close_chunk() {
    const std::int64_t now = cpu_ns();
    result_.chunk_ns_per_pkt.push_back(static_cast<double>(now - chunk_t0_) /
                                       static_cast<double>(kChunkPackets));
    chunk_t0_ = now;
    in_chunk_ = 0;
    if (spans_ != nullptr) {
      spans_->close(span_);
      span_ = spans_->open("replay.chunk", parent_span_);
    }
  }

  sim::Simulator& sim_;
  sim::Node& target_;
  const std::vector<Arrival>& arrivals_;
  SpanLog* spans_;
  std::uint32_t parent_span_;
  ReplayResult& result_;
  std::size_t next_ = 0;
  std::size_t in_chunk_ = 0;
  std::int64_t chunk_t0_ = 0;
  std::uint32_t span_ = 0;
};

}  // namespace

ReplayResult replay(const Corpus& corpus, const ReplayOptions& options) {
  ReplayResult r;
  r.packets = corpus.arrivals.size();

  sim::Simulator sim;
  Sink ans_sink(sim, "ans-sink", /*to_ans=*/true, options.outputs);
  Sink client_sink(sim, "client-sink", /*to_ans=*/false, options.outputs);
  sim.add_route(net::Ipv4Address(0, 0, 0, 0), 0, &client_sink);

  const std::int64_t heap_base = alloc::snapshot().live_bytes;
  alloc::reset_peak();
  std::unique_ptr<guard::RemoteGuardNode> guard;
  std::unique_ptr<Sink> guard_sink;
  sim::Node* target = nullptr;
  if (options.without_guard) {
    guard_sink = std::make_unique<Sink>(sim, "guard-sink", false, nullptr);
    target = guard_sink.get();
  } else {
    guard = std::make_unique<guard::RemoteGuardNode>(
        sim, "guard", corpus.guard_config, &ans_sink);
    target = guard.get();
  }

  Injector injector(sim, *target, corpus.arrivals, options, r);
  const std::uint64_t allocs0 = alloc::snapshot().calls;
  const std::int64_t t0 = cpu_ns();
  injector.start();
  sim.run_until(corpus.end);

  // Untimed: read the counters at the cut for the fidelity check.
  const std::int64_t pause0 = cpu_ns();
  const std::uint64_t pause_allocs0 = alloc::snapshot().calls;
  r.at_cut = guard_metrics(sim.metrics());
  const std::uint64_t pause_allocs = alloc::snapshot().calls - pause_allocs0;
  const std::int64_t pause = cpu_ns() - pause0;
  injector.exclude(pause);

  sim.run_until(corpus.end + kDrainTime);
  const std::int64_t t1 = cpu_ns();
  r.allocs = alloc::snapshot().calls - allocs0 - pause_allocs;
  injector.finish();
  r.cpu_s = static_cast<double>(t1 - t0 - pause) * 1e-9;
  r.heap_peak_mb =
      static_cast<double>(alloc::snapshot().peak_bytes - heap_base) /
      (1024.0 * 1024.0);
  r.drained = guard_metrics(sim.metrics());
  if (const obs::Counter* ev = sim.metrics().find_counter(
          "sim.events_dispatched")) {
    r.events = ev->value();
  }
  r.rx_queue_drops = target->stats().dropped_queue_full.value();
  return r;
}

std::vector<Mismatch> compare_metrics(const GuardMetrics& live,
                                      const GuardMetrics& replayed) {
  std::unordered_map<std::string, double> other(replayed.begin(),
                                                replayed.end());
  std::vector<Mismatch> out;
  for (const auto& [name, value] : live) {
    auto it = other.find(name);
    if (it == other.end()) {
      out.push_back({name, value, -1.0});
      continue;
    }
    if (it->second != value) out.push_back({name, value, it->second});
    other.erase(it);
  }
  for (const auto& [name, value] : other) out.push_back({name, -1.0, value});
  return out;
}

double metric(const GuardMetrics& m, const std::string& name) {
  for (const auto& [n, v] : m) {
    if (n == name) return v;
  }
  return 0.0;
}

double metric_sum(const GuardMetrics& m, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [n, v] : m) {
    if (std::string_view(n).ends_with(suffix)) total += v;
  }
  return total;
}

namespace {

std::uint64_t flow_key(std::uint32_t ip, std::uint16_t port,
                       std::uint16_t id) {
  return (static_cast<std::uint64_t>(ip) << 32) |
         (static_cast<std::uint64_t>(port) << 16) | id;
}

std::uint16_t dns_id(const net::Packet& p) {
  if (p.payload.size() < 2) return 0;
  return static_cast<std::uint16_t>((p.payload[0] << 8) | p.payload[1]);
}

}  // namespace

Outcome classify(const std::vector<Arrival>& inputs,
                 const std::vector<OutputRecord>& outputs,
                 net::Ipv4Address guard_address, net::Ipv4Address ans_address,
                 std::uint64_t queue_drops) {
  Outcome o;
  o.packets = inputs.size();
  o.queue_drops = queue_drops;

  std::unordered_map<std::uint64_t, std::uint64_t> served;   // any output
  std::unordered_map<std::uint64_t, std::uint64_t> at_ans;   // ANS outputs
  std::uint64_t nat_forwards = 0;     // TCP-proxied queries sent to the ANS
  std::uint64_t tcp_data_out = 0;     // TCP data segments toward clients
  for (const OutputRecord& r : outputs) {
    if (!r.udp) {
      if (!r.to_ans && r.has_payload) ++tcp_data_out;
      continue;
    }
    if (r.to_ans) {
      if (r.src_ip == guard_address.value()) {
        ++nat_forwards;
        continue;
      }
      const std::uint64_t k = flow_key(r.src_ip, r.src_port, r.dns_id);
      ++served[k];
      ++at_ans[k];
    } else {
      ++served[flow_key(r.dst_ip, r.dst_port, r.dns_id)];
    }
  }

  std::unordered_map<std::uint64_t, std::uint64_t> legit_in;
  std::unordered_map<std::uint64_t, std::uint64_t> spoof_in;
  std::uint64_t nat_responses = 0;
  std::uint64_t tcp_queries = 0;
  for (const Arrival& a : inputs) {
    const net::Packet& p = a.packet;
    if (a.origin == Origin::kSpoofer) {
      ++o.spoofed;
      if (p.is_udp()) {
        ++spoof_in[flow_key(p.src_ip.value(), p.src_port(), dns_id(p))];
      }
      continue;
    }
    ++o.legit;
    if (p.is_tcp()) {
      if (!p.payload.empty()) ++tcp_queries;
      continue;
    }
    if (p.src_ip == ans_address) {
      if (p.dst_ip == guard_address) {
        ++nat_responses;
      } else {
        ++legit_in[flow_key(p.dst_ip.value(), p.dst_port(), dns_id(p))];
      }
      continue;
    }
    ++legit_in[flow_key(p.src_ip.value(), p.src_port(), dns_id(p))];
  }

  for (const auto& [k, n] : legit_in) {
    auto it = served.find(k);
    const std::uint64_t got = it == served.end() ? 0 : it->second;
    if (got < n) o.legit_unserved += n - got;
  }
  if (tcp_data_out < nat_responses) {
    o.legit_unserved += nat_responses - tcp_data_out;
  }
  if (nat_forwards < tcp_queries) o.legit_unserved += tcp_queries - nat_forwards;
  for (const auto& [k, n] : spoof_in) {
    auto it = at_ans.find(k);
    if (it != at_ans.end()) o.spoof_to_ans += std::min(n, it->second);
  }
  return o;
}

}  // namespace hostbench
