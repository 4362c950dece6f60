// Replay: feed a recorded corpus into a fresh RemoteGuardNode.
//
// The replay simulator holds the guard and two sink nodes standing in for
// the ANS and the clients. A single self-rescheduling injector event hands
// each recorded packet to the guard through the public Node::deliver at
// its recorded arrival sim-time, so the guard sees the same clock as in
// the live run and its SYN cookies, NAT ports, pending entries and
// limiter state evolve identically. After the corpus' cut the simulator
// runs on until the guard's queues drain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"
#include "spans.h"

namespace hostbench {

/// One packet the replayed guard emitted, as a sink saw it.
struct OutputRecord {
  bool to_ans = false;  // false: routed toward the clients
  bool udp = false;
  bool has_payload = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t dns_id = 0;  // first two payload bytes (UDP only)
};

/// Everything the sinks received, plus a digest of the exact bytes.
struct OutputLog {
  std::vector<OutputRecord> outputs;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

/// Consecutive injected packets per timing chunk: small enough that every
/// corpus yields well over 1000 chunks (a p99 with >= 10 chunks beyond
/// it), large enough that the ~0.3 us thread-CPU clock read per chunk is
/// negligible.
inline constexpr std::size_t kChunkPackets = 128;

struct ReplayOptions {
  /// Deliver into a sink instead of a guard (the simulator's own cost).
  bool without_guard = false;
  /// Verification pass: record every output.
  OutputLog* outputs = nullptr;
  /// Traced pass: one span per chunk under `parent_span`.
  SpanLog* spans = nullptr;
  std::uint32_t parent_span = 0;
};

struct ReplayResult {
  std::size_t packets = 0;
  double cpu_s = 0.0;  // thread CPU of the timed region
  /// Host ns per packet of each complete chunk, in corpus order.
  std::vector<double> chunk_ns_per_pkt;
  GuardMetrics at_cut;   // "guard.*" when the clock reached the cut
  GuardMetrics drained;  // "guard.*" once the queues drained
  std::uint64_t events = 0;        // sim.events_dispatched
  std::uint64_t allocs = 0;        // operator new calls in the timed region
  double heap_peak_mb = 0.0;       // above the level before the guard
  std::uint64_t rx_queue_drops = 0;
};

/// Sim time the replay keeps running after the cut to drain queues.
inline constexpr dnsguard::SimDuration kDrainTime = dnsguard::seconds(1);

[[nodiscard]] ReplayResult replay(const Corpus& corpus,
                                  const ReplayOptions& options = {});

struct Mismatch {
  std::string name;
  double live = 0.0;
  double replayed = 0.0;
};

/// Cells whose values differ, plus cells present on only one side.
[[nodiscard]] std::vector<Mismatch> compare_metrics(
    const GuardMetrics& live, const GuardMetrics& replayed);

/// Value of `name` in `m` (0 when absent).
[[nodiscard]] double metric(const GuardMetrics& m, const std::string& name);
/// Sum over cells whose name ends with `suffix` (e.g. ".rl1.allowed"
/// sums "guard.rl1.allowed" or every "guard.shard<k>.rl1.allowed").
[[nodiscard]] double metric_sum(const GuardMetrics& m,
                                const std::string& suffix);

/// Per-packet verdict audit of a verification replay.
struct Outcome {
  std::uint64_t packets = 0;
  std::uint64_t legit = 0;
  std::uint64_t spoofed = 0;
  std::uint64_t legit_unserved = 0;  // neither answered nor forwarded
  std::uint64_t spoof_to_ans = 0;    // spoofed request reached the ANS
  std::uint64_t queue_drops = 0;     // lost to a guard rx-queue drop
  [[nodiscard]] std::uint64_t failed() const {
    return legit_unserved + spoof_to_ans + queue_drops;
  }
};

/// Matches every input to the outputs that answer it.
///  - A legitimate UDP request from C:p with DNS id x is served when an
///    output to C:p with id x (an answer, referral or TC redirect) or a
///    forward to the ANS from C:p with id x exists.
///  - An ANS response to C:p with id x is served when it is relayed to C:p
///    with id x; a response to the guard's NAT address is served by a TCP
///    data segment toward a client.
///  - A legitimate TCP data segment (a framed query) is served by a NATed
///    query to the ANS; other TCP segments have no single reply.
///  - A spoofed request fails when the ANS receives its C:p/id.
/// Counts are matched per key, so retransmissions need one output each.
[[nodiscard]] Outcome classify(const std::vector<Arrival>& inputs,
                               const std::vector<OutputRecord>& outputs,
                               dnsguard::net::Ipv4Address guard_address,
                               dnsguard::net::Ipv4Address ans_address,
                               std::uint64_t queue_drops);

}  // namespace hostbench
