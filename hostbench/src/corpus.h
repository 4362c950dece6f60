// Workload recording: run a live simulated testbed once and keep every
// packet the guard receives, stamped with its arrival sim-time.
//
// The three workloads (see BENCHMARK.json for why each was chosen):
//   ns_name_miss   one LRS, 256 outstanding NS-name miss dances, 1 shard
//   blended_flood  1M-client modified-DNS population + prefix-hopping
//                  random-TXT-cookie flood, 4 shards, RL tables 2^20
//   tcp_crowd      TC redirect + TCP proxy, 6000 concurrent requests
// Every generator (driver, population, attacker) and the guard key take a
// value derived from the run's seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "guard/remote_guard.h"
#include "net/packet.h"

namespace hostbench {

/// Who put a recorded packet on the wire.
enum class Origin : std::uint8_t {
  kClient,   // a legitimate requester (driver or population)
  kAns,      // the protected ANS answering through the guard
  kSpoofer,  // an attack generator (spoofed source)
};

struct Arrival {
  dnsguard::SimTime at;  // delivery time at the guard
  Origin origin = Origin::kClient;
  dnsguard::net::Packet packet;
};

/// Name -> value of every "guard.*" cell in a simulator's registry.
using GuardMetrics = std::vector<std::pair<std::string, double>>;

struct Corpus {
  std::string workload;
  std::uint64_t seed = 0;
  dnsguard::guard::RemoteGuardNode::Config guard_config;
  /// The live window's cut: arrivals are recorded up to and including it,
  /// and live_metrics are read at it.
  dnsguard::SimTime end;
  std::vector<Arrival> arrivals;  // ascending `at`, live delivery order
  GuardMetrics live_metrics;
  std::uint64_t digest = 0;         // every arrival, in order
  std::uint64_t prefix_digest = 0;  // arrivals up to kPrefixWindow
};

/// Window of the cheap different-seed digest check.
inline constexpr dnsguard::SimDuration kPrefixWindow =
    dnsguard::milliseconds(50);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Live window recorded for `workload` in a benchmark run.
[[nodiscard]] dnsguard::SimDuration default_window(
    const std::string& workload);

/// Runs the live testbed for `window` of sim time and records the guard's
/// arrivals. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Corpus record(const std::string& workload, std::uint64_t seed,
                            dnsguard::SimDuration window);

/// Folds one arrival into an order-sensitive 64-bit digest.
[[nodiscard]] std::uint64_t digest_packet(std::uint64_t h,
                                          dnsguard::SimTime at,
                                          const dnsguard::net::Packet& p);

/// Snapshot of the "guard.*" cells of `registry`.
[[nodiscard]] GuardMetrics guard_metrics(
    const dnsguard::obs::MetricsRegistry& registry);

}  // namespace hostbench
