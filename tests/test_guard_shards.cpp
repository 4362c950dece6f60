// Shard-per-core guard: determinism (same seed + same shard count =>
// byte-identical run), counter equivalence across shard counts and lane
// burst sizes, and per-shard divided table caps under a million-source
// spoofed flood (DESIGN.md §13).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using workload::DriveMode;
using workload::LrsSimulatorNode;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);

struct Bed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<RemoteGuardNode> guard;
  std::vector<std::unique_ptr<LrsSimulatorNode>> drivers;
  std::vector<std::unique_ptr<attack::SpoofedFloodNode>> floods;

  void make_guard(
      Scheme scheme,
      const std::function<void(RemoteGuardNode::Config&)>& tweak = {}) {
    RemoteGuardNode::Config gc;
    gc.guard_address = Ipv4Address(10, 1, 1, 253);
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = Ipv4Address(10, 1, 1, 0);
    gc.scheme = scheme;
    // Generous limits: equivalence tests must not sit on a rate-limiter
    // edge, where a burst's classify-at-burst-start timestamps could
    // legitimately flip a marginal allow/deny.
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    if (tweak) tweak(gc);
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
  }

  LrsSimulatorNode* add_driver(DriveMode mode, int conc, Ipv4Address addr,
                               std::uint64_t seed = 7) {
    LrsSimulatorNode::Config dc;
    dc.address = addr;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = conc;
    dc.seed = seed;
    drivers.push_back(std::make_unique<LrsSimulatorNode>(
        sim, "driver-" + addr.to_string(), dc));
    sim.add_host_route(addr, drivers.back().get());
    return drivers.back().get();
  }

  void add_flood(double rate, std::uint64_t seed,
                 attack::SpoofedFloodNode::SpoofConfig spoof = {}) {
    floods.push_back(std::make_unique<attack::SpoofedFloodNode>(
        sim, "flood",
        attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                      .target = {kAnsIp, net::kDnsPort},
                                      .rate = rate,
                                      .seed = seed},
        spoof));
  }
};

using CounterMap = std::map<std::string, std::uint64_t>;

/// Every registered counter, optionally dropping names the caller knows
/// are legitimately partition-dependent (per-shard table metrics).
CounterMap counter_values(
    const Bed& bed,
    const std::function<bool(const std::string&)>& skip = {}) {
  CounterMap out;
  for (const std::string& name : bed.sim.metrics().counter_names()) {
    if (skip && skip(name)) continue;
    const obs::Counter* c = bed.sim.metrics().find_counter(name);
    if (c != nullptr) out[name] = c->value();
  }
  return out;
}

/// Table metrics move between "guard.rl1.*"-style names (1 shard) and
/// "guard.shard<k>.rl1.*" names (N shards), and their per-name values
/// split across shards; everything else must be partition-invariant.
bool is_partitioned_metric(const std::string& name) {
  static const char* kPrefixes[] = {
      "guard.shard",         "guard.rl1.",  "guard.rl2.",
      "guard.pending.",      "guard.nat.",  "guard.conn_buckets.",
  };
  for (const char* p : kPrefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

/// A lane dispatches one service event per burst, so the scheduler's own
/// event tally legitimately differs with shard count and burst size;
/// every packet-level counter must not.
bool is_service_path_dependent(const std::string& name) {
  return name == "sim.events_dispatched" || is_partitioned_metric(name);
}

struct RunOutcome {
  CounterMap all_counters;        // every registered counter
  CounterMap invariant_counters;  // minus partition-dependent names
  std::uint64_t traffic_hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t spoofs_dropped = 0;
};

RunOutcome run_workload(std::size_t num_shards, std::uint64_t seed,
                        std::size_t shard_batch_max = 32) {
  Bed bed;
  bed.make_guard(Scheme::ModifiedDns, [&](RemoteGuardNode::Config& c) {
    c.num_shards = num_shards;
    c.shard_batch_max = shard_batch_max;
  });
  auto* d =
      bed.add_driver(DriveMode::ModifiedHit, 8, Ipv4Address(10, 0, 1, 1), seed);
  // Spoofed sources spread across a /16 so every shard sees flood
  // traffic; random TXT cookies exercise the verify-and-drop path.
  bed.add_flood(20000, seed + 1,
                {.spoof_base = Ipv4Address(10, 200, 0, 0),
                 .spoof_range = 1u << 16,
                 .random_txt_cookie = true});
  std::uint64_t hash = 0;
  bed.sim.set_tap([&hash](SimTime t, const sim::Node*, const sim::Node*,
                          const net::Packet& p) {
    hash = hash * 0x9e3779b97f4a7c15ULL +
           (static_cast<std::uint64_t>(p.src_ip.value()) << 16) +
           p.payload.size() + static_cast<std::uint64_t>(t.ns & 0xffff);
  });
  d->start();
  bed.floods[0]->start();
  bed.sim.run_for(milliseconds(300));
  bed.floods[0]->stop();
  d->stop();
  bed.sim.run_for(milliseconds(50));
  return RunOutcome{counter_values(bed),
                    counter_values(bed, is_service_path_dependent), hash,
                    d->driver_stats().completed,
                    bed.guard->guard_stats().spoofs_dropped};
}

void expect_counter_maps_equal(const CounterMap& a, const CounterMap& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << label << ": missing " << name;
    EXPECT_EQ(value, it->second) << label << ": " << name;
  }
}

TEST(ShardDeterminism, SameSeedSameShardCountIsByteIdentical) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    RunOutcome a = run_workload(n, 42);
    RunOutcome b = run_workload(n, 42);
    EXPECT_EQ(a.traffic_hash, b.traffic_hash) << n << " shards";
    EXPECT_EQ(a.completed, b.completed) << n << " shards";
    expect_counter_maps_equal(a.all_counters, b.all_counters,
                              std::to_string(n) + " shards rerun");
  }
}

TEST(ShardEquivalence, CounterTotalsInvariantAcrossShardCounts) {
  // Partitioning the tables and serving lanes in bursts must not change
  // any externally observable tally: same verdicts, same drops, same
  // forwards for 1 shard and for 2 or 8 shards at every burst size.
  RunOutcome one = run_workload(1, 42);
  EXPECT_GT(one.completed, 100u);
  EXPECT_GT(one.spoofs_dropped, 1000u);
  for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      const std::string label = "1 vs " + std::to_string(n) +
                                " shards, burst " + std::to_string(batch);
      RunOutcome many = run_workload(n, 42, batch);
      EXPECT_EQ(one.completed, many.completed) << label;
      EXPECT_EQ(one.spoofs_dropped, many.spoofs_dropped) << label;
      expect_counter_maps_equal(one.invariant_counters,
                                many.invariant_counters, label);
    }
  }
}

// --- per-shard divided caps under a spoofed flood ---------------------------

std::int64_t gauge_high_water(const Bed& bed, const std::string& name) {
  const obs::Gauge* g = bed.sim.metrics().find_gauge(name);
  EXPECT_NE(g, nullptr) << "missing gauge " << name;
  return g != nullptr ? g->max() : std::numeric_limits<std::int64_t>::max();
}

std::uint64_t counter_value(const Bed& bed, const std::string& name) {
  const obs::Counter* c = bed.sim.metrics().find_counter(name);
  EXPECT_NE(c, nullptr) << "missing counter " << name;
  return c != nullptr ? c->value() : 0;
}

TEST(StateExhaustion, MillionSourceFloodRespectsPerShardDividedCaps) {
  constexpr std::size_t kShards = 8;
  constexpr std::int64_t kCap = 512;
  // ceil(512 / 8): each shard owns an eighth of every table budget.
  constexpr std::int64_t kPerShardCap = (kCap + kShards - 1) / kShards;

  Bed bed;
  bed.make_guard(Scheme::ModifiedDns, [&](RemoteGuardNode::Config& c) {
    c.num_shards = kShards;
    c.rl1.heavy_hitter_threshold = 1;  // every source lands an RL1 bucket
    c.rl1.max_buckets = kCap;
    c.rl2.max_hosts = kCap;
    c.pending_table_capacity = kCap;
    c.nat_table_capacity = kCap;
    c.conn_bucket_capacity = kCap;
  });
  auto* d =
      bed.add_driver(DriveMode::ModifiedHit, 4, Ipv4Address(10, 0, 1, 1), 7);
  // Cookie-less spoofed queries from 2^20 distinct sources: each one
  // takes the mint path and presses on its shard's RL1 bucket table.
  bed.add_flood(1e5, 99,
                {.spoof_base = Ipv4Address(10, 200, 0, 0),
                 .spoof_range = 1u << 20,
                 .random_txt_cookie = false});
  d->start();
  bed.floods[0]->start();
  bed.sim.run_for(seconds(1));
  bed.floods[0]->stop();
  d->stop();
  bed.sim.run_for(milliseconds(100));

  std::uint64_t rl1_evictions = 0;
  std::int64_t rl1_high_water_total = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::string p = "guard.shard" + std::to_string(k);
    for (const std::string& g :
         {p + ".rl1.table.size", p + ".rl2.table.size", p + ".pending.size",
          p + ".nat.size", p + ".conn_buckets.size"}) {
      EXPECT_LE(gauge_high_water(bed, g), kPerShardCap) << g;
    }
    rl1_evictions += counter_value(bed, p + ".rl1.table.evicted_capacity");
    rl1_high_water_total += gauge_high_water(bed, p + ".rl1.table.size");
  }
  // The flood really pressed on every shard's cap: ~100k distinct
  // sources hit 8 tables of 64 entries, recycling slots constantly, and
  // each shard filled to its own cap (no shard got the whole budget).
  EXPECT_GT(rl1_evictions, 10000u);
  EXPECT_EQ(rl1_high_water_total, kShards * kPerShardCap);
  // Legitimate clients are still served through the bounded shards.
  EXPECT_GT(d->driver_stats().completed, 100u);
}

}  // namespace
}  // namespace dnsguard
