// System-level properties: determinism (bit-identical reruns), multi-LRS
// fairness through the guard, the Table I profile metadata checked
// against live behaviour, and bounded per-source state under spoofed
// floods (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>

#include "attack/attackers.h"
#include "guard/comparison.h"
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

struct RunResult {
  std::uint64_t completed = 0;
  std::uint64_t spoofs_dropped = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t traffic_hash = 0;  // order+content sensitive
  SimDuration guard_busy{};
};

RunResult run_mixed_workload(std::uint64_t seed) {
  Bed bed;
  bed.make_guard(Scheme::ModifiedDns);
  auto* d = bed.add_driver(DriveMode::ModifiedHit, 8,
                           Ipv4Address(10, 0, 1, 1), seed);
  bed.add_flood(20000, seed + 1);
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
  return RunResult{d->driver_stats().completed,
                   bed.guard->guard_stats().spoofs_dropped,
                   bed.sim.stats().packets_sent, hash,
                   bed.guard->stats().busy};
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  RunResult a = run_mixed_workload(42);
  RunResult b = run_mixed_workload(42);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.spoofs_dropped, b.spoofs_dropped);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.traffic_hash, b.traffic_hash);
  EXPECT_EQ(a.guard_busy.ns, b.guard_busy.ns);
}

TEST(Determinism, DifferentSeedsDiffer) {
  RunResult a = run_mixed_workload(42);
  RunResult b = run_mixed_workload(43);
  // Same workload shape (rates are deterministic, so packet counts can
  // coincide), but the spoofed addresses and ids — hence the traffic
  // hash — must differ.
  EXPECT_NE(a.traffic_hash, b.traffic_hash);
}

TEST(MultiLrs, ManySourcesEachGetTheirOwnCookie) {
  Bed bed;
  bed.make_guard(Scheme::ModifiedDns);
  const int kLrsCount = 12;
  for (int i = 0; i < kLrsCount; ++i) {
    bed.add_driver(DriveMode::ModifiedHit, 1,
                   Ipv4Address(10, 0, 2, static_cast<std::uint8_t>(i + 1)),
                   100 + static_cast<std::uint64_t>(i));
  }
  for (auto& d : bed.drivers) d->start();
  bed.sim.run_for(milliseconds(200));
  for (auto& d : bed.drivers) d->stop();

  // One mint per source, zero drops, everyone served.
  EXPECT_EQ(bed.guard->guard_stats().cookies_minted,
            static_cast<std::uint64_t>(kLrsCount));
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 0u);
  for (auto& d : bed.drivers) {
    EXPECT_GT(d->driver_stats().completed, 50u);
    EXPECT_EQ(d->driver_stats().timeouts, 0u);
  }
}

TEST(MultiLrs, CookiesAreNotTransferableBetweenSources) {
  // A cookie minted for source A, replayed from source B, is a spoof.
  Bed bed;
  bed.make_guard(Scheme::ModifiedDns);
  crypto::Cookie a_cookie =
      bed.guard->cookie_engine().mint(Ipv4Address(10, 0, 2, 1));

  class Replayer : public sim::Node {
   public:
    Replayer(sim::Simulator& s, crypto::Cookie c)
        : sim::Node(s, "replayer"), cookie_(c) {}
    void fire() {
      dns::Message q = dns::Message::query(
          1, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
      guard::CookieEngine::attach_txt_cookie(q, cookie_, 0);
      send(net::Packet::make_udp({Ipv4Address(10, 0, 2, 2), 33000},
                                 {kAnsIp, net::kDnsPort}, q.encode()));
    }

   protected:
    SimDuration process(const net::Packet&) override { return {}; }

   private:
    crypto::Cookie cookie_;
  } replayer(bed.sim, a_cookie);

  replayer.fire();
  bed.sim.run_for(milliseconds(5));
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 1u);
  EXPECT_EQ(bed.guard->guard_stats().forwarded_to_ans, 0u);
}

// Table I metadata vs live behaviour: packet counts per request measured
// through the network tap must match the profile table's claims.
// gtest prints a parameter without operator<< as its raw bytes, and CTest
// names each case from that print; the padding after `scheme` is therefore
// spelled out and zeroed so the case names do not vary from run to run.
struct ProfileCase {
  Scheme scheme;
  std::uint8_t padding[3] = {};
  DriveMode miss_mode;
  DriveMode hit_mode;
};
static_assert(std::has_unique_object_representations_v<ProfileCase>);

class ProfilePacketCounts : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(ProfilePacketCounts, MatchComparisonTable) {
  auto param = GetParam();
  auto profiles = guard::scheme_profiles();
  const guard::SchemeProfile* profile = nullptr;
  for (const auto& p : profiles) {
    if (p.scheme == param.scheme) profile = &p;
  }
  ASSERT_NE(profile, nullptr);

  for (bool hit : {false, true}) {
    Bed bed;
    bed.make_guard(param.scheme);
    auto* d = bed.add_driver(hit ? param.hit_mode : param.miss_mode, 1,
                             Ipv4Address(10, 0, 1, 1));
    // Count packets touching the guard node per completed request.
    std::uint64_t guard_packets = 0;
    bed.sim.set_tap([&](SimTime, const sim::Node* from, const sim::Node* to,
                        const net::Packet&) {
      if (from == bed.guard.get() || to == bed.guard.get()) guard_packets++;
    });
    d->start();
    bed.sim.run_for(milliseconds(400));
    d->stop();
    bed.sim.run_for(milliseconds(10));

    std::uint64_t completed = d->driver_stats().completed;
    ASSERT_GT(completed, 50u);
    double per_request = static_cast<double>(guard_packets) /
                         static_cast<double>(completed);
    int expected = hit ? profile->packets_hit : profile->packets_miss;
    EXPECT_NEAR(per_request, expected, 0.35)
        << guard::scheme_name(param.scheme) << (hit ? " hit" : " miss");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ProfilePacketCounts,
    ::testing::Values(
        ProfileCase{.scheme = Scheme::NsName,
                    .miss_mode = DriveMode::NsNameMiss,
                    .hit_mode = DriveMode::NsNameHit},
        ProfileCase{.scheme = Scheme::FabricatedNsIp,
                    .miss_mode = DriveMode::FabricatedMiss,
                    .hit_mode = DriveMode::FabricatedHit},
        ProfileCase{.scheme = Scheme::ModifiedDns,
                    .miss_mode = DriveMode::ModifiedMiss,
                    .hit_mode = DriveMode::ModifiedHit}));

// --- bounded per-source state under a spoofed-source flood ------------------
//
// The guard keeps per-source state in six places (RL1/RL2 buckets, the
// pending-action, NAT and connection-rate tables, the TCP proxy's
// connection table). A flood that draws its spoofed sources from a ~1M
// address space (2^20) used to grow the RL1 bucket map one entry per
// distinct source; now every table is a BoundedTable, so occupancy must
// never exceed the configured cap — asserted below via the registry
// gauges' high-water marks — while legitimate clients are served as well
// as by a guard with effectively unbounded tables.

std::int64_t gauge_high_water(const Bed& bed, const std::string& name) {
  const obs::Gauge* g = bed.sim.metrics().find_gauge(name);
  EXPECT_NE(g, nullptr) << "missing gauge " << name;
  return g != nullptr ? g->max() : std::numeric_limits<std::int64_t>::max();
}

struct FloodOutcome {
  double legit_success = 0.0;
  std::uint64_t legit_completed = 0;
};

FloodOutcome run_spoofed_flood(
    const std::function<void(RemoteGuardNode::Config&)>& tweak,
    const std::function<void(const Bed&)>& inspect = {}) {
  Bed bed;
  bed.make_guard(Scheme::ModifiedDns, tweak);
  auto* d = bed.add_driver(DriveMode::ModifiedHit, 4,
                           Ipv4Address(10, 0, 1, 1), 7);
  // Cookie-less spoofed queries: each one takes the mint path, so each
  // distinct source presses on the RL1 bucket table.
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
  if (inspect) inspect(bed);
  const auto& ds = d->driver_stats();
  const double denom =
      static_cast<double>(ds.completed) + static_cast<double>(ds.timeouts);
  return {denom > 0 ? static_cast<double>(ds.completed) / denom : 0.0,
          ds.completed};
}

TEST(StateExhaustion, MillionSourceFloodKeepsEveryTableBounded) {
  constexpr std::int64_t kCap = 512;
  auto track_everyone = [](RemoteGuardNode::Config& c) {
    c.rl1.heavy_hitter_threshold = 1;  // every source lands an RL1 bucket
  };

  FloodOutcome bounded = run_spoofed_flood(
      [&](RemoteGuardNode::Config& c) {
        track_everyone(c);
        c.rl1.max_buckets = kCap;
        c.rl2.max_hosts = kCap;
        c.pending_table_capacity = kCap;
        c.nat_table_capacity = kCap;
        c.conn_bucket_capacity = kCap;
        c.proxy_max_connections = kCap;
      },
      [&](const Bed& bed) {
        for (const char* g :
             {"guard.rl1.table.size", "guard.rl2.table.size",
              "guard.pending.size", "guard.nat.size",
              "guard.conn_buckets.size", "guard.tcp.table.size"}) {
          EXPECT_LE(gauge_high_water(bed, g), kCap) << g;
        }
        // The flood really pressed on the cap: ~100k distinct sources hit
        // a 512-entry table, so slots were recycled tens of thousands of
        // times.
        const auto& rl1 = bed.guard->rl1().table_stats();
        EXPECT_GT(rl1.evicted_capacity.value(), 10000u);
        EXPECT_LE(bed.guard->rl1().tracked_buckets(),
                  static_cast<std::size_t>(kCap));
      });

  FloodOutcome unbounded = run_spoofed_flood([&](RemoteGuardNode::Config& c) {
    track_everyone(c);
    c.rl1.max_buckets = 1 << 22;  // effectively unbounded control
  });

  // Bounding state must not cost legitimate clients anything: success
  // within one percentage point of the unbounded control.
  EXPECT_GT(bounded.legit_completed, 100u);
  EXPECT_NEAR(bounded.legit_success, unbounded.legit_success, 0.01);
}

}  // namespace
}  // namespace dnsguard
