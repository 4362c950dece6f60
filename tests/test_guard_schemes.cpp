// RemoteGuardNode behaviour, scheme by scheme, driven by the paper's LRS
// simulator against the high-rate ANS simulator. Covers the cookie dances
// of Figs. 2-3, spoof rejection, the zero-false-positive claim (§V), the
// activation threshold (§IV.C) and both rate limiters in situ.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

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
using server::AnsSimulatorNode;
using workload::DriveMode;
using workload::LrsSimulatorNode;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);
constexpr Ipv4Address kLrsIp(10, 0, 1, 1);

struct GuardBed {
  sim::Simulator sim;
  std::unique_ptr<AnsSimulatorNode> ans;
  std::unique_ptr<RemoteGuardNode> guard;
  std::unique_ptr<LrsSimulatorNode> driver;

  explicit GuardBed(Scheme scheme, DriveMode mode, int concurrency = 1,
                    double activation_threshold = 0.0,
                    std::function<void(RemoteGuardNode::Config&)> tweak = {}) {
    ans = std::make_unique<AnsSimulatorNode>(
        sim, "ans", AnsSimulatorNode::Config{.address = kAnsIp});

    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};  // a root guard
    gc.subnet_base = kSubnetBase;
    gc.r_y = 250;
    gc.scheme = scheme;
    gc.activation_threshold_rps = activation_threshold;
    // Benchmark-style limiter settings: high enough that a single polite
    // closed-loop requester is never throttled (the paper's throughput
    // tests push 110K req/s from one LRS through the guard). Tests that
    // exercise the limiters pass the paper's tight settings via `tweak`.
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    if (tweak) tweak(gc);
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, ans.get());
    guard->install(/*subnet_prefix_len=*/24);

    LrsSimulatorNode::Config dc;
    dc.address = kLrsIp;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = concurrency;
    driver = std::make_unique<LrsSimulatorNode>(sim, "driver", dc);
    sim.add_host_route(kLrsIp, driver.get());
    sim.set_default_latency(microseconds(200));  // 0.4 ms RTT testbed
  }

  void run(SimDuration d) {
    driver->start();
    sim.run_for(d);
    driver->stop();
  }
};

// --- NS-name scheme ----------------------------------------------------------

TEST(NsNameScheme, CookieDanceCompletes) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  bed.run(milliseconds(100));
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  EXPECT_EQ(bed.driver->driver_stats().timeouts, 0u);
  EXPECT_EQ(bed.driver->driver_stats().unexpected, 0u);
  // Every completed request minted one cookie and checked one.
  EXPECT_GE(bed.guard->guard_stats().cookies_minted, 10u);
  EXPECT_GE(bed.guard->guard_stats().cookie_checks, 10u);
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 0u);
}

TEST(NsNameScheme, AnsOnlySeesRestoredQuestions) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  bed.run(milliseconds(50));
  // The ANS must see exactly one query per completed request (the
  // restored next-level question), never the fabricated cookie name.
  EXPECT_EQ(bed.ans->ans_stats().udp_queries,
            bed.driver->driver_stats().completed);
}

TEST(NsNameScheme, HitPathSkipsFabrication) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameHit);
  bed.run(milliseconds(100));
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  // Only the priming request fabricates a referral.
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 1u);
}

TEST(NsNameScheme, SpoofedFloodNeverReachesAns) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  attack::SpoofedFloodNode attacker(
      bed.sim, "attacker",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 20000});
  attacker.start();
  bed.run(milliseconds(100));
  attacker.stop();
  // Attack requests without cookies get fabricated referrals (cheap) or
  // are RL1-throttled; none carries a valid cookie, so none is forwarded
  // beyond the legitimate driver's traffic.
  EXPECT_EQ(bed.ans->ans_stats().udp_queries,
            bed.driver->driver_stats().completed);
  // And the legitimate driver still finished its dances: zero false
  // positives (§V).
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  EXPECT_EQ(bed.driver->driver_stats().timeouts, 0u);
}

TEST(NsNameScheme, GuessedCookieLabelsDropped) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  attack::CookieGuessNode guesser(
      bed.sim, "guesser",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 8),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 10000},
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::NsNameLabel,
          .victim = Ipv4Address(10, 99, 0, 1),
          .zone = dns::DomainName{}});
  guesser.start();
  bed.run(milliseconds(100));
  guesser.stop();
  // ~1000 guesses against a 2^32 range: none should pass.
  EXPECT_GT(bed.guard->guard_stats().spoofs_dropped, 500u);
  EXPECT_EQ(bed.ans->ans_stats().udp_queries,
            bed.driver->driver_stats().completed);
}

// --- fabricated NS name + IP scheme ------------------------------------------

TEST(FabricatedScheme, ThreeExchangeDanceCompletes) {
  GuardBed bed(Scheme::FabricatedNsIp, DriveMode::FabricatedMiss);
  bed.run(milliseconds(100));
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  EXPECT_EQ(bed.driver->driver_stats().unexpected, 0u);
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 0u);
  EXPECT_EQ(bed.ans->ans_stats().udp_queries,
            bed.driver->driver_stats().completed);
}

TEST(FabricatedScheme, HitPathIsOneExchange) {
  GuardBed bed(Scheme::FabricatedNsIp, DriveMode::FabricatedHit);
  bed.run(milliseconds(100));
  const auto& d = bed.driver->driver_stats();
  EXPECT_GT(d.completed, 10u);
  // Steady state: one exchange per request (plus the 3-exchange priming).
  EXPECT_LE(d.exchanges_sent, d.completed + 4);
}

TEST(FabricatedScheme, SubnetSprayPenetratesAtOneOverRy) {
  GuardBed bed(Scheme::FabricatedNsIp, DriveMode::FabricatedHit);
  attack::CookieGuessNode sprayer(
      bed.sim, "sprayer",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 8),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 50000},
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::SubnetAddress,
          .victim = Ipv4Address(10, 99, 0, 1),
          .subnet_base = kSubnetBase,
          .r_y = 250});
  sprayer.start();
  bed.run(milliseconds(200));
  sprayer.stop();
  const auto& g = bed.guard->guard_stats();
  std::uint64_t attack_requests = sprayer.flood_stats().sent;
  // §III.G: 1/R_y of sprayed requests carry the right y. Expect ~0.4%.
  std::uint64_t penetrated =
      g.forwarded_to_ans - bed.driver->driver_stats().completed;
  double ratio = static_cast<double>(penetrated) /
                 static_cast<double>(attack_requests);
  EXPECT_GT(ratio, 0.0005);
  EXPECT_LT(ratio, 0.02);
}

// --- TCP-based scheme ---------------------------------------------------------

TEST(TcpScheme, RedirectAndProxyCompleteQueries) {
  GuardBed bed(Scheme::TcpRedirect, DriveMode::TcpWithRedirect, 4);
  bed.run(milliseconds(200));
  const auto& d = bed.driver->driver_stats();
  EXPECT_GT(d.completed, 10u);
  EXPECT_EQ(d.unexpected, 0u);
  EXPECT_GE(bed.guard->guard_stats().tc_redirects, d.completed);
  EXPECT_EQ(bed.guard->guard_stats().proxy_queries, d.completed);
  // The ANS sees only UDP (the proxy converts), one query per request.
  EXPECT_EQ(bed.ans->ans_stats().udp_queries, d.completed);
}

TEST(TcpScheme, DirectTcpAlsoServed) {
  GuardBed bed(Scheme::TcpRedirect, DriveMode::TcpDirect, 4);
  bed.run(milliseconds(200));
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  EXPECT_EQ(bed.driver->driver_stats().unexpected, 0u);
}

TEST(TcpScheme, ProxyConnectionsAreCleanedUp) {
  GuardBed bed(Scheme::TcpRedirect, DriveMode::TcpDirect, 8);
  bed.run(milliseconds(200));
  bed.sim.run_for(milliseconds(50));  // drain teardown
  EXPECT_LE(bed.guard->proxy_connections(), 8u);
}

// --- modified-DNS scheme -------------------------------------------------------

// A server that never answers: proxied queries stay in flight, so the
// guard's NAT entries stay live (collision tests) or go stale (reap
// tests) on demand.
class BlackholeNode : public sim::Node {
 public:
  BlackholeNode(sim::Simulator& s, std::string name)
      : sim::Node(s, std::move(name)) {}

 protected:
  SimDuration process(const net::Packet&) override { return {}; }
};

struct NatBed {
  sim::Simulator sim;
  BlackholeNode ans{sim, "ans"};
  std::unique_ptr<RemoteGuardNode> guard;
  std::vector<std::unique_ptr<LrsSimulatorNode>> drivers;

  explicit NatBed(std::function<void(RemoteGuardNode::Config&)> tweak = {}) {
    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.subnet_base = kSubnetBase;
    gc.scheme = Scheme::TcpRedirect;
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    if (tweak) tweak(gc);
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
    sim.set_default_latency(microseconds(200));
  }

  LrsSimulatorNode* add_driver(const std::string& name, Ipv4Address ip,
                               int concurrency, SimDuration timeout) {
    LrsSimulatorNode::Config dc;
    dc.address = ip;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = DriveMode::TcpDirect;
    dc.concurrency = concurrency;
    dc.timeout = timeout;
    drivers.push_back(std::make_unique<LrsSimulatorNode>(sim, name, dc));
    sim.add_host_route(ip, drivers.back().get());
    return drivers.back().get();
  }
};

TEST(TcpScheme, NatPortCollisionProbesFreshPort) {
  // Regression: the NAT table is keyed by guard source port; a colliding
  // allocation used to overwrite the old entry silently, orphaning its
  // in-flight ANS query and leaking the client connection.
  NatBed bed;
  auto* d1 = bed.add_driver("d1", Ipv4Address(10, 0, 1, 1), 4, seconds(5));
  bed.guard->set_next_nat_port(30000);
  d1->start();
  bed.sim.run_for(milliseconds(50));
  ASSERT_EQ(bed.guard->nat_entries(), 4u);

  // Rewind the allocator onto the live entries: the next queries must
  // detect the collisions and probe fresh ports.
  bed.guard->set_next_nat_port(30000);
  auto* d2 = bed.add_driver("d2", Ipv4Address(10, 0, 1, 2), 4, seconds(5));
  d2->start();
  bed.sim.run_for(milliseconds(50));
  d1->stop();
  d2->stop();

  EXPECT_EQ(bed.guard->nat_entries(), 8u)
      << "colliding allocations must coexist on fresh ports, not overwrite";
  EXPECT_EQ(bed.guard->nat_table_stats().evicted_capacity.value(), 0u);
  EXPECT_EQ(bed.guard->drop_counters().value(
                obs::DropReason::kStateTableFull),
            0u);
}

TEST(TcpScheme, NatEntriesReapedWhenAnsNeverReplies) {
  // Entries whose ANS reply never arrives must not accumulate: they are
  // TTL-reaped on later proxy activity and their client connections get
  // closed instead of dangling.
  NatBed bed([](RemoteGuardNode::Config& gc) {
    gc.nat_ttl = milliseconds(50);
  });
  // d1's workers wait far past the NAT TTL, so their entries go stale
  // while the connections stay open.
  auto* d1 = bed.add_driver("d1", Ipv4Address(10, 0, 1, 1), 4, seconds(5));
  d1->start();
  bed.sim.run_for(milliseconds(60));
  ASSERT_EQ(bed.guard->nat_entries(), 4u);

  // Fresh proxy activity from another client reaps the stale entries and
  // closes their dangling connections.
  auto* d2 = bed.add_driver("d2", Ipv4Address(10, 0, 1, 2), 4, seconds(5));
  d2->start();
  bed.sim.run_for(milliseconds(40));
  d1->stop();
  d2->stop();

  EXPECT_GE(bed.guard->nat_table_stats().expired_ttl.value(), 4u);
  EXPECT_GE(bed.guard->drop_counters().value(obs::DropReason::kProxyTimeout),
            4u);
  EXPECT_LE(bed.guard->nat_entries(), 4u) << "stale entries must be gone";
  // Occupancy never exceeded the in-flight working set.
  EXPECT_LE(bed.guard->nat_table_stats().occupancy.max(), 8);
}

TEST(TcpScheme, NatTableCapacityRecyclesLruNotUnbounded) {
  // At capacity the oldest in-flight entry is recycled (connection
  // closed, kStateTableFull counted) instead of the table growing.
  NatBed bed([](RemoteGuardNode::Config& gc) {
    gc.nat_table_capacity = 4;
  });
  auto* d1 = bed.add_driver("d1", Ipv4Address(10, 0, 1, 1), 8, seconds(5));
  d1->start();
  bed.sim.run_for(milliseconds(100));
  d1->stop();

  EXPECT_LE(bed.guard->nat_entries(), 4u);
  EXPECT_GE(bed.guard->nat_table_stats().evicted_capacity.value(), 4u);
  EXPECT_GE(bed.guard->drop_counters().value(
                obs::DropReason::kStateTableFull),
            4u);
  EXPECT_LE(bed.guard->nat_table_stats().occupancy.max(), 4);
}

TEST(ModifiedScheme, CookieExchangeThenQuery) {
  GuardBed bed(Scheme::ModifiedDns, DriveMode::ModifiedMiss);
  bed.run(milliseconds(100));
  const auto& d = bed.driver->driver_stats();
  EXPECT_GT(d.completed, 10u);
  EXPECT_EQ(d.unexpected, 0u);
  EXPECT_GE(bed.guard->guard_stats().cookie_replies, d.completed);
  EXPECT_EQ(bed.ans->ans_stats().udp_queries, d.completed);
}

TEST(ModifiedScheme, CachedCookieIsOneExchange) {
  GuardBed bed(Scheme::ModifiedDns, DriveMode::ModifiedHit);
  bed.run(milliseconds(100));
  const auto& d = bed.driver->driver_stats();
  EXPECT_GT(d.completed, 10u);
  EXPECT_LE(d.exchanges_sent, d.completed + 3);
  // Exactly one cookie mint (the priming request).
  EXPECT_EQ(bed.guard->guard_stats().cookies_minted, 1u);
}

TEST(ModifiedScheme, RandomTxtCookiesDropped) {
  GuardBed bed(Scheme::ModifiedDns, DriveMode::ModifiedHit);
  attack::CookieGuessNode guesser(
      bed.sim, "guesser",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 8),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 10000},
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::TxtCookie,
          .victim = Ipv4Address(10, 99, 0, 1)});
  guesser.start();
  bed.run(milliseconds(100));
  guesser.stop();
  EXPECT_GT(bed.guard->guard_stats().spoofs_dropped, 500u);
  // completed + the one priming exchange; nothing from the guesser.
  EXPECT_LE(bed.ans->ans_stats().udp_queries,
            bed.driver->driver_stats().completed + 1);
}

TEST(ModifiedScheme, StrippedBeforeAns) {
  // §III.D msg 5: "the ANS doesn't see any cookie extension". Verified
  // structurally: the ANS simulator decodes every request; cookie TXT
  // records in additional would change nothing for it, so instead check
  // at the guard: forwarded == completed and each was transformed.
  GuardBed bed(Scheme::ModifiedDns, DriveMode::ModifiedHit);
  bed.run(milliseconds(50));
  // completed, plus the priming exchange and at most one in-flight
  // request at stop time.
  EXPECT_GE(bed.guard->guard_stats().forwarded_to_ans,
            bed.driver->driver_stats().completed);
  EXPECT_LE(bed.guard->guard_stats().forwarded_to_ans,
            bed.driver->driver_stats().completed + 2);
}

// --- activation threshold (§IV.C) ---------------------------------------------

TEST(ActivationThreshold, PassThroughBelowThreshold) {
  // Threshold far above the driver's offered rate: the guard must not
  // interfere; plain queries flow straight to the ANS.
  GuardBed bed(Scheme::NsName, DriveMode::PlainUdp, 1,
               /*activation_threshold=*/1e9);
  bed.run(milliseconds(100));
  EXPECT_GT(bed.driver->driver_stats().completed, 10u);
  EXPECT_GT(bed.guard->guard_stats().forwarded_inactive, 10u);
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 0u);
}

TEST(ActivationThreshold, KicksInUnderFlood) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss, 1,
               /*activation_threshold=*/5000.0);
  attack::SpoofedFloodNode attacker(
      bed.sim, "attacker",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 50000});
  attacker.start();
  bed.run(milliseconds(200));
  attacker.stop();
  // Once the estimator crosses 5K req/s, spoof detection engages and the
  // flood stops reaching the ANS.
  EXPECT_TRUE(bed.guard->protection_active());
  EXPECT_GT(bed.guard->guard_stats().fabricated_referrals, 100u);
  // Most of the flood must NOT have reached the ANS.
  EXPECT_LT(bed.ans->ans_stats().udp_queries,
            attacker.flood_stats().sent / 2);
}

// --- rate limiters in situ -----------------------------------------------------

TEST(RateLimiter2, ThrottlesVerifiedZombie) {
  GuardBed bed(Scheme::ModifiedDns, DriveMode::ModifiedHit, 1, 0.0,
               [](RemoteGuardNode::Config& gc) {
                 gc.rl2 = ratelimit::VerifiedRequestLimiter::Config{};
               });
  // A zombie with a real address plays by the rules (gets a cookie via
  // the driver protocol) but floods. Simplify: a second driver at very
  // high concurrency IS the zombie; RL2 must cap what the ANS sees from
  // it while the first driver keeps its share.
  LrsSimulatorNode::Config zc;
  zc.address = Ipv4Address(10, 0, 2, 2);
  zc.target = {kAnsIp, net::kDnsPort};
  zc.mode = DriveMode::ModifiedHit;
  zc.concurrency = 64;
  zc.timeout = milliseconds(5);
  auto zombie = std::make_unique<LrsSimulatorNode>(bed.sim, "zombie", zc);
  bed.sim.add_host_route(zc.address, zombie.get());

  zombie->start();
  bed.run(seconds(1));
  zombie->stop();

  // RL2 defaults: 200 req/s per host. The zombie's completions must be
  // bounded near that, far below its offered load.
  EXPECT_LT(zombie->driver_stats().completed, 400u);
  EXPECT_GT(bed.guard->guard_stats().rl2_throttled, 1000u);
  // The polite driver (1 outstanding, ~2.5K/s offered max) is also capped
  // by RL2 but keeps completing requests.
  EXPECT_GT(bed.driver->driver_stats().completed, 150u);
}

TEST(RateLimiter1, BoundsCookieReflection) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameHit, 1, 0.0,
               [](RemoteGuardNode::Config& gc) {
                 gc.rl1 = ratelimit::CookieResponseLimiter::Config{};
               });
  // Spoofed flood pretending to be one victim: RL1 must cap the
  // fabricated-referral responses reflected at that victim.
  attack::VictimNode victim(bed.sim, "victim", Ipv4Address(10, 99, 0, 1));
  bed.sim.add_host_route(Ipv4Address(10, 99, 0, 1), &victim);
  attack::SpoofedFloodNode attacker(
      bed.sim, "attacker",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 20000},
      attack::SpoofedFloodNode::SpoofConfig{
          .spoof_base = Ipv4Address(10, 99, 0, 1), .spoof_range = 1});
  attacker.start();
  bed.run(seconds(1));
  attacker.stop();
  // 20K spoofed requests in 1s, but RL1 (default 100/s + burst) caps the
  // reflected responses.
  EXPECT_LT(victim.packets_received(), 300u);
  EXPECT_GT(bed.guard->guard_stats().rl1_throttled, 15000u);
}

// Parameterized zero-false-positive sweep: under a heavy spoofed flood,
// every scheme keeps serving its legitimate requester without timeouts.
// gtest prints a parameter without operator<< as its raw bytes, and CTest
// names each case from that print; the padding after `scheme` is therefore
// spelled out and zeroed so the case names do not vary from run to run.
struct SchemeModeParam {
  Scheme scheme;
  std::uint8_t padding[3] = {};
  DriveMode mode;
};
static_assert(std::has_unique_object_representations_v<SchemeModeParam>);

class ZeroFalsePositives
    : public ::testing::TestWithParam<SchemeModeParam> {};

TEST_P(ZeroFalsePositives, LegitNeverDropped) {
  auto p = GetParam();
  GuardBed bed(p.scheme, p.mode, 2);
  attack::SpoofedFloodNode attacker(
      bed.sim, "attacker",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 30000});
  attacker.start();
  bed.run(milliseconds(300));
  attacker.stop();
  EXPECT_GT(bed.driver->driver_stats().completed, 20u);
  EXPECT_EQ(bed.driver->driver_stats().timeouts, 0u)
      << "scheme dropped legitimate traffic under attack";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ZeroFalsePositives,
    ::testing::Values(
        SchemeModeParam{.scheme = Scheme::NsName,
                        .mode = DriveMode::NsNameMiss},
        SchemeModeParam{.scheme = Scheme::NsName,
                        .mode = DriveMode::NsNameHit},
        SchemeModeParam{.scheme = Scheme::FabricatedNsIp,
                        .mode = DriveMode::FabricatedMiss},
        SchemeModeParam{.scheme = Scheme::FabricatedNsIp,
                        .mode = DriveMode::FabricatedHit},
        SchemeModeParam{.scheme = Scheme::ModifiedDns,
                        .mode = DriveMode::ModifiedMiss},
        SchemeModeParam{.scheme = Scheme::ModifiedDns,
                        .mode = DriveMode::ModifiedHit},
        SchemeModeParam{.scheme = Scheme::TcpRedirect,
                        .mode = DriveMode::TcpWithRedirect}));

}  // namespace
}  // namespace dnsguard
