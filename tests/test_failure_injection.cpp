// Failure injection: random in-flight packet loss exercises every
// recovery path — resolver retransmission, stub retries, driver
// timeouts, and TCP stall handling — while conservation still holds.
#include <gtest/gtest.h>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "server/resolver_node.h"
#include "server/zone.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using net::Ipv4Address;

constexpr Ipv4Address kRootIp(10, 0, 0, 1);
constexpr Ipv4Address kComIp(10, 0, 0, 2);
constexpr Ipv4Address kFooIp(10, 0, 0, 3);
constexpr Ipv4Address kLrsIp(10, 0, 1, 1);

struct Bed {
  sim::Simulator sim;
  std::unique_ptr<server::AuthoritativeServerNode> root, com, foo;
  std::unique_ptr<server::RecursiveResolverNode> lrs;

  Bed() {
    auto h = server::make_example_hierarchy(kRootIp, kComIp, kFooIp);
    root = std::make_unique<server::AuthoritativeServerNode>(
        sim, "root",
        server::AuthoritativeServerNode::Config{.address = kRootIp});
    com = std::make_unique<server::AuthoritativeServerNode>(
        sim, "com", server::AuthoritativeServerNode::Config{.address = kComIp});
    foo = std::make_unique<server::AuthoritativeServerNode>(
        sim, "foo", server::AuthoritativeServerNode::Config{.address = kFooIp});
    root->add_zone(std::move(h.root));
    com->add_zone(std::move(h.com));
    foo->add_zone(std::move(h.foo_com));
    server::RecursiveResolverNode::Config rc;
    rc.address = kLrsIp;
    rc.root_hints = {kRootIp};
    rc.retry_timeout = milliseconds(30);
    rc.max_retries = 6;
    lrs = std::make_unique<server::RecursiveResolverNode>(sim, "lrs", rc);
    sim.add_host_route(kRootIp, root.get());
    sim.add_host_route(kComIp, com.get());
    sim.add_host_route(kFooIp, foo.get());
    sim.add_host_route(kLrsIp, lrs.get());
  }
};

// Parameterized over loss rates: resolution must survive via retries.
class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, ResolverRecoversThroughRetransmission) {
  Bed bed;
  bed.sim.set_loss_rate(GetParam(), /*seed=*/GetParam() * 1000 + 7);
  int ok = 0, done = 0;
  const int kLookups = 20;
  for (int i = 0; i < kLookups; ++i) {
    // Distinct names so every lookup exercises the wire, not the cache.
    std::string name = std::string("h").append(std::to_string(i)) + ".foo.com";
    auto qname = dns::DomainName::parse(name);
    // Names are not in the zone: NXDOMAIN is still a *successful*
    // resolution for this purpose (the full path was walked).
    bed.lrs->resolve(*qname, dns::RrType::A,
                     [&](const server::RecursiveResolverNode::Result& r) {
                       done++;
                       if (r.ok) ok++;
                     });
    bed.sim.run_for(seconds(3));
  }
  EXPECT_EQ(done, kLookups);
  // At 20% loss a 3-packet chain fails ~half the time per attempt, but 6
  // retries per server make end-to-end failure vanishingly rare.
  EXPECT_GE(ok, kLookups - 1);
  if (GetParam() > 0) {
    EXPECT_GT(bed.lrs->resolver_stats().retransmissions, 0u);
    EXPECT_GT(bed.sim.stats().packets_dropped_loss, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.05, 0.2));

TEST(LossInjection, ConservationIncludesLossDrops) {
  Bed bed;
  bed.sim.set_loss_rate(0.1);
  for (int i = 0; i < 30; ++i) {
    // Distinct names: every lookup hits the wire (~3 exchanges each).
    std::string name = std::string("c").append(std::to_string(i)) + ".foo.com";
    bed.lrs->resolve(*dns::DomainName::parse(name), dns::RrType::A,
                     [](const auto&) {});
    bed.sim.run_for(seconds(1));
  }
  const auto& s = bed.sim.stats();
  EXPECT_EQ(s.packets_sent,
            s.packets_delivered + s.packets_dropped_no_route +
                s.packets_dropped_queue_full + s.packets_dropped_loss);
  EXPECT_GT(s.packets_dropped_loss, 0u);
}

TEST(LossInjection, LossRateRoughlyHonored) {
  sim::Simulator sim;
  sim.set_loss_rate(0.25);
  attack::VictimNode sink(sim, "sink", Ipv4Address(10, 5, 5, 5));
  sim.add_host_route(Ipv4Address(10, 5, 5, 5), &sink);
  attack::ZombieFloodNode sender(
      sim, "sender",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 1, 1, 1),
                                    .target = {Ipv4Address(10, 5, 5, 5), 53},
                                    .rate = 10000});
  sender.start();
  sim.run_for(seconds(1));
  sender.stop();
  sim.run_for(milliseconds(10));
  double loss = static_cast<double>(sim.stats().packets_dropped_loss) /
                static_cast<double>(sim.stats().packets_sent);
  EXPECT_NEAR(loss, 0.25, 0.02);
}

TEST(LossInjection, GuardedDanceSurvivesLoss) {
  // The full NS-name dance through the guard under 10% loss: the driver's
  // own timeout machinery recovers; legitimate service continues.
  sim::Simulator sim;
  sim.set_loss_rate(0.1);
  server::AnsSimulatorNode ans(sim, "ans",
                               {.address = Ipv4Address(10, 1, 1, 254)});
  guard::RemoteGuardNode::Config gc;
  gc.guard_address = Ipv4Address(10, 1, 1, 253);
  gc.ans_address = Ipv4Address(10, 1, 1, 254);
  gc.protected_zone = dns::DomainName{};
  gc.subnet_base = Ipv4Address(10, 1, 1, 0);
  gc.scheme = guard::Scheme::NsName;
  gc.rl1.per_address_rate = 1e7;
  gc.rl1.per_address_burst = 1e6;
  gc.rl2.per_host_rate = 1e7;
  gc.rl2.per_host_burst = 1e6;
  guard::RemoteGuardNode guard(sim, "guard", gc, &ans);
  guard.install();

  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 1, 1);
  dc.target = {Ipv4Address(10, 1, 1, 254), net::kDnsPort};
  dc.mode = workload::DriveMode::NsNameMiss;
  dc.concurrency = 4;
  dc.timeout = milliseconds(10);
  workload::LrsSimulatorNode driver(sim, "driver", dc);
  sim.add_host_route(dc.address, &driver);

  driver.start();
  sim.run_for(seconds(1));
  driver.stop();
  // Loss makes every ~3rd dance stall for the 10 ms timeout, so
  // throughput is far below the lossless ~4.7K/s — but service continues.
  EXPECT_GT(driver.driver_stats().completed, 250u);
  EXPECT_GT(driver.driver_stats().timeouts, 100u);  // loss was felt...
  EXPECT_EQ(guard.guard_stats().spoofs_dropped, 0u);  // ...but harmless
}

}  // namespace
}  // namespace dnsguard
