#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "attack/attackers.h"
#include "bench/bench_common.h"
#include "workload/population.h"

namespace hostbench {

using namespace dnsguard;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent per-component values drawn from the run's seed.
struct Seeds {
  std::uint64_t key, driver, population, flood;
  std::string qname;  // "www.<seed tag>.com."

  explicit Seeds(std::uint64_t seed)
      : key(splitmix(seed ^ 0x6b6579)),
        driver(splitmix(seed ^ 0x647276)),
        population(splitmix(seed ^ 0x706f70)),
        flood(splitmix(seed ^ 0x666c64)) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), "s%06llx",
                  static_cast<unsigned long long>(splitmix(seed) & 0xffffff));
    qname = std::string("www.") + tag + ".com.";
  }
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, T v) {
  return fnv(h, &v, sizeof(v));
}

workload::LrsSimulatorNode* add_driver(bench::Testbed& bed,
                                       workload::DriveMode mode,
                                       int concurrency, SimDuration timeout,
                                       const Seeds& s) {
  workload::LrsSimulatorNode::Config dc;
  dc.address = net::Ipv4Address(10, 0, 1, 1);
  dc.target = {bench::kAnsIp, net::kDnsPort};
  dc.mode = mode;
  dc.concurrency = concurrency;
  dc.timeout = timeout;
  dc.qname = s.qname;
  dc.seed = s.driver;
  auto node = std::make_unique<workload::LrsSimulatorNode>(bed.sim, "driver",
                                                           dc);
  bed.sim.add_host_route(dc.address, node.get());
  bed.drivers.push_back(std::move(node));
  return bed.drivers.back().get();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ns_name_miss",
                                                 "blended_flood", "tcp_crowd"};
  return names;
}

SimDuration default_window(const std::string& workload) {
  if (workload == "tcp_crowd") return milliseconds(1500);
  return milliseconds(1000);
}

std::uint64_t digest_packet(std::uint64_t h, SimTime at,
                            const net::Packet& p) {
  h = fnv_value(h, at.ns);
  h = fnv_value(h, p.src_ip.value());
  h = fnv_value(h, p.dst_ip.value());
  h = fnv_value(h, p.src_port());
  h = fnv_value(h, p.dst_port());
  if (p.is_tcp()) {
    const net::TcpHeader& t = p.tcp();
    h = fnv_value(h, t.seq);
    h = fnv_value(h, t.ack);
    h = fnv_value(h, t.flags.to_byte());
  }
  return fnv(h, p.payload.data(), p.payload.size());
}

GuardMetrics guard_metrics(const obs::MetricsRegistry& registry) {
  GuardMetrics out;
  for (auto& [name, value] : registry.snapshot()) {
    if (std::string_view(name).starts_with("guard.")) {
      out.emplace_back(name, value);
    }
  }
  return out;
}

Corpus record(const std::string& workload, std::uint64_t seed,
              SimDuration window) {
  const Seeds s(seed);
  bench::Testbed bed;
  bed.make_ans(bench::AnsKind::Simulator);
  std::unique_ptr<workload::ClientPopulationNode> population;
  std::unique_ptr<attack::PrefixHopFloodNode> flood;

  if (workload == "ns_name_miss") {
    // table3's NS-name miss row: every request replays the full dance.
    bed.make_guard(guard::Scheme::NsName, 0.0,
                   [&](guard::RemoteGuardNode::Config& gc) {
                     gc.key_seed = s.key;
                   });
    add_driver(bed, workload::DriveMode::NsNameMiss, 256, milliseconds(10),
               s);
  } else if (workload == "blended_flood") {
    // fig_flashcrowd's blended scenario on a 4-shard guard, with the
    // population rate raised so legitimate packets are a large share.
    bed.make_guard(guard::Scheme::ModifiedDns, 0.0,
                   [&](guard::RemoteGuardNode::Config& gc) {
                     gc.key_seed = s.key;
                     gc.rl1.max_buckets = 1 << 20;
                     gc.rl2.max_hosts = 1 << 20;
                     gc.num_shards = 4;
                   });
    workload::ClientPopulationNode::Config pc;
    pc.population.num_clients = 1000000;
    pc.population.base_rate = 150e3;
    pc.population.prefix_base = net::Ipv4Address(100, 0, 0, 0);
    pc.population.prefix_len = 8;
    pc.population.cookie_key_seed = s.key;
    pc.population.seed = s.population;
    pc.target = {bench::kAnsIp, net::kDnsPort};
    population = std::make_unique<workload::ClientPopulationNode>(
        bed.sim, "population", pc);
    flood = std::make_unique<attack::PrefixHopFloodNode>(
        bed.sim, "prefix-hop-flood",
        attack::FloodNodeBase::Config{
            .own_address = net::Ipv4Address(10, 9, 9, 9),
            .target = {bench::kAnsIp, net::kDnsPort},
            .rate = 100e3,
            .seed = s.flood,
            .qname_base = "www.foo.com."},
        attack::PrefixHopFloodNode::HopConfig{
            .prefix_base = net::Ipv4Address(10, 200, 0, 0),
            .prefix_span = 1 << 12,
            .num_prefixes = 32,
            .hop_interval = milliseconds(250),
            .random_txt_cookie = true});
  } else if (workload == "tcp_crowd") {
    // fig7a's high-concurrency point, reached through the UDP truncation
    // redirect so both halves of the TCP scheme run.
    bed.make_guard(guard::Scheme::TcpRedirect, 0.0,
                   [&](guard::RemoteGuardNode::Config& gc) {
                     gc.key_seed = s.key;
                   });
    add_driver(bed, workload::DriveMode::TcpWithRedirect, 6000, seconds(5),
               s);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }

  Corpus c;
  c.workload = workload;
  c.seed = seed;
  c.guard_config = bed.guard->config();
  c.end = SimTime{} + window;
  c.arrivals.reserve(static_cast<std::size_t>(window.seconds() * 400e3));

  const sim::Node* guard = bed.guard.get();
  const sim::Node* ans = bed.ans_node();
  const sim::Node* spoofer = flood.get();
  bed.sim.set_tap([&](SimTime now, const sim::Node* from, const sim::Node* to,
                      const net::Packet& p) {
    if (to != guard) return;
    const SimTime at = now + bed.sim.latency_between(from, to);
    if (at > c.end) return;
    const Origin origin = from == spoofer ? Origin::kSpoofer
                          : from == ans   ? Origin::kAns
                                          : Origin::kClient;
    c.arrivals.push_back(Arrival{at, origin, p});
  });

  for (auto& d : bed.drivers) d->start();
  if (population) population->start();
  if (flood) flood->start();
  bed.sim.run_until(c.end);
  c.live_metrics = guard_metrics(bed.sim.metrics());
  bed.sim.clear_tap();
  for (auto& d : bed.drivers) d->stop();
  if (population) population->stop();
  if (flood) flood->stop();

  // Deliveries at one instant keep their scheduling order (the event
  // queue is FIFO at equal timestamps), so a stable sort reproduces the
  // live delivery order.
  std::stable_sort(c.arrivals.begin(), c.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const SimTime prefix_end = SimTime{} + kPrefixWindow;
  c.prefix_digest = h;
  for (const Arrival& a : c.arrivals) {
    h = digest_packet(h, a.at, a.packet);
    if (a.at <= prefix_end) c.prefix_digest = h;
  }
  c.digest = h;
  return c;
}

}  // namespace hostbench
