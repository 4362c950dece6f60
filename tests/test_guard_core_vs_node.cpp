// Differential: one seeded packet stream through a bare guard::Core and
// through a RemoteGuardNode in a Simulator must produce the same emitted
// packets, the same modeled cost and the same guard.* counters. The node
// is the core plus simulator plumbing, so any difference is plumbing
// leaking into the guard's rules.
//
// The stream's clients learn their cookies from what the bare core emits,
// as real clients would: they replay the latest (valid), the first they
// ever got (stale once two key rotations have passed) or a mangled one
// (forged). Arrivals are 100 µs apart, wider than any packet's modeled
// service time, so each packet reaches the node's CPU at its arrival time
// and both sides see the same clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "guard/remote_guard.h"
#include "sim/simulator.h"
#include "tcp/tcp_stack.h"

namespace dnsguard {
namespace {

using guard::Core;
using guard::CookieEngine;
using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);
constexpr SimDuration kSpacing = microseconds(100);
constexpr SimDuration kRotation = milliseconds(40);
constexpr int kPackets = 1500;  // three rotations

// Client groups: 10.0.1.x default scheme (NS-name), 10.0.2.x fabricated
// NS+IP, 10.0.3.x TC redirect then TCP. Any of them may send TXT cookies.
constexpr int kClientsPerGroup = 4;
Ipv4Address client_ip(int group, int k) {
  return Ipv4Address(10, 0, static_cast<std::uint8_t>(group),
                     static_cast<std::uint8_t>(k + 1));
}

Core::Config differential_config(std::size_t shards) {
  Core::Config c;
  c.guard_address = kGuardIp;
  c.ans_address = kAnsIp;
  c.protected_zone = dns::DomainName{};  // a root guard
  c.subnet_base = kSubnetBase;
  c.scheme = Scheme::NsName;
  for (int k = 0; k < kClientsPerGroup; ++k) {
    c.per_source_scheme[client_ip(2, k)] = Scheme::FabricatedNsIp;
    c.per_source_scheme[client_ip(3, k)] = Scheme::TcpRedirect;
  }
  c.key_rotation_interval = kRotation;
  c.num_shards = shards;
  return c;
}

struct Emission {
  Core::Dest dest;
  Bytes wire;
  bool operator==(const Emission&) const = default;
  bool operator<(const Emission& o) const {
    return std::tie(dest, wire) < std::tie(o.dest, o.wire);
  }
};

/// The seeded client population.
class Stream {
 public:
  explicit Stream(std::uint64_t seed)
      : rng_(seed),
        tcp_([this](net::Packet p) { queued_.push_back(std::move(p)); },
             [this] { return now_; },
             tcp::TcpStack::Callbacks{},
             tcp::TcpStack::Options{}) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// The next packet to reach the guard at `now`.
  net::Packet next(SimTime now) {
    now_ = now;
    if (queued_.empty()) generate();
    net::Packet p = std::move(queued_.front());
    queued_.pop_front();
    return p;
  }

  /// Learns from one packet the guard emitted.
  void observe(Core::Dest dest, const net::Packet& p) {
    if (dest == Core::Dest::kAns) {
      if (p.is_udp()) forwarded_.push_back(p);
      return;
    }
    if (p.is_tcp()) {
      tcp_.handle_packet(p);
      if (p.tcp().flags.fin) {
        auto it = tcp_conns_.find(p.tcp().dst_port);
        if (it != tcp_conns_.end()) tcp_.close(it->second);
      }
      return;
    }
    const auto m = dns::Message::decode(BytesView(p.payload));
    if (!m || !m->header.qr) return;
    Client& c = clients_[p.dst_ip.value()];
    for (const auto& rr : m->authority) {
      if (const auto* ns = std::get_if<dns::NsRdata>(&rr.rdata)) {
        learn(c.ns_cookie, c.first_ns_cookie, ns->nsdname);
      }
    }
    for (const auto& rr : m->answers) {
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
        if (rr.name.first_label().starts_with("PR")) {
          learn(c.cookie_addr, c.first_cookie_addr, a->address);
        }
      }
    }
    if (auto cookie = CookieEngine::extract_txt_cookie(*m)) {
      learn(c.txt, c.first_txt, *cookie);
    }
  }

 private:
  struct Client {
    std::optional<dns::DomainName> ns_cookie, first_ns_cookie;
    std::optional<Ipv4Address> cookie_addr, first_cookie_addr;
    std::optional<crypto::Cookie> txt, first_txt;
  };

  template <typename T>
  static void learn(std::optional<T>& latest, std::optional<T>& first,
                    const T& v) {
    latest = v;
    if (!first) first = v;
  }

  /// Latest, first (stale after two rotations) or nullopt (forge one).
  template <typename T>
  std::optional<T> pick(const std::optional<T>& latest,
                        const std::optional<T>& first) {
    switch (rng_.bounded(4)) {
      case 0: return first;
      case 1: return std::nullopt;
      default: return latest;
    }
  }

  std::uint16_t id() { return static_cast<std::uint16_t>(rng_.next()); }

  dns::DomainName site() {
    static constexpr const char* kTlds[] = {"com", "net", "org"};
    return *dns::DomainName::parse("www.site" +
                                   std::to_string(rng_.bounded(50)) + "." +
                                   kTlds[rng_.bounded(3)]);
  }

  void send(Ipv4Address src, Ipv4Address dst, const dns::Message& m) {
    queued_.push_back(net::Packet::make_udp(
        {src, static_cast<std::uint16_t>(1024 + rng_.bounded(60000))},
        {dst, net::kDnsPort}, m.encode()));
  }

  void send_query(Ipv4Address src, dns::DomainName qname,
                  Ipv4Address dst = kAnsIp) {
    send(src, dst,
         dns::Message::query(id(), std::move(qname), dns::RrType::A, false));
  }

  void generate() {
    const int k = static_cast<int>(rng_.bounded(kClientsPerGroup));
    switch (rng_.bounded(9)) {
      case 0: {  // NS-name: a miss, or a cookie query
        const Ipv4Address ip = client_ip(1, k);
        const Client& c = clients_[ip.value()];
        if (!c.ns_cookie || rng_.chance(0.3)) return send_query(ip, site());
        auto cookie = pick(c.ns_cookie, c.first_ns_cookie);
        if (!cookie) {
          cookie = dns::DomainName::parse(
              "PR" + std::to_string(10000000 + rng_.bounded(89999999)) +
              "com");
        }
        return send_query(ip, *cookie);
      }
      case 1: {  // modified DNS: ask for a cookie, or present one
        const Ipv4Address ip = client_ip(1 + static_cast<int>(rng_.bounded(3)),
                                         k);
        const Client& c = clients_[ip.value()];
        dns::Message m =
            dns::Message::query(id(), site(), dns::RrType::A, false);
        std::optional<crypto::Cookie> cookie = crypto::Cookie{};
        if (c.txt && rng_.chance(0.7)) {
          cookie = pick(c.txt, c.first_txt);
          if (!cookie) {
            cookie = *c.txt;
            (*cookie)[rng_.bounded(cookie->size())] ^= 0x5a;
          }
        }
        CookieEngine::attach_txt_cookie(m, *cookie, 0);
        return send(ip, kAnsIp, m);
      }
      case 2: {  // fabricated NS+IP, at the furthest step the client knows
        const Ipv4Address ip = client_ip(2, k);
        const Client& c = clients_[ip.value()];
        const std::uint64_t stage = rng_.bounded(3);
        if (stage == 2 && c.cookie_addr) {
          auto addr = pick(c.cookie_addr, c.first_cookie_addr);
          if (!addr) {
            addr = Ipv4Address(kSubnetBase.value() + 1 +
                               static_cast<std::uint32_t>(rng_.bounded(250)));
          }
          return send_query(ip, site(), *addr);
        }
        if (stage >= 1 && c.ns_cookie) return send_query(ip, *c.ns_cookie);
        return send_query(ip, site());
      }
      case 3: {  // TC redirect over UDP, or the retry over TCP
        const Ipv4Address ip = client_ip(3, k);
        if (rng_.chance(0.5)) return send_query(ip, site());
        const auto port = static_cast<std::uint16_t>(40000 + next_port_++);
        const dns::Message m =
            dns::Message::query(id(), site(), dns::RrType::A, false);
        tcp_conns_[port] = tcp_.connect({ip, port}, {kAnsIp, net::kDnsPort},
                                        BytesView(m.encode()));
        return;
      }
      case 4:
      case 5: {  // the ANS answers a query the guard forwarded
        if (forwarded_.empty()) return send_query(client_ip(1, k), site());
        const std::size_t i = rng_.bounded(forwarded_.size());
        const net::Packet q = forwarded_[i];
        forwarded_.erase(forwarded_.begin() + static_cast<std::ptrdiff_t>(i));
        const dns::Message query = *dns::Message::decode(BytesView(q.payload));
        dns::Message r = dns::Message::response_to(query);
        r.answers.push_back(dns::ResourceRecord::a(
            query.question()->qname,
            Ipv4Address(192, 0, 2, static_cast<std::uint8_t>(k)), 3600));
        queued_.push_back(net::Packet::make_udp({kAnsIp, net::kDnsPort},
                                                q.src(), r.encode()));
        return;
      }
      case 6: {  // an ANS response nothing is waiting for
        const net::SocketAddr to =
            rng_.chance(0.5)
                ? net::SocketAddr{client_ip(1, k), 5353}
                : net::SocketAddr{kGuardIp, static_cast<std::uint16_t>(
                                                20000 + rng_.bounded(40000))};
        dns::Message r = dns::Message::response_to(
            dns::Message::query(id(), site(), dns::RrType::A, false));
        queued_.push_back(net::Packet::make_udp({kAnsIp, net::kDnsPort}, to,
                                                r.encode()));
        return;
      }
      case 7: {  // garbage from a client or the ANS
        Bytes junk(1 + rng_.bounded(20));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng_.next());
        const bool from_ans = rng_.chance(0.3);
        queued_.push_back(net::Packet::make_udp(
            {from_ans ? kAnsIp : client_ip(1, k), net::kDnsPort},
            {from_ans ? client_ip(1, k) : kAnsIp, net::kDnsPort}, junk));
        return;
      }
      default:
        return send_query(client_ip(1, k), site());
    }
  }

  Rng rng_;
  SimTime now_{};
  std::deque<net::Packet> queued_;
  std::map<std::uint32_t, Client> clients_;
  std::vector<net::Packet> forwarded_;
  tcp::TcpStack tcp_;
  std::map<std::uint16_t, tcp::ConnId> tcp_conns_;
  int next_port_ = 0;
};

/// Receives and drops; stands in for the ANS and for every client.
class SinkNode : public sim::Node {
 public:
  using sim::Node::Node;

 protected:
  SimDuration process(const net::Packet&) override { return {}; }
};

struct Outcome {
  std::vector<Emission> bare, node;
  SimDuration bare_cost{}, node_busy{};
  std::map<std::string, std::uint64_t> bare_counters, node_counters;
  std::uint64_t stale_drops = 0, forged_drops = 0, prev_gen = 0;
  std::uint64_t proxied = 0, relayed = 0;
};

Outcome run_both(std::size_t shards, std::uint64_t seed) {
  const Core::Config cfg = differential_config(shards);
  Outcome r;

  obs::MetricsRegistry metrics;
  obs::JourneyTracker journeys;
  obs::TraceRing ring;
  Stream stream(seed);
  std::vector<std::pair<Core::Dest, net::Packet>> fresh;
  Core core(
      cfg,
      [&](Core::Dest d, net::Packet p) {
        r.bare.push_back({d, p.to_wire()});
        fresh.emplace_back(d, std::move(p));
      },
      metrics, journeys, ring);

  sim::Simulator sim;
  SinkNode ans(sim, "ans");
  SinkNode clients(sim, "clients");
  sim.add_route(Ipv4Address(0, 0, 0, 0), 0, &clients);
  RemoteGuardNode node(sim, "guard", cfg, &ans);
  sim.set_tap([&](SimTime, const sim::Node* from, const sim::Node* to,
                  const net::Packet& p) {
    if (from != &node) return;
    r.node.push_back(
        {to == &ans ? Core::Dest::kAns : Core::Dest::kRouted, p.to_wire()});
  });

  SimTime rotation = SimTime{} + kRotation;
  for (int i = 0; i < kPackets; ++i) {
    const SimTime t = SimTime{} + kSpacing * i + microseconds(37);
    for (; rotation <= t; rotation = rotation + kRotation) {
      core.rotate_keys(rotation);
    }
    const net::Packet p = stream.next(t);
    fresh.clear();
    r.bare_cost = r.bare_cost + core.step(p, t);
    for (const auto& [dest, out] : fresh) stream.observe(dest, out);

    sim.run_until(t);
    node.deliver(p);
    sim.run_until(t + microseconds(50));
  }
  r.node_busy = node.stats().busy;

  for (const std::string& name : metrics.counter_names()) {
    r.bare_counters[name] = metrics.find_counter(name)->value();
    const obs::Counter* c = sim.metrics().find_counter(name);
    r.node_counters[name] = c != nullptr ? c->value() : ~0ull;
  }
  const obs::DropCounters& drops = core.drop_counters();
  r.stale_drops = drops.value(obs::DropReason::kStaleKey);
  r.forged_drops = drops.value(obs::DropReason::kBadCookie);
  r.prev_gen = core.guard_stats().verified_prev_gen.value();
  r.proxied = core.guard_stats().proxy_queries.value();
  r.relayed = core.guard_stats().responses_relayed.value();
  return r;
}

void expect_stream_exercised(const Outcome& r) {
  // The stream must reach every path the differential claims to cover.
  EXPECT_GT(r.stale_drops, 0u);
  EXPECT_GT(r.forged_drops, 0u);
  EXPECT_GT(r.prev_gen, 0u);
  EXPECT_GT(r.proxied, 0u);
  EXPECT_GT(r.relayed, 0u);
  EXPECT_EQ(r.bare_counters.at("guard.key_rotations"), 3u);
  EXPECT_GT(r.bare.size(), static_cast<std::size_t>(kPackets) / 2);
}

TEST(GuardCoreVsNode, SameEmissionsInOrderWithOneShard) {
  const Outcome r = run_both(1, 0x5eed);
  expect_stream_exercised(r);
  EXPECT_EQ(r.bare_cost, r.node_busy);
  EXPECT_EQ(r.bare_counters, r.node_counters);
  ASSERT_EQ(r.bare.size(), r.node.size());
  for (std::size_t i = 0; i < r.bare.size(); ++i) {
    ASSERT_EQ(r.bare[i], r.node[i]) << "first difference at emission " << i;
  }
}

TEST(GuardCoreVsNode, SameEmissionMultisetWithFourShards) {
  Outcome r = run_both(4, 0xd1ff);
  expect_stream_exercised(r);
  EXPECT_EQ(r.bare_cost, r.node_busy);
  EXPECT_EQ(r.bare_counters, r.node_counters);
  std::sort(r.bare.begin(), r.bare.end());
  std::sort(r.node.begin(), r.node.end());
  EXPECT_TRUE(r.bare == r.node);
}

}  // namespace
}  // namespace dnsguard
