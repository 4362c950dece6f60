// guard::Core on its own: each scheme's packet exchange driven through
// Core::step with no simulator. This executable links the guard core and
// GTest only, so a simulator dependency creeping into the core fails the
// link rather than a review.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "guard/core.h"
#include "tcp/tcp_stack.h"

namespace dnsguard {
namespace {

using guard::Core;
using guard::CookieEngine;
using guard::Scheme;
using net::Ipv4Address;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);
constexpr Ipv4Address kClientIp(10, 0, 1, 1);
constexpr std::uint16_t kClientPort = 5353;

struct Emitted {
  Core::Dest dest;
  net::Packet packet;
};

/// A Core with its observability sinks and a collecting emit callback.
/// Each step() arrives 100 µs after the previous one.
struct CoreBed {
  obs::MetricsRegistry metrics;
  obs::JourneyTracker journeys;
  obs::TraceRing trace;
  std::vector<Emitted> out;
  Core core;
  SimTime now{};
  SimDuration cost{};

  explicit CoreBed(Scheme scheme) : CoreBed(config(scheme)) {}
  explicit CoreBed(Core::Config config)
      : core(std::move(config),
             [this](Core::Dest d, net::Packet p) {
               out.push_back({d, std::move(p)});
             },
             metrics, journeys, trace) {}

  static Core::Config config(Scheme scheme) {
    Core::Config c;
    c.guard_address = kGuardIp;
    c.ans_address = kAnsIp;
    c.protected_zone = dns::DomainName{};  // a root guard
    c.subnet_base = kSubnetBase;
    c.scheme = scheme;
    return c;
  }

  std::vector<Emitted> step(const net::Packet& p) {
    out.clear();
    now = now + microseconds(100);
    cost = core.step(p, now);
    return std::move(out);
  }
};

dns::DomainName name(std::string_view text) {
  return *dns::DomainName::parse(text);
}

net::Packet query_packet(const dns::Message& m, Ipv4Address dst = kAnsIp) {
  return net::Packet::make_udp({kClientIp, kClientPort}, {dst, net::kDnsPort},
                               m.encode());
}

net::Packet query(std::uint16_t id, std::string_view qname,
                  Ipv4Address dst = kAnsIp) {
  return query_packet(dns::Message::query(id, name(qname), dns::RrType::A,
                                          /*recursion_desired=*/false),
                      dst);
}

/// The ANS's answer to `forwarded`, with one A record for its question.
net::Packet ans_answer(const net::Packet& forwarded) {
  const dns::Message q = *dns::Message::decode(BytesView(forwarded.payload));
  dns::Message r = dns::Message::response_to(q);
  r.answers.push_back(dns::ResourceRecord::a(
      q.question()->qname, Ipv4Address(192, 0, 2, 7), 3600));
  return net::Packet::make_udp({kAnsIp, net::kDnsPort}, forwarded.src(),
                               r.encode());
}

dns::Message decode(const Emitted& e) {
  return *dns::Message::decode(BytesView(e.packet.payload));
}

/// A TCP client stack wired straight to the core: what the core routes
/// comes back to the client, what it sends the ANS is collected.
struct TcpClient {
  CoreBed& bed;
  std::deque<net::Packet> to_guard;
  std::vector<net::Packet> to_ans;
  std::vector<Bytes> received;  // whole DNS messages
  tcp::TcpStack stack;

  explicit TcpClient(CoreBed& b)
      : bed(b),
        stack([this](net::Packet p) { to_guard.push_back(std::move(p)); },
              [this] { return bed.now; },
              tcp::TcpStack::Callbacks{
                  .on_established = {},
                  .on_data =
                      [this](tcp::ConnId, BytesView msg) {
                        received.emplace_back(msg.begin(), msg.end());
                      },
              },
              tcp::TcpStack::Options{}) {}

  void pump() {
    while (!to_guard.empty()) {
      const net::Packet p = std::move(to_guard.front());
      to_guard.pop_front();
      for (Emitted& e : bed.step(p)) {
        if (e.dest == Core::Dest::kAns) {
          to_ans.push_back(std::move(e.packet));
        } else {
          stack.handle_packet(e.packet);
        }
      }
    }
  }

  /// Connects from `port`, sending `message` once connected.
  tcp::ConnId query(std::uint16_t port, const Bytes& message) {
    const tcp::ConnId id = stack.connect(
        {kClientIp, port}, {kAnsIp, net::kDnsPort}, BytesView(message));
    pump();
    return id;
  }
};

TEST(GuardCore, NsNameExchange) {
  CoreBed bed(Scheme::NsName);
  const Core::CostModel& c = bed.core.config().costs;

  // msg 1 -> msg 2: a referral whose NS name carries the cookie.
  auto out = bed.step(query(7, "www.example.com"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kRouted);
  EXPECT_EQ(out[0].packet.dst(), (net::SocketAddr{kClientIp, kClientPort}));
  EXPECT_EQ(out[0].packet.src_ip, kAnsIp);
  const dns::Message referral = decode(out[0]);
  ASSERT_EQ(referral.authority.size(), 1u);
  EXPECT_EQ(referral.authority[0].name, name("com"));
  const auto& fabricated =
      std::get<dns::NsRdata>(referral.authority[0].rdata).nsdname;
  EXPECT_TRUE(fabricated.first_label().starts_with("PR"));
  EXPECT_EQ(bed.cost, c.packet + c.cookie + c.transform + c.packet);

  // msg 3 -> msg 4: the cookie query reaches the ANS as "com.".
  out = bed.step(query(8, fabricated.to_string()));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kAns);
  EXPECT_EQ(out[0].packet.dst_ip, kAnsIp);
  EXPECT_EQ(decode(out[0]).question()->qname, name("com"));

  // msg 5 -> msg 6: the answer comes back under the fabricated name.
  const net::Packet forwarded = out[0].packet;
  out = bed.step(ans_answer(forwarded));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kRouted);
  const dns::Message restored = decode(out[0]);
  EXPECT_EQ(restored.header.id, 8);
  EXPECT_EQ(restored.question()->qname, fabricated);
  ASSERT_EQ(restored.answers.size(), 1u);
  EXPECT_EQ(restored.answers[0].name, fabricated);

  // A guessed cookie is dropped with nothing emitted.
  out = bed.step(query(9, "PR00000000com"));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(bed.core.drop_counters().value(obs::DropReason::kBadCookie), 1u);
  EXPECT_EQ(bed.cost, c.packet + c.cookie + c.drop);

  const guard::GuardStats& s = bed.core.guard_stats();
  EXPECT_EQ(s.cookies_minted, 1u);
  EXPECT_EQ(s.cookie_checks, 2u);
  EXPECT_EQ(s.forwarded_to_ans, 1u);
  EXPECT_EQ(s.responses_relayed, 1u);
  EXPECT_EQ(s.spoofs_dropped, 1u);
  EXPECT_GT(bed.trace.recorded(), 0u);
}

TEST(GuardCore, FabricatedNsIpExchange) {
  CoreBed bed(Scheme::FabricatedNsIp);

  // msg 1 -> msg 2: a fabricated server for the queried name itself.
  auto out = bed.step(query(1, "example.com"));
  ASSERT_EQ(out.size(), 1u);
  const dns::Message referral = decode(out[0]);
  ASSERT_EQ(referral.authority.size(), 1u);
  const dns::DomainName ns =
      std::get<dns::NsRdata>(referral.authority[0].rdata).nsdname;

  // msg 3 -> msg 6: that server's address is the second cookie.
  out = bed.step(query(2, ns.to_string()));
  ASSERT_EQ(out.size(), 1u);
  const dns::Message a_reply = decode(out[0]);
  ASSERT_EQ(a_reply.answers.size(), 1u);
  const Ipv4Address cookie2 =
      std::get<dns::ARdata>(a_reply.answers[0].rdata).address;
  EXPECT_GT(cookie2.value(), kSubnetBase.value());
  EXPECT_LE(cookie2.value(), kSubnetBase.value() + 250);

  // msg 7 -> msg 8: a query to the cookie address goes to the ANS.
  out = bed.step(query(3, "example.com", cookie2));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kAns);
  EXPECT_EQ(out[0].packet.dst_ip, kAnsIp);

  // msg 9 -> msg 10: the answer leaves from the cookie address.
  out = bed.step(ans_answer(out[0].packet));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kRouted);
  EXPECT_EQ(out[0].packet.src_ip, cookie2);
  EXPECT_EQ(out[0].packet.dst_ip, kClientIp);

  // The wrong cookie address is a spoof.
  const Ipv4Address wrong(cookie2.value() == kSubnetBase.value() + 1
                              ? kSubnetBase.value() + 2
                              : kSubnetBase.value() + 1);
  EXPECT_TRUE(bed.step(query(4, "example.com", wrong)).empty());
  EXPECT_EQ(bed.core.guard_stats().spoofs_dropped, 1u);
}

TEST(GuardCore, ModifiedDnsExchange) {
  CoreBed bed(Scheme::ModifiedDns);
  const dns::Message plain =
      dns::Message::query(5, name("www.example.com"), dns::RrType::A, false);

  // msg 2 -> msg 3: an all-zero cookie asks for one.
  dns::Message ask = plain;
  CookieEngine::attach_txt_cookie(ask, crypto::Cookie{}, 0);
  auto out = bed.step(query_packet(ask));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kRouted);
  const auto cookie = CookieEngine::extract_txt_cookie(decode(out[0]));
  ASSERT_TRUE(cookie.has_value());
  EXPECT_FALSE(CookieEngine::is_zero_cookie(*cookie));

  // msg 4 -> msg 5: with the cookie, the query reaches the ANS stripped.
  dns::Message with_cookie = plain;
  CookieEngine::attach_txt_cookie(with_cookie, *cookie, 0);
  out = bed.step(query_packet(with_cookie));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Core::Dest::kAns);
  const dns::Message forwarded = decode(out[0]);
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(forwarded).has_value());
  EXPECT_EQ(forwarded.question()->qname, plain.question()->qname);

  // A forged cookie is dropped.
  crypto::Cookie forged = *cookie;
  forged[0] ^= 0xff;
  dns::Message spoof = plain;
  CookieEngine::attach_txt_cookie(spoof, forged, 0);
  EXPECT_TRUE(bed.step(query_packet(spoof)).empty());
  EXPECT_EQ(bed.core.scheme_counters(Scheme::ModifiedDns).dropped, 1u);
  EXPECT_EQ(bed.core.scheme_counters(Scheme::ModifiedDns).verified, 1u);
}

TEST(GuardCore, TcRedirectThenTcpProxy) {
  CoreBed bed(Scheme::TcpRedirect);
  const dns::Message q =
      dns::Message::query(11, name("www.example.com"), dns::RrType::A, false);

  // The UDP request is answered with TC set, the same size as asked.
  auto out = bed.step(query_packet(q));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(decode(out[0]).header.tc);
  EXPECT_EQ(bed.core.guard_stats().tc_redirects, 1u);

  // The retry over TCP: a client stack wired straight to the core.
  TcpClient client(bed);
  client.query(40000, q.encode());

  // The query left for the ANS as UDP, NATed to the guard.
  ASSERT_EQ(client.to_ans.size(), 1u);
  EXPECT_TRUE(client.to_ans[0].is_udp());
  EXPECT_EQ(client.to_ans[0].src_ip, kGuardIp);
  EXPECT_EQ(bed.core.proxy_connections(), 1u);
  EXPECT_EQ(bed.core.nat_entries(), 1u);

  // The answer returns to the client over its connection.
  for (Emitted& e : bed.step(ans_answer(client.to_ans[0]))) {
    ASSERT_EQ(e.dest, Core::Dest::kRouted);
    client.stack.handle_packet(e.packet);
  }
  client.pump();
  ASSERT_EQ(client.received.size(), 1u);
  const dns::Message answer = *dns::Message::decode(client.received[0]);
  EXPECT_EQ(answer.header.id, 11);
  EXPECT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(bed.core.guard_stats().proxy_queries, 1u);
  EXPECT_EQ(bed.core.nat_entries(), 0u);
}

TEST(GuardCore, EmptyTcpMessageIsMalformed) {
  CoreBed bed(Scheme::TcpRedirect);
  TcpClient client(bed);
  // An empty first message means none, so it is sent once connected.
  const tcp::ConnId id = client.query(40000, {});
  EXPECT_TRUE(client.stack.send_message(id, {}));
  client.pump();
  EXPECT_TRUE(client.to_ans.empty());
  EXPECT_EQ(bed.core.guard_stats().malformed, 1u);
  EXPECT_EQ(bed.core.drop_counters().value(obs::DropReason::kMalformed), 1u);
}

/// A guard whose Rate-Limiter1 lets each requester through exactly once.
Core::Config one_rl1_token(Scheme scheme) {
  Core::Config c = CoreBed::config(scheme);
  c.rl1.per_address_burst = 1;
  c.rl1.heavy_hitter_threshold = 0;
  return c;
}

TEST(GuardCore, NsNameLabelOverflowRedirectChargesRl1Once) {
  // No room for the cookie beside a 60-byte label: the referral falls
  // back to the TC redirect, which must not charge Rate-Limiter1 again.
  CoreBed bed(one_rl1_token(Scheme::NsName));
  const auto out = bed.step(query(12, "example." + std::string(60, 't')));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(decode(out[0]).header.tc);
  EXPECT_EQ(bed.core.guard_stats().rl1_throttled, 0u);
}

TEST(GuardCore, FabricatedRootQueryRedirectChargesRl1Once) {
  CoreBed bed(one_rl1_token(Scheme::FabricatedNsIp));
  const auto out = bed.step(query(13, "."));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(decode(out[0]).header.tc);
  EXPECT_EQ(bed.core.guard_stats().rl1_throttled, 0u);
}

}  // namespace
}  // namespace dnsguard
