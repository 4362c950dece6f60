// The guard's UDP packet path, and the TCP stack's receive path under its
// proxy, perform no heap allocation once warm.
//
// A counting global operator new (this executable only) measures every
// allocation made while RemoteGuardNode::process() runs — decode, cookie
// mint/verify, rewrite, encode and the sends it queues. Each test plays
// one scheme's cookie dance as scripted packets against a guard whose ANS
// and requester are sinks, warms every scratch buffer and pool up, then
// requires zero allocations over 1000 more rounds. The same counter also
// pins the guard's construction footprint: it follows occupancy, not the
// configured table capacities.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/pool.h"
#include "guard/remote_guard.h"
#include "sim/simulator.h"
#include "tcp/tcp_stack.h"

namespace {

std::uint64_t g_allocations = 0;
std::uint64_t g_allocated_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  g_allocated_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  g_allocated_bytes += n;
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form is replaced, so each allocation is counted and
// every block is freed by the allocator that made it.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dnsguard {
namespace {

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);
constexpr Ipv4Address kLrsIp(10, 0, 1, 1);
constexpr std::uint16_t kLrsPort = 5353;
constexpr int kWarmupRounds = 100;
constexpr int kCountedRounds = 1000;

class SinkNode : public sim::Node {
 public:
  SinkNode(sim::Simulator& s, std::string name)
      : sim::Node(s, std::move(name)) {}
  std::uint64_t received = 0;

 protected:
  SimDuration process(const net::Packet&) override {
    ++received;
    return {};
  }
};

/// Counts the allocations made inside the guard's own packet handler.
class CountedGuard : public RemoteGuardNode {
 public:
  using RemoteGuardNode::RemoteGuardNode;
  std::uint64_t allocations = 0;
  std::uint64_t packets = 0;

 protected:
  SimDuration process(const net::Packet& packet) override {
    const std::uint64_t before = g_allocations;
    const SimDuration cost = RemoteGuardNode::process(packet);
    allocations += g_allocations - before;
    ++packets;
    return cost;
  }
};

struct Bed {
  sim::Simulator sim;
  SinkNode ans{sim, "ans"};
  SinkNode lrs{sim, "lrs"};
  std::unique_ptr<CountedGuard> guard;

  explicit Bed(Scheme scheme) {
    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};  // a root guard
    gc.subnet_base = kSubnetBase;
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    guard = std::make_unique<CountedGuard>(sim, "guard", gc, &ans);
    guard->install(/*subnet_prefix_len=*/24);
    sim.add_host_route(kLrsIp, &lrs);
    sim.set_default_latency(microseconds(200));
  }

  /// Hands the guard one UDP datagram whose payload is drawn from the
  /// buffer pool (as an encoded packet's would be), then runs the
  /// simulator until every resulting packet has landed.
  void inject(net::SocketAddr from, net::SocketAddr to, const Bytes& wire) {
    Bytes payload = BufferPool::local().acquire(wire.size());
    payload.assign(wire.begin(), wire.end());
    guard->deliver(net::Packet::make_udp(from, to, std::move(payload)));
    sim.run_all();
  }

  template <typename Round>
  void play(Round&& round) {
    for (int i = 0; i < kWarmupRounds; ++i) round();
    guard->allocations = 0;
    guard->packets = 0;
    for (int i = 0; i < kCountedRounds; ++i) round();
  }

  void expect_allocation_free(std::uint64_t packets_per_round) const {
    EXPECT_EQ(guard->packets, packets_per_round * kCountedRounds);
    EXPECT_EQ(guard->allocations, 0u)
        << guard->allocations << " allocations over " << guard->packets
        << " packets";
  }
};

dns::DomainName name(std::string_view text) {
  return *dns::DomainName::parse(text);
}

Bytes query(std::string_view qname) {
  return dns::Message::query(0x4242, name(qname), dns::RrType::A, false)
      .encode();
}

TEST(GuardAllocFree, NsNameDanceAllocatesNothing) {
  Bed bed(Scheme::NsName);
  const auto label =
      bed.guard->cookie_engine().make_cookie_label(kLrsIp, "com");
  ASSERT_TRUE(label.has_value());
  const Bytes msg1 = query("www.example.com");
  const Bytes msg3 = query(label->view());
  // The root server's referral for the restored question "com.".
  dns::Message referral =
      dns::Message::response_to(*dns::Message::decode(query("com")));
  referral.authority.push_back(
      dns::ResourceRecord::ns(name("com"), name("a.gtld-servers.net"), 60));
  referral.additional.push_back(dns::ResourceRecord::a(
      name("a.gtld-servers.net"), Ipv4Address(192, 5, 6, 30), 60));
  const Bytes ans_reply = referral.encode();

  const net::SocketAddr lrs{kLrsIp, kLrsPort};
  const net::SocketAddr ans{kAnsIp, net::kDnsPort};
  bed.play([&] {
    // msg 1 -> fabricated referral (msg 2).
    bed.inject(lrs, ans, msg1);
    // msg 3 -> restored question to the ANS.
    bed.inject(lrs, ans, msg3);
    // ANS reply -> the cookie name's A records (msg 6).
    bed.inject(ans, lrs, ans_reply);
  });

  bed.expect_allocation_free(/*packets_per_round=*/3);
  const auto& st = bed.guard->guard_stats();
  const std::uint64_t rounds = kWarmupRounds + kCountedRounds;
  EXPECT_EQ(st.fabricated_referrals, rounds);
  EXPECT_EQ(st.forwarded_to_ans, rounds);
  EXPECT_EQ(st.responses_relayed, rounds);
  EXPECT_EQ(st.spoofs_dropped, 0u);
  EXPECT_EQ(bed.ans.received, rounds);
  EXPECT_EQ(bed.lrs.received, 2 * rounds);
}

TEST(GuardAllocFree, FabricatedNsIpDanceAllocatesNothing) {
  Bed bed(Scheme::FabricatedNsIp);
  const auto label =
      bed.guard->cookie_engine().make_cookie_label(kLrsIp, "www");
  ASSERT_TRUE(label.has_value());
  const Ipv4Address cookie2 =
      bed.guard->cookie_engine().make_cookie_address(kLrsIp, kSubnetBase, 250);
  const Bytes msg1 = query("www.example.com");
  const Bytes msg3 = query(std::string(label->view()).append(".example.com"));
  dns::Message answer = dns::Message::response_to(*dns::Message::decode(msg1));
  answer.header.aa = true;
  answer.answers.push_back(dns::ResourceRecord::a(
      name("www.example.com"), Ipv4Address(192, 0, 2, 80), 60));
  const Bytes ans_reply = answer.encode();

  const net::SocketAddr lrs{kLrsIp, kLrsPort};
  const net::SocketAddr ans{kAnsIp, net::kDnsPort};
  bed.play([&] {
    // msg 1 -> a fabricated NS for the name itself (msg 2).
    bed.inject(lrs, ans, msg1);
    // msg 3 -> COOKIE2 as the fabricated NS's address (msg 6).
    bed.inject(lrs, ans, msg3);
    // msg 7, sent to COOKIE2 -> forwarded to the ANS (msg 8).
    bed.inject(lrs, {cookie2, net::kDnsPort}, msg1);
    // ANS reply -> relayed from COOKIE2 (msg 10).
    bed.inject(ans, lrs, ans_reply);
  });

  bed.expect_allocation_free(/*packets_per_round=*/4);
  const auto& st = bed.guard->guard_stats();
  const std::uint64_t rounds = kWarmupRounds + kCountedRounds;
  EXPECT_EQ(st.fabricated_referrals, rounds);
  EXPECT_EQ(st.cookie_replies, rounds);
  EXPECT_EQ(st.forwarded_to_ans, rounds);
  EXPECT_EQ(st.responses_relayed, rounds);
  EXPECT_EQ(st.spoofs_dropped, 0u);
  EXPECT_EQ(bed.lrs.received, 3 * rounds);
}

TEST(GuardAllocFree, TcRedirectAllocatesNothing) {
  Bed bed(Scheme::TcpRedirect);
  const Bytes msg1 = query("www.example.com");
  bed.play([&] {
    bed.inject({kLrsIp, kLrsPort}, {kAnsIp, net::kDnsPort}, msg1);
  });

  bed.expect_allocation_free(/*packets_per_round=*/1);
  EXPECT_EQ(bed.guard->guard_stats().tc_redirects,
            std::uint64_t{kWarmupRounds + kCountedRounds});
  EXPECT_EQ(bed.lrs.received, std::uint64_t{kWarmupRounds + kCountedRounds});
}

TEST(GuardAllocFree, PipelinedTcpSegmentAllocatesNothing) {
  // A segment framing two whole queries on an established server-side
  // connection: both are handed out straight from the segment.
  const net::SocketAddr client{kLrsIp, 40000};
  const net::SocketAddr server{kAnsIp, net::kDnsPort};
  net::TcpHeader last_sent;
  std::uint64_t messages = 0;
  tcp::TcpStack stack([&](net::Packet p) { last_sent = p.tcp(); },
                      [] { return SimTime{}; },
                      tcp::TcpStack::Callbacks{
                          .on_established = {},
                          .on_data = [&](tcp::ConnId,
                                         BytesView) { ++messages; },
                      },
                      tcp::TcpStack::Options{});
  stack.listen(net::kDnsPort);
  std::uint32_t seq = 1000;
  stack.handle_packet(net::Packet::make_tcp(
      client, server, net::TcpFlags{.syn = true}, seq++, 0));
  const std::uint32_t ack = last_sent.seq + 1;
  stack.handle_packet(net::Packet::make_tcp(
      client, server, net::TcpFlags{.ack = true}, seq, ack));
  ASSERT_EQ(stack.connection_count(), 1u);

  const Bytes q = query("www.example.com");
  Bytes two;
  for (int i = 0; i < 2; ++i) {
    two.push_back(static_cast<std::uint8_t>(q.size() >> 8));
    two.push_back(static_cast<std::uint8_t>(q.size()));
    two.insert(two.end(), q.begin(), q.end());
  }
  // Built up front: making a packet copies its payload.
  std::vector<net::Packet> segments;
  for (int i = 0; i < kWarmupRounds + kCountedRounds; ++i) {
    segments.push_back(net::Packet::make_tcp(
        client, server, net::TcpFlags{.psh = true, .ack = true}, seq, ack,
        two));
    seq += static_cast<std::uint32_t>(two.size());
  }
  std::uint64_t allocations = 0;
  for (int i = 0; i < kWarmupRounds + kCountedRounds; ++i) {
    const std::uint64_t before = g_allocations;
    stack.handle_packet(segments[static_cast<std::size_t>(i)]);
    if (i >= kWarmupRounds) allocations += g_allocations - before;
  }
  EXPECT_EQ(messages, 2u * (kWarmupRounds + kCountedRounds));
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations over " << kCountedRounds << " segments";
}

/// Bytes allocated while constructing a 4-shard guard whose per-source
/// tables are all configured for `capacity` entries.
std::uint64_t guard_construction_bytes(std::size_t capacity) {
  sim::Simulator sim;
  SinkNode ans{sim, "ans"};
  RemoteGuardNode::Config gc;
  gc.guard_address = kGuardIp;
  gc.ans_address = kAnsIp;
  gc.subnet_base = kSubnetBase;
  gc.num_shards = 4;
  gc.rl1.max_buckets = capacity;
  gc.rl1.tracker_capacity = capacity;
  gc.rl2.max_hosts = capacity;
  gc.pending_table_capacity = capacity;
  gc.nat_table_capacity = capacity;
  gc.conn_bucket_capacity = capacity;
  gc.proxy_max_connections = capacity;
  const std::uint64_t before = g_allocated_bytes;
  auto guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
  return g_allocated_bytes - before;
}

TEST(GuardAllocFree, ConstructionBytesDoNotGrowWithTableCapacity) {
  // Every table's probe index used to be allocated for its configured
  // capacity up front: 2^20-entry limiters cost 16 MB before any packet.
  const std::uint64_t small = guard_construction_bytes(std::size_t{1} << 14);
  const std::uint64_t large = guard_construction_bytes(std::size_t{1} << 20);
  EXPECT_LE(large, small) << "construction at 2^14: " << small
                          << " B, at 2^20: " << large << " B";
}

}  // namespace
}  // namespace dnsguard
