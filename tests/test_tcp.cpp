// Mini-TCP: handshake, message transfer, teardown, SYN cookies, and the
// DNS-over-TCP framing the stack does for its owners.
//
// Two TcpStacks are wired back-to-back through an in-memory "wire" that
// delivers packets synchronously (loopback) or through a queue the test
// drains manually (to model loss).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "tcp/tcp_stack.h"

namespace dnsguard::tcp {
namespace {

using net::Ipv4Address;
using net::Packet;
using net::SocketAddr;

struct Harness {
  SimTime clock{};
  std::deque<Packet> wire_to_server;
  std::deque<Packet> wire_to_client;
  std::unique_ptr<TcpStack> client;
  std::unique_ptr<TcpStack> server;

  std::vector<ConnId> client_established, server_established;
  std::vector<std::pair<ConnId, Bytes>> client_data, server_data;
  std::vector<ConnId> client_closed, server_closed;
  bool server_aborts_on_data = false;

  explicit Harness(bool syn_cookies = false) {
    client = std::make_unique<TcpStack>(
        [this](Packet p) { wire_to_server.push_back(std::move(p)); },
        [this] { return clock; },
        TcpStack::Callbacks{
            [this](ConnId c) { client_established.push_back(c); },
            [this](ConnId c, BytesView d) {
              client_data.emplace_back(c, Bytes(d.begin(), d.end()));
            },
            [this](ConnId c) { client_closed.push_back(c); }},
        TcpStack::Options{});
    server = std::make_unique<TcpStack>(
        [this](Packet p) { wire_to_client.push_back(std::move(p)); },
        [this] { return clock; },
        TcpStack::Callbacks{
            [this](ConnId c) { server_established.push_back(c); },
            [this](ConnId c, BytesView d) {
              server_data.emplace_back(c, Bytes(d.begin(), d.end()));
              if (server_aborts_on_data) server->abort(c);
            },
            [this](ConnId c) { server_closed.push_back(c); }},
        TcpStack::Options{.syn_cookies = syn_cookies});
    server->listen(53);
  }

  /// Delivers queued packets until both directions are quiet.
  void pump(int max_rounds = 64) {
    for (int i = 0; i < max_rounds; ++i) {
      if (wire_to_server.empty() && wire_to_client.empty()) return;
      while (!wire_to_server.empty()) {
        Packet p = std::move(wire_to_server.front());
        wire_to_server.pop_front();
        server->handle_packet(p);
      }
      while (!wire_to_client.empty()) {
        Packet p = std::move(wire_to_client.front());
        wire_to_client.pop_front();
        client->handle_packet(p);
      }
    }
  }

  static SocketAddr client_addr() { return {Ipv4Address(10, 0, 0, 2), 4000}; }
  static SocketAddr server_addr() { return {Ipv4Address(10, 0, 0, 1), 53}; }

  /// An established connection; returns the client's handle.
  ConnId establish() {
    const ConnId c = client->connect(client_addr(), server_addr());
    pump();
    return c;
  }

  /// The client's framed messages as one in-order byte stream, taken off
  /// the wire unsent: `seq` receives the sequence number of its first byte.
  Bytes client_stream(ConnId c, const std::vector<Bytes>& messages,
                      std::uint32_t& seq) {
    Bytes stream;
    for (const Bytes& m : messages) {
      EXPECT_TRUE(client->send_message(c, BytesView(m)));
    }
    seq = wire_to_server.front().tcp().seq;
    for (const Packet& p : wire_to_server) {
      stream.insert(stream.end(), p.payload.begin(), p.payload.end());
    }
    wire_to_server.clear();
    return stream;
  }

  /// Delivers stream bytes [from, to) to the server as one data segment.
  void feed(const Bytes& stream, std::uint32_t seq, std::size_t from,
            std::size_t to) {
    const auto b = stream.begin();
    server->handle_packet(Packet::make_tcp(
        client_addr(), server_addr(), net::TcpFlags{.psh = true, .ack = true},
        seq + static_cast<std::uint32_t>(from), 0,
        Bytes(b + static_cast<std::ptrdiff_t>(from),
              b + static_cast<std::ptrdiff_t>(to))));
    wire_to_client.clear();  // the server's ACKs
  }
};

TEST(TcpHandshake, EstablishesBothSides) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  ASSERT_EQ(h.client_established.size(), 1u);
  EXPECT_EQ(h.client_established[0], c);
  ASSERT_EQ(h.server_established.size(), 1u);
  EXPECT_EQ(h.client->connection_count(), 1u);
  EXPECT_EQ(h.server->connection_count(), 1u);
}

TEST(TcpHandshake, SynToClosedPortGetsRst) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(),
                               {Ipv4Address(10, 0, 0, 1), 99});
  h.pump();
  EXPECT_EQ(h.client_established.size(), 0u);
  EXPECT_EQ(h.client_closed.size(), 1u);
  EXPECT_EQ(h.client_closed[0], c);
  EXPECT_EQ(h.client->connection_count(), 0u);
}

TEST(TcpDropAccounting, StraySegmentsCharged) {
  // Every discarded segment must land on a DropReason: segments matching no
  // listener or connection are charged to kStraySegment (and RST'd away).
  Harness h;
  obs::DropCounters drops;
  h.server->set_drop_counters(&drops);

  // SYN to a non-listening port.
  h.client->connect(Harness::client_addr(), {Ipv4Address(10, 0, 0, 1), 99});
  h.pump();
  EXPECT_EQ(drops.value(obs::DropReason::kStraySegment), 1u);

  // Data segment for a connection the server has already torn down.
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  ASSERT_EQ(h.server_established.size(), 1u);
  h.server->abort(h.server_established[0]);
  h.wire_to_client.clear();  // drop the RST so the client still believes
                             // the connection is up
  EXPECT_TRUE(h.client->send_message(c, BytesView(Bytes{'h', 'i'})));
  h.pump();
  EXPECT_EQ(drops.value(obs::DropReason::kStraySegment), 2u);
  EXPECT_TRUE(h.server_data.empty());
}

TEST(TcpData, RoundTripBothDirections) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  Bytes req{'h', 'i'};
  EXPECT_TRUE(h.client->send_message(c, BytesView(req)));
  h.pump();
  ASSERT_EQ(h.server_data.size(), 1u);
  EXPECT_EQ(h.server_data[0].second, req);

  ConnId sc = h.server_established[0];
  Bytes resp{'y', 'o', '!'};
  EXPECT_TRUE(h.server->send_message(sc, BytesView(resp)));
  h.pump();
  ASSERT_EQ(h.client_data.size(), 1u);
  EXPECT_EQ(h.client_data[0].second, resp);
}

TEST(TcpData, SendOnUnestablishedFails) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  // No pump: still SYN_SENT.
  EXPECT_FALSE(h.client->send_message(c, BytesView(Bytes{1})));
}

TEST(TcpData, SequenceNumbersAdvanceWithData) {
  // An n-byte message is n + 2 bytes of stream: the length prefix counts.
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes(10, 'a')));
  const std::uint32_t first = h.wire_to_server.back().tcp().seq;
  h.pump();
  h.client->send_message(c, BytesView(Bytes(5, 'b')));
  EXPECT_EQ(h.wire_to_server.back().tcp().seq, first + 12);
  h.pump();
  ASSERT_EQ(h.server_data.size(), 2u);
  EXPECT_EQ(h.server_data[0].second.size(), 10u);
  EXPECT_EQ(h.server_data[1].second.size(), 5u);
}

TEST(TcpData, DuplicateSegmentIgnored) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes{1, 2, 3}));
  ASSERT_FALSE(h.wire_to_server.empty());
  Packet dup = h.wire_to_server.front();  // copy the data segment
  h.pump();
  EXPECT_EQ(h.server_data.size(), 1u);
  h.server->handle_packet(dup);  // replay
  h.pump();
  EXPECT_EQ(h.server_data.size(), 1u);  // not delivered twice
}

TEST(TcpClose, GracefulFinBothSides) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  ConnId sc = h.server_established[0];
  h.client->close(c);
  h.pump();
  // Server saw FIN, is in CLOSE_WAIT; now server closes too.
  h.server->close(sc);
  h.pump();
  EXPECT_EQ(h.client->connection_count(), 0u);
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.client_closed.size(), 1u);
  EXPECT_EQ(h.server_closed.size(), 1u);
}

TEST(TcpClose, AbortSendsRst) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->abort(c);
  h.pump();
  EXPECT_EQ(h.client->connection_count(), 0u);
  EXPECT_EQ(h.server->connection_count(), 0u);  // RST tore the peer down
  EXPECT_GE(h.server_closed.size(), 1u);
}

TEST(TcpReap, IdleConnectionsRemoved) {
  Harness h;
  h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.clock = h.clock + seconds(10);
  EXPECT_EQ(h.server->reap(seconds(5), SimDuration{}), 1u);
  EXPECT_EQ(h.server->connection_count(), 0u);
}

TEST(TcpReap, LifetimeLimitEnforced) {
  // §III.C: connections alive longer than 5x RTT are removed.
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.clock = h.clock + milliseconds(3);
  h.client->send_message(c, BytesView(Bytes{1}));  // keep it non-idle
  h.pump();
  EXPECT_EQ(h.server->reap(SimDuration{}, milliseconds(2)), 1u);
}

TEST(SynCookies, StatelessUntilAckArrives) {
  Harness h(/*syn_cookies=*/true);
  h.client->connect(Harness::client_addr(), Harness::server_addr());
  // Deliver only the SYN.
  ASSERT_EQ(h.wire_to_server.size(), 1u);
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  // Server must keep NO state after SYN (that's the whole point).
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_sent, 1u);
  // Complete the handshake.
  h.pump();
  EXPECT_EQ(h.server->connection_count(), 1u);
  EXPECT_EQ(h.server->stats().syn_cookies_accepted, 1u);
  ASSERT_EQ(h.server_established.size(), 1u);
}

TEST(SynCookies, DataFlowsAfterCookieHandshake) {
  Harness h(/*syn_cookies=*/true);
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes{'q'}));
  h.pump();
  ASSERT_EQ(h.server_data.size(), 1u);
  EXPECT_EQ(h.server_data[0].second, (Bytes{'q'}));
}

TEST(SynCookies, ForgedAckRejected) {
  Harness h(/*syn_cookies=*/true);
  // An attacker skips the SYN and fires a bare ACK with a made-up ack
  // number (blind spoofing): must be rejected with a RST, no state.
  Packet forged = Packet::make_tcp({Ipv4Address(6, 6, 6, 6), 1234},
                                   Harness::server_addr(),
                                   net::TcpFlags{.ack = true},
                                   /*seq=*/1000, /*ack=*/0xdeadbeef);
  h.server->handle_packet(forged);
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_rejected, 1u);
  EXPECT_GE(h.server->stats().resets_sent, 1u);
}

TEST(SynCookies, StaleCookieRejected) {
  Harness h(/*syn_cookies=*/true);
  h.client->connect(Harness::client_addr(), Harness::server_addr());
  // SYN reaches server; SYN-ACK reaches client; client emits final ACK.
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  h.client->handle_packet(h.wire_to_client.front());
  h.wire_to_client.pop_front();
  ASSERT_FALSE(h.wire_to_server.empty());
  // Let far more than two cookie time slots pass before the ACK lands.
  h.clock = h.clock + seconds(60);
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_rejected, 1u);
}

TEST(SynCookieGenerator, ValidatesOwnCookies) {
  SynCookieGenerator gen(1234);
  SocketAddr c{Ipv4Address(10, 0, 0, 2), 4000};
  SocketAddr s{Ipv4Address(10, 0, 0, 1), 53};
  SimTime t{1000000};
  std::uint32_t isn = gen.make(c, s, 555, t);
  EXPECT_TRUE(gen.validate(c, s, 555, isn, t));
  EXPECT_TRUE(gen.validate(c, s, 555, isn, t + seconds(7)));
  EXPECT_FALSE(gen.validate(c, s, 556, isn, t));        // wrong client ISN
  EXPECT_FALSE(gen.validate(c, s, 555, isn ^ 1, t));    // corrupted cookie
  SocketAddr other{Ipv4Address(10, 0, 0, 3), 4000};
  EXPECT_FALSE(gen.validate(other, s, 555, isn, t));    // wrong client
}

TEST(TcpFraming, FirstMessageLeavesWithTheHandshakeAck) {
  Harness h;
  const Bytes msg{'a', 'b', 'c', 'd'};
  h.client->connect(Harness::client_addr(), Harness::server_addr(),
                    BytesView(msg));
  h.server->handle_packet(h.wire_to_server.front());  // the SYN
  h.wire_to_server.clear();
  h.client->handle_packet(h.wire_to_client.front());  // the SYN-ACK
  ASSERT_EQ(h.wire_to_server.size(), 2u);
  EXPECT_TRUE(h.wire_to_server[0].payload.empty());  // the ACK
  EXPECT_EQ(h.wire_to_server[1].payload, (Bytes{0, 4, 'a', 'b', 'c', 'd'}));
  h.pump();
  ASSERT_EQ(h.server_data.size(), 1u);
  EXPECT_EQ(h.server_data[0].second, msg);
}

TEST(TcpFraming, SplitAtEveryOffsetArrivesOnceIntact) {
  Bytes msg(300, 'x');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i);
  }
  // Splits at 1 and 2 fall inside the length prefix.
  for (std::size_t split = 1; split < msg.size() + 2; ++split) {
    Harness h;
    const ConnId c = h.establish();
    std::uint32_t seq = 0;
    const Bytes stream = h.client_stream(c, {msg}, seq);
    h.feed(stream, seq, 0, split);
    EXPECT_TRUE(h.server_data.empty()) << "split " << split;
    h.feed(stream, seq, split, stream.size());
    ASSERT_EQ(h.server_data.size(), 1u) << "split " << split;
    EXPECT_EQ(h.server_data[0].second, msg) << "split " << split;
  }
}

TEST(TcpFraming, BackToBackMessagesInOneSegmentArriveInOrder) {
  Harness h;
  const ConnId c = h.establish();
  const std::vector<Bytes> msgs{{'1'}, {'2', '2'}, {'3', '3', '3'}};
  std::uint32_t seq = 0;
  const Bytes stream = h.client_stream(c, msgs, seq);
  h.feed(stream, seq, 0, stream.size());
  ASSERT_EQ(h.server_data.size(), 3u);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(h.server_data[i].second, msgs[i]);
  }
}

TEST(TcpFraming, ZeroLengthFrameArrivesAsAnEmptyMessage) {
  Harness h;
  const ConnId c = h.establish();
  EXPECT_TRUE(h.client->send_message(c, BytesView()));
  h.pump();
  ASSERT_EQ(h.server_data.size(), 1u);
  EXPECT_TRUE(h.server_data[0].second.empty());
}

TEST(TcpFraming, LargestMessageIsReassembled) {
  Harness h;
  const ConnId c = h.establish();
  Bytes msg(65535);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_FALSE(h.client->send_message(c, BytesView(Bytes(65536))));
  std::uint32_t seq = 0;
  const Bytes stream = h.client_stream(c, {msg}, seq);
  for (std::size_t at = 0; at < stream.size(); at += 1460) {
    h.feed(stream, seq, at, std::min(stream.size(), at + 1460));
  }
  ASSERT_EQ(h.server_data.size(), 1u);
  EXPECT_EQ(h.server_data[0].second, msg);
}

TEST(TcpFraming, AbortFromOnDataStopsPipelinedDelivery) {
  // Split 0 delivers straight from the segment; split 1 first parks a
  // byte, so the messages come from the connection's reassembly buffer.
  for (std::size_t split : {0, 1}) {
    Harness h;
    const ConnId c = h.establish();
    h.server_aborts_on_data = true;
    std::uint32_t seq = 0;
    const Bytes stream =
        h.client_stream(c, {{'a'}, {'b', 'b'}, {'c', 'c', 'c'}}, seq);
    if (split > 0) h.feed(stream, seq, 0, split);
    h.feed(stream, seq, split, stream.size());
    ASSERT_EQ(h.server_data.size(), 1u) << "split " << split;
    EXPECT_EQ(h.server_data[0].second, (Bytes{'a'}));
    EXPECT_EQ(h.server->connection_count(), 0u);
    EXPECT_EQ(h.server_closed.size(), 1u);
  }
}

}  // namespace
}  // namespace dnsguard::tcp
