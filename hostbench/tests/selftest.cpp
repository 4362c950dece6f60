// Self-tests of the host-clock benchmark's own machinery: the reported
// statistics, the verdict audit, the replay-fidelity check and the seed
// plumbing.
#include <gtest/gtest.h>

#include "corpus.h"
#include "dns/message.h"
#include "guard/cookie_engine.h"
#include "replay.h"
#include "stats.h"

using namespace hostbench;
using namespace dnsguard;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, MedianAcrossRepetitionsIgnoresOneOutlier) {
  EXPECT_EQ(median({1000.0, 1010.0, 5000.0, 990.0, 1005.0}), 1005.0);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  const TailPercentile t = tail_percentile(one_to(1000), 99.0, 10);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Stats, TailPercentileStepsDownWhenTooFewSamples) {
  // p99 of 500 samples has only 5 beyond it; p98 has 10.
  const TailPercentile t = tail_percentile(one_to(500), 99.0, 10);
  EXPECT_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.value, 490.0);
  EXPECT_EQ(t.samples, 500u);
  EXPECT_GE(t.beyond, 10u);
}

TEST(Stats, TailPercentileOfTinySampleFallsBackToMedian) {
  const TailPercentile t = tail_percentile(one_to(5), 99.0, 10);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 3.0);
  EXPECT_LT(t.beyond, 10u);
}

TEST(Stats, ChunkCostTakesEachChunksFastestRepetition) {
  const ChunkCosts c = chunk_costs({{10, 20, 30}, {12, 18, 33}, {11, 25, 31}});
  EXPECT_EQ(c.fastest, (std::vector<double>{10, 18, 30}));
  EXPECT_DOUBLE_EQ(c.pkts_per_s, 1e9 * 3 / 58.0);
  EXPECT_EQ(c.p50, 18.0);
  EXPECT_EQ(c.tail.samples, 3u);
}

TEST(Stats, ChunkTailIgnoresSlowRepetitionsAndBursts) {
  // 1000 chunks: 980 cost 100 ns/pkt, the last 20 cost 300 (the workload's
  // own tail). One repetition runs 2x slow throughout; another hits a
  // burst on 30 ordinary chunks.
  std::vector<double> base(1000, 100.0);
  for (std::size_t k = 980; k < 1000; ++k) base[k] = 300.0;
  std::vector<double> slow = base, burst = base;
  for (double& v : slow) v *= 2;
  for (std::size_t k = 100; k < 130; ++k) burst[k] = 400.0;
  const ChunkCosts c = chunk_costs({base, slow, burst, base});
  EXPECT_EQ(c.p50, 100.0);
  EXPECT_EQ(c.tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(c.tail.value, 300.0);
  EXPECT_EQ(c.tail.samples, 1000u);
  EXPECT_EQ(c.tail.beyond, 10u);
}

// --- verdict audit -----------------------------------------------------------

const net::Ipv4Address kGuard{10, 1, 1, 253};
const net::Ipv4Address kAns{10, 1, 1, 254};

net::Packet udp(net::Ipv4Address src, std::uint16_t sport,
                net::Ipv4Address dst, std::uint16_t dport, std::uint16_t id) {
  Bytes payload = {static_cast<std::uint8_t>(id >> 8),
                   static_cast<std::uint8_t>(id & 0xff), 0, 0};
  return net::Packet::make_udp({src, sport}, {dst, dport}, payload);
}

OutputRecord out(bool to_ans, const net::Packet& p) {
  return OutputRecord{to_ans,
                      true,
                      true,
                      p.src_ip.value(),
                      p.dst_ip.value(),
                      p.src_port(),
                      p.dst_port(),
                      static_cast<std::uint16_t>((p.payload[0] << 8) |
                                                 p.payload[1])};
}

TEST(Classify, CountsEveryWrongVerdict) {
  const net::Ipv4Address a{10, 0, 0, 1}, b{10, 0, 0, 2}, c{10, 0, 0, 3};
  const net::Ipv4Address s1{10, 200, 0, 1}, s2{10, 200, 0, 2};
  std::vector<Arrival> in = {
      {SimTime{1}, Origin::kClient, udp(a, 1000, kAns, 53, 1)},
      {SimTime{2}, Origin::kClient, udp(b, 1000, kAns, 53, 2)},
      {SimTime{3}, Origin::kClient, udp(c, 1000, kAns, 53, 3)},
      {SimTime{4}, Origin::kAns, udp(kAns, 53, c, 1000, 3)},
      {SimTime{5}, Origin::kSpoofer, udp(s1, 33000, kAns, 53, 4)},
      {SimTime{6}, Origin::kSpoofer, udp(s2, 33000, kAns, 53, 5)},
  };
  std::vector<OutputRecord> outs = {
      out(false, udp(kAns, 53, a, 1000, 1)),  // a answered
      out(true, udp(c, 1000, kAns, 53, 3)),   // c forwarded
      out(false, udp(kAns, 53, c, 1000, 3)),  // c's answer relayed
      out(true, udp(s1, 33000, kAns, 53, 4)), // spoof s1 reached the ANS
  };
  const Outcome o = classify(in, outs, kGuard, kAns, /*queue_drops=*/1);
  EXPECT_EQ(o.packets, 6u);
  EXPECT_EQ(o.legit, 4u);
  EXPECT_EQ(o.spoofed, 2u);
  EXPECT_EQ(o.legit_unserved, 1u);  // b
  EXPECT_EQ(o.spoof_to_ans, 1u);    // s1
  EXPECT_EQ(o.queue_drops, 1u);
  EXPECT_EQ(o.failed(), 3u);
}

TEST(Classify, RetransmissionsNeedOneOutputEach) {
  const net::Ipv4Address a{10, 0, 0, 1};
  std::vector<Arrival> in = {
      {SimTime{1}, Origin::kClient, udp(a, 1000, kAns, 53, 7)},
      {SimTime{2}, Origin::kClient, udp(a, 1000, kAns, 53, 7)},
  };
  std::vector<OutputRecord> outs = {out(false, udp(kAns, 53, a, 1000, 7))};
  EXPECT_EQ(classify(in, outs, kGuard, kAns, 0).legit_unserved, 1u);
}

TEST(Classify, ProxiedTcpQueriesMustReachTheAns) {
  const net::Ipv4Address a{10, 0, 0, 1};
  net::Packet data = net::Packet::make_tcp({a, 40000}, {kAns, 53},
                                           net::TcpFlags{.ack = true}, 1, 1,
                                           Bytes{0, 2, 0, 9});
  std::vector<Arrival> in = {{SimTime{1}, Origin::kClient, data}};
  EXPECT_EQ(classify(in, {}, kGuard, kAns, 0).legit_unserved, 1u);
  std::vector<OutputRecord> outs = {
      out(true, udp(kGuard, 20000, kAns, 53, 9))};
  EXPECT_EQ(classify(in, outs, kGuard, kAns, 0).failed(), 0u);
}

// --- recording, replay fidelity, seeds ---------------------------------------

TEST(Replay, ReproducesLiveCountersAndOutputBytes) {
  const Corpus c = record("ns_name_miss", 3, milliseconds(30));
  ASSERT_GT(c.arrivals.size(), 1000u);
  OutputLog first, second;
  ReplayOptions o1, o2;
  o1.outputs = &first;
  o2.outputs = &second;
  const ReplayResult r = replay(c, o1);
  EXPECT_TRUE(compare_metrics(c.live_metrics, r.at_cut).empty());
  (void)replay(c, o2);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(classify(c.arrivals, first.outputs, c.guard_config.guard_address,
                     c.guard_config.ans_address, r.rx_queue_drops)
                .failed(),
            0u);
}

TEST(Replay, FidelityCheckCatchesATamperedCorpus) {
  Corpus c = record("ns_name_miss", 3, milliseconds(30));
  // Corrupt one cookie query's cookie label: the replayed guard now drops
  // it as a spoof, which the live guard never did.
  bool tampered = false;
  for (Arrival& a : c.arrivals) {
    auto m = dns::Message::decode(BytesView(a.packet.payload));
    if (!m || m->header.qr || m->question() == nullptr) continue;
    const std::string_view label = m->question()->qname.first_label();
    if (!guard::CookieEngine::parse_cookie_label(label)) continue;
    dns::Message forged = *m;
    std::string bad(label);
    bad[2] = bad[2] == '0' ? '1' : '0';
    forged.questions.front().qname =
        *dns::DomainName::parse(bad + ".");
    a.packet.payload = forged.encode();
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered);
  const ReplayResult r = replay(c);
  const std::vector<Mismatch> diff = compare_metrics(c.live_metrics, r.at_cut);
  EXPECT_FALSE(diff.empty());
  bool spoof_counter_moved = false;
  for (const Mismatch& m : diff) {
    spoof_counter_moved |= m.name == "guard.spoofs_dropped";
  }
  EXPECT_TRUE(spoof_counter_moved);
}

TEST(Replay, EveryWorkloadReplaysExactly) {
  for (const std::string& w : workload_names()) {
    const Corpus c = record(w, 5, milliseconds(40));
    ASSERT_GT(c.arrivals.size(), 100u) << w;
    const ReplayResult r = replay(c);
    EXPECT_TRUE(compare_metrics(c.live_metrics, r.at_cut).empty()) << w;
  }
}

TEST(Seeds, SameSeedSameDigestOtherSeedOther) {
  for (const std::string& w : workload_names()) {
    const Corpus a = record(w, 1, milliseconds(20));
    const Corpus b = record(w, 1, milliseconds(20));
    const Corpus c = record(w, 2, milliseconds(20));
    EXPECT_EQ(a.digest, b.digest) << w;
    EXPECT_NE(a.digest, c.digest) << w;
    EXPECT_EQ(a.prefix_digest, a.digest) << w;  // window inside the prefix
  }
}

}  // namespace
