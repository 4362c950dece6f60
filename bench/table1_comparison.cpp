// Table I — Comparison among spoof detection schemes.
//
// The qualitative rows (latency in RTTs, cookie storage, cookie range,
// amplification, deployment) are protocol facts encoded in
// guard/comparison.h; this bench prints them AND cross-checks the
// quantitative claims against the simulator:
//   * best/worst-case latency in RTTs (measured over a known-RTT link),
//   * traffic amplification of the guard's cookie responses
//     (DNS-based < 50% / +24 bytes; TCP-based and modified-DNS: none).
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "guard/comparison.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::DriveMode;
using workload::TablePrinter;

namespace {

double measured_rtts(guard::Scheme scheme, DriveMode mode) {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(scheme);
  auto* driver = bed.add_driver(mode, 1, net::Ipv4Address(10, 0, 1, 1),
                                milliseconds(500));
  // A 10 ms RTT makes processing time negligible in the RTT count.
  bed.sim.set_latency(driver, bed.guard.get(), microseconds(5000));
  bed.measure(milliseconds(200), seconds(2));
  return driver->latencies().mean() / 10.0;
}

/// Amplification of the guard's response to the first (unverified)
/// request: response wire bytes minus request wire bytes.
struct Amplification {
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// One-shot probe: fires a single crafted query and records the sizes of
/// what it sent and what came back.
class ProbeNode : public sim::Node {
 public:
  ProbeNode(sim::Simulator& s, net::Ipv4Address addr)
      : sim::Node(s, "probe"), addr_(addr) {}

  void fire(net::SocketAddr target, dns::Message query) {
    net::Packet p = net::Packet::make_udp({addr_, 32000}, target,
                                          query.encode());
    sent_bytes = p.wire_size();
    send(std::move(p));
  }

  std::size_t sent_bytes = 0;
  std::size_t received_bytes = 0;

 protected:
  SimDuration process(const net::Packet& packet) override {
    received_bytes = packet.wire_size();
    return SimDuration{};
  }

 private:
  net::Ipv4Address addr_;
};

Amplification measure_amplification(guard::Scheme scheme) {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(scheme);
  ProbeNode probe(bed.sim, net::Ipv4Address(10, 0, 1, 9));
  bed.sim.add_host_route(net::Ipv4Address(10, 0, 1, 9), &probe);

  // The first, unverified request each scheme sees: a plain query (a
  // zero-cookie request for modified-DNS, which replies with a cookie of
  // identical size).
  dns::Message q = dns::Message::query(
      1, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
  if (scheme == guard::Scheme::ModifiedDns) {
    guard::CookieEngine::attach_txt_cookie(q, crypto::Cookie{}, 0);
  }
  probe.fire({kAnsIp, net::kDnsPort}, std::move(q));
  bed.sim.run_for(milliseconds(10));
  return Amplification{probe.sent_bytes, probe.received_bytes};
}

}  // namespace

int main() {
  std::printf("TABLE I: Comparison among spoof detection schemes (paper "
              "%sIII.F)\n\n", "\xc2\xa7");

  auto profiles = guard::scheme_profiles(std::log2(250.0));
  TablePrinter table({"property", "ns-name", "fabricated", "tcp-based",
                      "modified-dns"},
                     20);
  table.print_header();

  auto row = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& p : profiles) cells.push_back(getter(p));
    table.print_row(cells);
  };
  row("worst latency (RTT)", [](const guard::SchemeProfile& p) {
    return TablePrinter::num(p.worst_latency_rtt, 0);
  });
  row("best latency (RTT)", [](const guard::SchemeProfile& p) {
    return TablePrinter::num(p.best_latency_rtt, 0);
  });
  row("cookie storage", [](const guard::SchemeProfile& p) {
    return std::string(p.cookie_storage);
  });
  row("cookie range (2^n)", [](const guard::SchemeProfile& p) {
    return TablePrinter::num(p.cookie_range_log2, 0);
  });
  row("amplification (B)", [](const guard::SchemeProfile& p) {
    return TablePrinter::num(p.amplification_bytes, 0);
  });
  row("deployment", [](const guard::SchemeProfile& p) {
    return std::string(p.deployment);
  });

  std::printf("\nCross-checks against the simulator:\n\n");
  TablePrinter check({"scheme", "miss RTTs", "hit RTTs", "req(B)", "resp(B)",
                      "amp(B)"},
                     14);
  check.print_header();
  struct Probe {
    const char* label;
    guard::Scheme scheme;
    DriveMode miss;
    DriveMode hit;
  };
  const Probe probes[] = {
      {"ns-name", guard::Scheme::NsName, DriveMode::NsNameMiss,
       DriveMode::NsNameHit},
      {"fabricated", guard::Scheme::FabricatedNsIp, DriveMode::FabricatedMiss,
       DriveMode::FabricatedHit},
      {"tcp-based", guard::Scheme::TcpRedirect, DriveMode::TcpWithRedirect,
       DriveMode::TcpWithRedirect},
      {"modified-dns", guard::Scheme::ModifiedDns, DriveMode::ModifiedMiss,
       DriveMode::ModifiedHit},
  };
  for (const Probe& p : probes) {
    double miss = measured_rtts(p.scheme, p.miss);
    double hit = measured_rtts(p.scheme, p.hit);
    Amplification amp = measure_amplification(p.scheme);
    long extra = static_cast<long>(amp.response_bytes) -
                 static_cast<long>(amp.request_bytes);
    const auto bytes = [](auto n) {
      return TablePrinter::num(static_cast<double>(n), 0);
    };
    check.print_row({p.label, TablePrinter::num(miss, 1),
                     TablePrinter::num(hit, 1), bytes(amp.request_bytes),
                     bytes(amp.response_bytes), bytes(extra)});
  }
  std::printf(
      "\nPaper bounds: DNS-based amplification < 50%% (+24 B); TCP-based "
      "and modified-DNS: none (same-size responses).\n");
  return 0;
}
