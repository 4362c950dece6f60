// Table II — Average DNS request latency (ms) for different spoof
// detection schemes, cache miss (first access) vs cache hit.
//
// Paper setup (§IV.B): ANS on a campus network, LRS behind a cable modem,
// average RTT 10.9 ms. Paper numbers:
//
//                 NS name  Fabricated  TCP-based  Modified DNS
//   Cache Miss      21.0      32.1/34.5    34.5       22.4
//   Cache Hit       11.1      11.3         33.7       10.8
//
// (Columns per paper: NS name 21.0/11.1, Fabricated 32.1->34.5 worst-case
// ordering per text; we report our measured means.)
#include <cstdio>

#include "bench/bench_common.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::DriveMode;
using workload::TablePrinter;

namespace {

struct Row {
  const char* label;
  DriveMode miss;
  DriveMode hit;
  double paper_miss_ms;
  double paper_hit_ms;
  guard::Scheme scheme;
};

double measure_latency(guard::Scheme scheme, DriveMode mode) {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(scheme);
  // Internet path: one-way 5.45 ms => RTT 10.9 ms as in §IV.B.
  auto* driver = bed.add_driver(mode, /*concurrency=*/1,
                                net::Ipv4Address(10, 0, 1, 1),
                                /*timeout=*/milliseconds(200));
  bed.sim.set_latency(driver, bed.guard.get(), microseconds(5450));
  bed.measure(/*warmup=*/milliseconds(500), /*window=*/seconds(4));
  return driver->latencies().mean();
}

}  // namespace

int main() {
  std::printf(
      "TABLE II: Average DNS request latency (ms); RTT = 10.9 ms (paper "
      "%sIV.B)\n\n",
      "\xc2\xa7");

  const Row rows[] = {
      {"dns-based/ns-name", DriveMode::NsNameMiss, DriveMode::NsNameHit, 21.0,
       11.1, guard::Scheme::NsName},
      {"dns-based/fabricated", DriveMode::FabricatedMiss,
       DriveMode::FabricatedHit, 34.5, 11.3, guard::Scheme::FabricatedNsIp},
      {"tcp-based", DriveMode::TcpWithRedirect, DriveMode::TcpWithRedirect,
       32.1, 33.7, guard::Scheme::TcpRedirect},
      {"modified-dns", DriveMode::ModifiedMiss, DriveMode::ModifiedHit, 22.4,
       10.8, guard::Scheme::ModifiedDns},
  };

  TablePrinter table({"scheme", "miss(ms)", "paper", "hit(ms)", "paper"}, 22);
  table.print_header();
  for (const Row& row : rows) {
    double miss = measure_latency(row.scheme, row.miss);
    double hit = measure_latency(row.scheme, row.hit);
    table.print_row({row.label, TablePrinter::num(miss, 1),
                     TablePrinter::num(row.paper_miss_ms, 1),
                     TablePrinter::num(hit, 1),
                     TablePrinter::num(row.paper_hit_ms, 1)});
  }
  std::printf(
      "\nShape checks: all hits ~1 RTT except tcp-based (always 3 RTT);\n"
      "misses: ns-name/modified ~2 RTT, fabricated/tcp ~3 RTT.\n");
  return 0;
}
