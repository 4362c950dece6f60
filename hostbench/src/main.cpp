// hostbench — host-clock benchmark of the DNS guard by record and replay.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Set-up records the workload's live testbed once per repetition (the
// corpus of every packet the guard receives) and builds the guard. A
// verification replay then checks that the replayed guard reproduces the
// live guard's counters exactly and that every verdict is right. The timed
// phase replays the corpus into fresh guards for `--seconds` and reports
// host CPU cost per packet. With --trace 1 the run instead reports the
// per-layer ledger: each layer's public calls timed on the same corpus,
// spans around chunks and layer passes, and the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "corpus.h"
#include "layers.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"

using namespace hostbench;
using namespace dnsguard;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == a.workload;
  if (!known) usage("unknown or missing --workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

constexpr int kSetupReps = 5;

/// Set-up: record the corpus and build the guard, `reps` times; the
/// median is the reported set-up time. Every repetition must produce the
/// same corpus digest.
struct Setup {
  Corpus corpus;
  double setup_s = 0.0;
  bool deterministic = true;
};

Setup run_setup(const Args& a, int reps) {
  Setup s;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = cpu_ns();
    Corpus c = record(a.workload, a.seed, default_window(a.workload));
    {
      sim::Simulator sim;
      guard::RemoteGuardNode g(sim, "guard", c.guard_config, nullptr);
    }
    times.push_back(static_cast<double>(cpu_ns() - t0) * 1e-9);
    if (i == 0) {
      s.corpus = std::move(c);
    } else if (c.digest != s.corpus.digest) {
      s.deterministic = false;
    }
  }
  s.setup_s = median(times);
  return s;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  const double wall0 = wall_s();

  // --- set-up and seed checks ----------------------------------------------
  Setup setup = run_setup(args, kSetupReps);
  const Corpus& corpus = setup.corpus;
  const std::uint64_t other_seed = args.seed + 1;
  const Corpus same_prefix = record(args.workload, args.seed, kPrefixWindow);
  const Corpus other_prefix = record(args.workload, other_seed, kPrefixWindow);
  const bool seed_ok = setup.deterministic &&
                       same_prefix.digest == corpus.prefix_digest &&
                       other_prefix.digest != corpus.prefix_digest;
  std::size_t spoofed = 0;
  for (const Arrival& a : corpus.arrivals) {
    spoofed += a.origin == Origin::kSpoofer ? 1 : 0;
  }
  std::printf("workload %s seed %llu: corpus %zu packets (%zu spoofed) over "
              "%.3f s sim, digest %016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              corpus.arrivals.size(), spoofed,
              (corpus.end - SimTime{}).seconds(),
              static_cast<unsigned long long>(corpus.digest));
  std::printf("seed check: %d repeated recordings agree: %s; %.0f ms prefix "
              "digest %016llx, seed %llu gives %016llx: %s\n",
              kSetupReps, setup.deterministic ? "yes" : "NO",
              kPrefixWindow.millis(),
              static_cast<unsigned long long>(corpus.prefix_digest),
              static_cast<unsigned long long>(other_seed),
              static_cast<unsigned long long>(other_prefix.digest),
              seed_ok ? "ok" : "FAILED");

  // --- verification replay ---------------------------------------------------
  OutputLog outputs;
  ReplayOptions vopts;
  vopts.outputs = &outputs;
  const ReplayResult verify = replay(corpus, vopts);
  const std::vector<Mismatch> mismatches =
      compare_metrics(corpus.live_metrics, verify.at_cut);
  for (const Mismatch& m : mismatches) {
    std::printf("fidelity MISMATCH %s: live %.0f replayed %.0f\n",
                m.name.c_str(), m.live, m.replayed);
  }
  const Outcome outcome =
      classify(corpus.arrivals, outputs.outputs,
               corpus.guard_config.guard_address,
               corpus.guard_config.ans_address, verify.rx_queue_drops);
  std::printf("fidelity: %zu guard cells compared, %zu mismatched; output "
              "digest %016llx over %zu packets\n",
              corpus.live_metrics.size(), mismatches.size(),
              static_cast<unsigned long long>(outputs.digest),
              outputs.outputs.size());
  std::printf("verdicts: %llu legit, %llu spoofed; unserved legit %llu, "
              "spoofs at ANS %llu, rx-queue drops %llu\n",
              static_cast<unsigned long long>(outcome.legit),
              static_cast<unsigned long long>(outcome.spoofed),
              static_cast<unsigned long long>(outcome.legit_unserved),
              static_cast<unsigned long long>(outcome.spoof_to_ans),
              static_cast<unsigned long long>(outcome.queue_drops));
  std::printf("guard drops by reason:");
  for (const auto& [name, value] : verify.drained) {
    if (name.starts_with("guard.drop.") && value > 0) {
      std::printf(" %s=%.0f", name.c_str() + 11, value);
    }
  }
  std::printf("\n");
  const bool correct = mismatches.empty() && seed_ok;
  const std::uint64_t attempted = corpus.arrivals.size();
  const std::uint64_t failed = outcome.failed();
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // --- timed replays -------------------------------------------------------
    std::vector<std::vector<double>> reps;
    std::vector<double> raw_pps, heap;
    const double t_start = wall_s();
    while (reps.size() < 3 || wall_s() - t_start < args.seconds) {
      ReplayResult r = replay(corpus);
      raw_pps.push_back(static_cast<double>(r.packets) / r.cpu_s);
      heap.push_back(r.heap_peak_mb);
      reps.push_back(std::move(r.chunk_ns_per_pkt));
    }
    const ChunkCosts cost = chunk_costs(reps);
    std::printf("timed: %zu replays (median replay %.0f pkt/s); fastest "
                "repetition per chunk: %.0f pkt/s, ns/pkt p50 %.1f, p%.1f "
                "%.1f over %zu chunks of %zu packets (%zu beyond)\n",
                reps.size(), median(raw_pps), cost.pkts_per_s, cost.p50,
                cost.tail.percentile, cost.tail.value, cost.tail.samples,
                kChunkPackets, cost.tail.beyond);
    metrics = {
        {"guard_pkts_per_s", cost.pkts_per_s, "pkt/s"},
        {"pkt_ns_p50", cost.p50, "ns"},
        {"pkt_ns_p99", cost.tail.value, "ns"},
        {"guard_heap_peak_mb", median(heap), "MB"},
        {"setup_s", setup.setup_s, "s"},
    };
  } else {
    LedgerInputs in;
    in.corpus = &corpus;
    in.verify = &verify;
    in.outputs = &outputs;
    in.failed_ratio = failed_ratio;
    in.trace_dir = args.trace_dir;
    in.budget_s = args.seconds;
    for (auto& m : run_ledger(in)) {
      metrics.push_back({std::move(m.name), m.value, std::move(m.unit)});
    }
  }
  std::printf("run wall time %.1f s\n", wall_s() - wall0);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "hostbench: %s\n", e.what());
  return 2;
}
