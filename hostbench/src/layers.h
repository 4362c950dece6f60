// The per-layer ledger of a traced run.
//
// Each layer is measured from outside the guard: the benchmark times calls
// into the layer's public functions on the workload's own corpus (decode
// every recorded DNS payload, run every recorded source through RL1, feed
// every recorded TCP segment to a standalone TcpStack, ...). Where a
// corpus carries no input for a layer (no TCP segments, no TXT cookies),
// the input is derived from each recorded request instead, so every
// metric is measured on every workload; the guard's exact per-packet
// counts show which layers the guard itself actually ran.
#pragma once

#include <string>
#include <vector>

#include "corpus.h"
#include "replay.h"

namespace hostbench {

struct LedgerInputs {
  const Corpus* corpus = nullptr;
  const ReplayResult* verify = nullptr;  // the verification replay
  const OutputLog* outputs = nullptr;    // what it emitted
  double failed_ratio = 0.0;
  std::string trace_dir;  // where the span log is written
  double budget_s = 5.0;  // wall time for the ledger's replays and passes
};

struct LedgerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs the layer passes, the traced/untraced replay pairs and the
/// profiler comparison; prints the reconciliation; writes the span log;
/// returns every per-layer metric.
[[nodiscard]] std::vector<LedgerMetric> run_ledger(const LedgerInputs& in);

}  // namespace hostbench
