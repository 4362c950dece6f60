// Order statistics for the benchmark's reported figures.
#pragma once

#include <cstddef>
#include <vector>

namespace hostbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty input.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending `sorted`.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// A tail percentile together with the evidence behind it.
struct TailPercentile {
  double percentile = 0.0;   // the percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;   // sample count it was taken over
  std::size_t beyond = 0;    // samples strictly above its rank
};

/// The highest percentile, no higher than `wanted`, that still has at
/// least `min_beyond` samples beyond its rank. Candidates step down a
/// fixed ladder (99.9, 99, 98, 95, 90, 75, 50); with fewer samples than
/// even the median needs, the median is returned with its short count.
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> v,
                                             double wanted = 99.0,
                                             std::size_t min_beyond = 10);

/// Per-chunk host cost of a deterministic replay repeated several times.
///
/// Every repetition replays the same packets, so repetitions of one chunk
/// differ only by host interference: on shared hosts, co-tenants slow a
/// core by up to 2x in phases lasting from milliseconds to minutes.
///  - A chunk's cost is its fastest repetition; throughput and the median
///    come from those costs.
///  - The tail needs more care: a chunk that never met a quiet moment
///    keeps a high fastest cost, so a high percentile of fastest costs
///    would measure how quiet the host was. Instead each repetition's
///    chunk costs are divided by that repetition's median chunk cost
///    (cancelling interference that lasts a whole repetition), each
///    chunk's relative cost is its median across repetitions (cancelling
///    shorter bursts), and the tail percentile of these relative costs
///    scales the median fastest cost.
struct ChunkCosts {
  std::vector<double> fastest;   // ns/pkt of each chunk, fastest repetition
  std::vector<double> relative;  // chunk cost / its repetition's median
  double pkts_per_s = 0.0;       // packets / summed fastest chunk time
  double p50 = 0.0;              // median fastest chunk ns/pkt
  TailPercentile tail;           // tail chunk ns/pkt, >= 10 chunks beyond
};

/// `reps[r][k]` is chunk k's ns/pkt in repetition r (all the same length).
[[nodiscard]] ChunkCosts chunk_costs(
    const std::vector<std::vector<double>>& reps);

}  // namespace hostbench
