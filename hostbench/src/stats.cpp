#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hostbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

TailPercentile tail_percentile(std::vector<double> v, double wanted,
                               std::size_t min_beyond) {
  TailPercentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  static constexpr double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                       90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p > wanted) continue;
    const std::size_t beyond = v.size() - nearest_rank(v.size(), p);
    out.percentile = p;
    out.value = percentile_sorted(v, p);
    out.beyond = beyond;
    if (beyond >= min_beyond) break;
  }
  return out;
}

ChunkCosts chunk_costs(const std::vector<std::vector<double>>& reps) {
  ChunkCosts c;
  if (reps.empty() || reps[0].empty()) return c;
  const std::size_t n = reps[0].size();
  c.fastest = reps[0];
  std::vector<std::vector<double>> rel(n);
  for (const std::vector<double>& r : reps) {
    const double mid = median(r);
    for (std::size_t k = 0; k < n && k < r.size(); ++k) {
      c.fastest[k] = std::min(c.fastest[k], r[k]);
      if (mid > 0) rel[k].push_back(r[k] / mid);
    }
  }
  c.relative.reserve(n);
  for (std::vector<double>& col : rel) c.relative.push_back(median(std::move(col)));

  double sum = 0.0;
  for (double v : c.fastest) sum += v;
  c.pkts_per_s = sum > 0 ? 1e9 * static_cast<double>(n) / sum : 0.0;
  c.p50 = median(c.fastest);
  c.tail = tail_percentile(c.relative, 99.0);
  const double rel_mid = median(c.relative);
  c.tail.value = rel_mid > 0 ? c.p50 * c.tail.value / rel_mid : 0.0;
  return c;
}

}  // namespace hostbench
