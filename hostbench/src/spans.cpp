#include "spans.h"

#include <cstdio>
#include <map>

namespace hostbench {

std::vector<std::pair<std::string, double>> SpanLog::self_ns_by_name() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  // Children never overlap each other (the benchmark is sequential), so
  // the part of a parent they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      self[s.parent - 1] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = index.emplace(spans_[i].name, out.size());
    if (fresh) out.emplace_back(spans_[i].name, 0.0);
    out[it->second].second += self[i];
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                  "\"start_ns\": %lld, \"end_ns\": %lld}",
                  i == 0 ? "" : ",", s.name, s.id, s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace hostbench
