#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>

#include "alloc_hook.h"
#include "common/bounded_table.h"
#include "common/pool.h"
#include "dns/message.h"
#include "guard/cookie_engine.h"
#include "obs/drop_reason.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "ratelimit/limiters.h"
#include "spans.h"
#include "stats.h"
#include "tcp/syn_cookie.h"
#include "tcp/tcp_stack.h"

namespace hostbench {

using namespace dnsguard;

namespace {

/// Results fold into this so no timed call can be optimized away.
volatile std::uint64_t g_sink = 0;

/// A recorded UDP DNS request (client or spoofer), decoded once.
struct Request {
  const Arrival* arrival;
  dns::Message msg;
  std::string restore_label;   // label an NS-name rewrite would restore
  std::string next_label;      // label a referral would mint for
  crypto::Cookie cookie{};     // TXT cookie, or a valid minted one
  std::uint32_t prefix = 0;    // parsed label prefix, or a valid one
};

/// Layer inputs drawn from the corpus (untimed).
struct Inputs {
  std::vector<const net::Packet*> dns_payloads;  // requests + ANS replies
  std::vector<Request> requests;
  /// Recorded TCP segments; when the corpus has none, one synthetic SYN
  /// per request (owned by `synthetic`).
  std::vector<const Arrival*> segments;
  std::size_t recorded_segments = 0;
  std::vector<Arrival> synthetic;
};

Inputs build_inputs(const Corpus& c, const guard::CookieEngine& engine) {
  Inputs in;
  const dns::DomainName& zone = c.guard_config.protected_zone;
  for (const Arrival& a : c.arrivals) {
    const net::Packet& p = a.packet;
    if (p.is_tcp()) {
      in.segments.push_back(&a);
      continue;
    }
    auto m = dns::Message::decode(BytesView(p.payload));
    if (!m) continue;
    in.dns_payloads.push_back(&p);
    if (p.src_ip == c.guard_config.ans_address) continue;
    if (m->header.qr || m->question() == nullptr) continue;
    Request r{&a, std::move(*m), {}, {}, {}, 0};
    const dns::DomainName& q = r.msg.question()->qname;
    const auto parsed = guard::CookieEngine::parse_cookie_label(q.first_label());
    r.restore_label =
        parsed ? parsed->restore_label : std::string(q.first_label());
    r.next_label = q.label_count() > zone.label_count()
                       ? std::string(
                             q.suffix(zone.label_count() + 1).first_label())
                       : std::string("com");
    const crypto::Cookie minted = engine.mint(p.src_ip);
    auto txt = guard::CookieEngine::extract_txt_cookie(r.msg);
    r.cookie = txt && !guard::CookieEngine::is_zero_cookie(*txt) ? *txt
                                                                 : minted;
    r.prefix = parsed ? parsed->cookie_prefix : crypto::cookie_prefix32(minted);
    in.requests.push_back(std::move(r));
  }
  in.recorded_segments = in.segments.size();
  if (in.segments.empty()) {
    in.synthetic.reserve(in.requests.size());
    for (const Request& r : in.requests) {
      const net::Packet& p = r.arrival->packet;
      in.synthetic.push_back(Arrival{
          r.arrival->at, r.arrival->origin,
          net::Packet::make_tcp(p.src(), {p.dst_ip, net::kDnsPort},
                                net::TcpFlags{.syn = true},
                                r.msg.header.id * 2654435761u, 0)});
    }
    for (const Arrival& a : in.synthetic) in.segments.push_back(&a);
  }
  return in;
}

struct PassResult {
  double ns_per_call = 0.0;
  double allocs_per_call = 0.0;
};

/// Times `body` (which returns its call count) over repetitions until
/// `min_s` of CPU has passed (3..50 repetitions); `prepare` runs untimed
/// before each. Reports the fastest repetition's ns/call (repetitions do
/// identical work, so slower ones measure host interference; see
/// chunk_costs) and the last repetition's allocations per call. Each
/// repetition is a span under `parent`.
template <typename Prepare, typename Body>
PassResult time_pass(SpanLog& spans, std::uint32_t parent, const char* name,
                     double min_s, Prepare&& prepare, Body&& body) {
  std::vector<double> ns;
  double spent = 0.0;
  PassResult r;
  while (ns.size() < 3 || (spent < min_s && ns.size() < 50)) {
    prepare();
    const std::uint32_t span = spans.open(name, parent);
    const std::uint64_t a0 = alloc::snapshot().calls;
    const std::int64_t t0 = cpu_ns();
    const std::size_t calls = body();
    const std::int64_t t1 = cpu_ns();
    const std::uint64_t a1 = alloc::snapshot().calls;
    spans.close(span);
    if (calls == 0) return r;
    spent += static_cast<double>(t1 - t0) * 1e-9;
    ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
    r.allocs_per_call =
        static_cast<double>(a1 - a0) / static_cast<double>(calls);
  }
  r.ns_per_call = *std::min_element(ns.begin(), ns.end());
  return r;
}

double sum_prefix(const GuardMetrics& m, std::string_view prefix) {
  double total = 0.0;
  for (const auto& [n, v] : m) {
    if (std::string_view(n).starts_with(prefix)) total += v;
  }
  return total;
}

}  // namespace

std::vector<LedgerMetric> run_ledger(const LedgerInputs& in) {
  const Corpus& c = *in.corpus;
  const guard::RemoteGuardNode::Config& gc = c.guard_config;
  const double pkts = static_cast<double>(c.arrivals.size());
  const double t_begin = wall_s();
  SpanLog spans;
  std::vector<LedgerMetric> out;
  auto put = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };

  // --- end to end, untraced vs traced -------------------------------------
  // Alternate untraced and traced replays so host drift hits both alike;
  // each side's cost is its fastest repetition per chunk (stats.h).
  std::vector<std::vector<double>> plain, traced;
  std::uint64_t replay_allocs = 0;
  const double pair_budget = in.budget_s * 0.45;
  while (plain.size() < 3 || wall_s() - t_begin < pair_budget) {
    ReplayResult u = replay(c);
    replay_allocs = u.allocs;
    plain.push_back(std::move(u.chunk_ns_per_pkt));
    ReplayOptions topts;
    topts.spans = &spans;
    topts.parent_span = spans.open("replay");
    ReplayResult t = replay(c, topts);
    spans.close(topts.parent_span);
    traced.push_back(std::move(t.chunk_ns_per_pkt));
  }
  const double e2e_ns = 1e9 / chunk_costs(plain).pkts_per_s;
  const double traced_ns = 1e9 / chunk_costs(traced).pkts_per_s;

  // --- isolated layer passes ----------------------------------------------
  guard::CookieEngine engine(gc.key_seed);
  const Inputs li = build_inputs(c, engine);
  const std::uint32_t layers_span = spans.open("layers");
  const double per_pass = in.budget_s * 0.02;
  auto noop = [] {};
  std::uint64_t acc = 0;

  std::vector<std::vector<double>> inject;
  for (int k = 0; k < 5; ++k) {
    ReplayOptions sopts;
    sopts.without_guard = true;
    const std::uint32_t span = spans.open("layer.sim.inject", layers_span);
    inject.push_back(replay(c, sopts).chunk_ns_per_pkt);
    spans.close(span);
  }
  const double sim_inject_ns = 1e9 / chunk_costs(inject).pkts_per_s;

  const PassResult decode = time_pass(
      spans, layers_span, "layer.dns.decode", per_pass, noop, [&] {
        for (const net::Packet* p : li.dns_payloads) {
          auto m = dns::Message::decode(BytesView(p->payload));
          acc += m ? m->header.id : 1;
        }
        return li.dns_payloads.size();
      });
  const PassResult encode = time_pass(
      spans, layers_span, "layer.dns.encode", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          Bytes b = r.msg.encode_pooled();
          acc += b.size();
          BufferPool::local().release(std::move(b));
        }
        return li.requests.size();
      });
  const dns::DomainName& zone = gc.protected_zone;
  const PassResult rewrite = time_pass(
      spans, layers_span, "layer.dns.name_rewrite", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          auto restored = zone.with_prefix_label(r.restore_label);
          if (!restored) continue;
          dns::Message rewritten = r.msg;
          rewritten.questions.front().qname = std::move(*restored);
          acc += rewritten.questions.size();
        }
        return li.requests.size();
      });
  const PassResult mint = time_pass(
      spans, layers_span, "layer.cookie.mint_label", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          auto label = engine.make_cookie_label(r.arrival->packet.src_ip,
                                                r.next_label);
          acc += label ? label->size() : 1;
        }
        return li.requests.size();
      });
  const PassResult parse = time_pass(
      spans, layers_span, "layer.cookie.parse_label", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          auto p = guard::CookieEngine::parse_cookie_label(
              r.msg.question()->qname.first_label());
          acc += p ? p->cookie_prefix : 1;
        }
        return li.requests.size();
      });
  const PassResult vprefix = time_pass(
      spans, layers_span, "layer.cookie.verify_prefix", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          acc += engine.verify_prefix_ex(r.arrival->packet.src_ip, r.prefix).ok;
        }
        return li.requests.size();
      });
  const PassResult vfull = time_pass(
      spans, layers_span, "layer.cookie.verify_full", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          acc += engine.verify_ex(r.arrival->packet.src_ip, r.cookie).ok;
        }
        return li.requests.size();
      });
  std::vector<guard::CookieEngine::VerifyJob> jobs;
  jobs.reserve(li.requests.size());
  for (const Request& r : li.requests) {
    jobs.push_back({guard::CookieEngine::VerifyJob::Kind::kFull,
                    r.arrival->packet.src_ip, r.cookie, 0, {}});
  }
  std::vector<crypto::VerifyResult> verdicts(gc.shard_batch_max);
  const PassResult vjobs = time_pass(
      spans, layers_span, "layer.cookie.verify_jobs", per_pass, noop, [&] {
        for (std::size_t i = 0; i < jobs.size(); i += gc.shard_batch_max) {
          const std::size_t n = std::min(gc.shard_batch_max, jobs.size() - i);
          engine.verify_jobs(jobs.data() + i, verdicts.data(), n,
                             gc.subnet_base, gc.r_y);
          acc += verdicts[0].ok;
        }
        return jobs.size();
      });
  const PassResult txt = time_pass(
      spans, layers_span, "layer.cookie.txt_extract", per_pass, noop, [&] {
        for (const Request& r : li.requests) {
          acc += guard::CookieEngine::extract_txt_cookie(r.msg).has_value();
        }
        return li.requests.size();
      });

  std::optional<ratelimit::CookieResponseLimiter> rl1;
  std::optional<ratelimit::VerifiedRequestLimiter> rl2;
  std::uint64_t refused = 0;
  const PassResult rl1_pass = time_pass(
      spans, layers_span, "layer.ratelimit.rl1", per_pass,
      [&] { rl1.emplace(gc.rl1); },
      [&] {
        std::uint64_t denied = 0;
        for (const Request& r : li.requests) {
          denied += !rl1->allow(r.arrival->packet.src_ip, r.arrival->at);
        }
        refused = denied;
        return li.requests.size();
      });
  const PassResult rl2_pass = time_pass(
      spans, layers_span, "layer.ratelimit.rl2", per_pass,
      [&] { rl2.emplace(gc.rl2); },
      [&] {
        std::uint64_t denied = 0;
        for (const Request& r : li.requests) {
          denied += !rl2->allow(r.arrival->packet.src_ip, r.arrival->at);
        }
        refused += denied;
        return li.requests.size();
      });
  const std::size_t limiter_calls = 2 * li.requests.size();

  struct PendingLike {
    dns::DomainName qname;
    dns::RrType qtype;
    net::Ipv4Address reply_src;
  };
  std::optional<common::BoundedTable<std::uint64_t, PendingLike>> pending;
  const PassResult pend = time_pass(
      spans, layers_span, "layer.table.pending_upsert", per_pass,
      [&] {
        pending.emplace(common::BoundedTable<std::uint64_t, PendingLike>::Config{
            .capacity = gc.pending_table_capacity, .ttl = gc.pending_ttl});
      },
      [&] {
        for (const Request& r : li.requests) {
          const net::Packet& p = r.arrival->packet;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(p.src_ip.value()) << 16) |
              r.msg.header.id;
          pending->erase(key);
          pending->try_emplace(key, r.arrival->at,
                               PendingLike{r.msg.question()->qname,
                                           r.msg.question()->qtype, p.dst_ip});
        }
        return li.requests.size();
      });

  // NAT close: the TCP-close callback sweeps every shard's NAT table; the
  // tables hold as many entries as the replayed guard's peak occupancy.
  struct NatLike {
    std::uint64_t conn;
    std::uint16_t qid;
  };
  const auto nat_live =
      static_cast<std::size_t>(metric_sum(in.verify->drained, ".nat.size.max"));
  const std::size_t shards = gc.num_shards;
  std::vector<common::BoundedTable<std::uint16_t, NatLike>> nat;
  const PassResult nat_pass = time_pass(
      spans, layers_span, "layer.table.nat_close", per_pass,
      [&] {
        nat.clear();
        for (std::size_t k = 0; k < shards; ++k) {
          nat.emplace_back(common::BoundedTable<std::uint16_t, NatLike>::Config{
              .capacity = (gc.nat_table_capacity + shards - 1) / shards,
              .ttl = gc.nat_ttl});
        }
        for (std::size_t i = 0; i < nat_live; ++i) {
          (void)nat[i % shards].try_emplace(
              static_cast<std::uint16_t>(20000 + i), SimTime{},
              NatLike{i, static_cast<std::uint16_t>(i)});
        }
      },
      [&] {
        const std::size_t closes = 256;
        for (std::size_t k = 0; k < closes; ++k) {
          const std::uint64_t id = nat_live == 0 ? 0 : k % nat_live;
          for (auto& table : nat) {
            // The predicate matches no entry, so every repetition sweeps
            // the same occupancy.
            acc += table.erase_if([id](const std::uint16_t&, const NatLike& e) {
              return e.conn == id + (1ull << 40);
            });
          }
        }
        return closes;
      });

  SimTime tcp_now{};
  std::unique_ptr<tcp::TcpStack> stack;
  const PassResult seg_pass = time_pass(
      spans, layers_span, "layer.tcp.segment", per_pass,
      [&] {
        stack = std::make_unique<tcp::TcpStack>(
            [&](net::Packet p) {
              acc += p.payload.size();
              p.release_payload();
            },
            [&] { return tcp_now; },
            tcp::TcpStack::Callbacks{
                .on_established = {},
                .on_data = [&](tcp::ConnId, BytesView d) { acc += d.size(); },
                .on_closed = {}},
            tcp::TcpStack::Options{
                .syn_cookies = true,
                .syn_cookie_secret = gc.key_seed ^ 0xabcdef0123456789ULL,
                .max_connections = gc.proxy_max_connections});
        stack->listen(net::kDnsPort);
      },
      [&] {
        for (const Arrival* a : li.segments) {
          tcp_now = a->at;
          acc += stack->handle_packet(a->packet);
        }
        return li.segments.size();
      });
  tcp::SynCookieGenerator syn(gc.key_seed ^ 0xabcdef0123456789ULL);
  const PassResult syn_pass = time_pass(
      spans, layers_span, "layer.tcp.syn_cookie", per_pass, noop, [&] {
        for (const Arrival& a : c.arrivals) {
          acc += syn.make(a.packet.src(), a.packet.dst(),
                          static_cast<std::uint32_t>(a.at.ns), a.at);
        }
        return c.arrivals.size();
      });
  obs::TraceRing ring(128);
  const PassResult trace_pass = time_pass(
      spans, layers_span, "layer.obs.trace_record", per_pass, noop, [&] {
        for (const Arrival& a : c.arrivals) {
          ring.record(a.at, obs::TraceEvent::kRx, a.packet.src_ip.value(),
                      a.packet.dst_ip.value(),
                      static_cast<std::uint16_t>(a.packet.payload.size()));
        }
        return c.arrivals.size();
      });
  obs::DropCounters drops;
  const PassResult drop_pass = time_pass(
      spans, layers_span, "layer.obs.drop_count", per_pass, noop, [&] {
        for (const Arrival& a : c.arrivals) {
          drops.count(a.origin == Origin::kSpoofer
                          ? obs::DropReason::kBadCookie
                          : obs::DropReason::kRateLimited1);
        }
        return c.arrivals.size();
      });
  acc += drops.total();
  spans.close(layers_span);
  g_sink = g_sink + acc;

  // --- exact per-packet counts from the replayed guard ---------------------
  const GuardMetrics& g = in.verify->drained;
  auto per_pkt = [&](double v) { return v / pkts; };
  const double minted = metric(g, "guard.cookies_minted");
  const double checks = metric(g, "guard.cookie_checks");
  const double dropped = sum_prefix(g, "guard.drop.");
  const double forwards = metric(g, "guard.forwarded_to_ans");
  const double outputs = static_cast<double>(in.outputs->outputs.size());
  const double requests = static_cast<double>(li.requests.size());
  const bool batched = gc.num_shards > 1 && gc.activation_threshold_rps <= 0;
  const double ns_verified = metric(g, "guard.scheme.ns_name.verified") +
                             metric(g, "guard.scheme.ns_name.dropped");
  const double md_checked = metric(g, "guard.scheme.modified_dns.verified") +
                            metric(g, "guard.scheme.modified_dns.dropped");
  const double rl1_calls =
      metric_sum(g, ".rl1.allowed") + metric_sum(g, ".rl1.throttled");
  const double rl2_calls =
      metric_sum(g, ".rl2.allowed") + metric_sum(g, ".rl2.throttled");
  const double encodes = forwards + metric(g, "guard.fabricated_referrals") +
                         metric(g, "guard.cookie_replies") +
                         metric(g, "guard.tc_redirects") +
                         metric_sum(g, ".pending.hits");
  const double syn_hashes = metric(g, "guard.tcp.syn_cookies_sent") +
                            metric(g, "guard.tcp.syn_cookies_accepted") +
                            metric(g, "guard.tcp.syn_cookies_rejected");

  // Layer ledger: ns per call x calls per packet.
  struct Term {
    const char* layer;
    double ns;
    double calls;
  };
  const std::vector<Term> terms = {
      {"sim.inject", sim_inject_ns, pkts + outputs},
      {"dns.decode", decode.ns_per_call,
       static_cast<double>(li.dns_payloads.size()) +
           metric(g, "guard.proxy_queries")},
      {"dns.encode", encode.ns_per_call, encodes},
      {"dns.name_rewrite", rewrite.ns_per_call,
       metric(g, "guard.scheme.ns_name.verified")},
      {"cookie.mint_label", mint.ns_per_call,
       metric(g, "guard.scheme.ns_name.minted") +
           metric(g, "guard.scheme.fabricated_ns_ip.minted")},
      {"cookie.parse_label", parse.ns_per_call, ns_verified},
      {"cookie.verify_prefix", vprefix.ns_per_call, batched ? 0 : ns_verified},
      {"cookie.verify_full", vfull.ns_per_call, batched ? 0 : md_checked},
      {"cookie.verify_jobs", vjobs.ns_per_call,
       batched ? ns_verified + md_checked : 0},
      {"cookie.txt_extract", txt.ns_per_call, requests * (batched ? 2 : 1)},
      {"ratelimit.rl1", rl1_pass.ns_per_call, rl1_calls},
      {"ratelimit.rl2", rl2_pass.ns_per_call, rl2_calls},
      {"table.pending_upsert", pend.ns_per_call,
       metric_sum(g, ".pending.inserts")},
      {"table.nat_close", nat_pass.ns_per_call,
       metric(g, "guard.tcp.connections_closed")},
      {"tcp.segment", seg_pass.ns_per_call,
       static_cast<double>(li.recorded_segments)},
      {"tcp.syn_cookie", syn_pass.ns_per_call, syn_hashes},
      {"obs.trace_record", trace_pass.ns_per_call, pkts + outputs},
      {"obs.drop_count", drop_pass.ns_per_call, dropped},
  };
  double layer_sum = 0.0;
  std::printf("ledger (%s): layer          ns/call   calls/pkt   ns/pkt\n",
              c.workload.c_str());
  for (const Term& t : terms) {
    const double share = t.ns * t.calls / pkts;
    layer_sum += share;
    std::printf("ledger   %-22s %9.1f %11.4f %8.1f\n", t.layer, t.ns,
                t.calls / pkts, share);
  }
  std::printf("ledger   sum %.1f ns/pkt of %.1f end to end: coverage %.3f, "
              "unattributed %.1f ns/pkt\n",
              layer_sum, e2e_ns, layer_sum / e2e_ns, e2e_ns - layer_sum);

  // --- the in-process profiler's view of the same corpus -------------------
  {
    auto& prof = obs::prof::profiler;
    prof.enable();
    prof.set_sampling(6361, 16);
    prof.reset();
    const ReplayResult pr = replay(c);
    const obs::prof::Report rep = prof.report();
    prof.disable();
    const double replay_ns = pr.cpu_s * 1e9;
    std::printf("profiler: root %.1f ns/pkt (%.3f of the replay's CPU)\n",
                rep.root_total_ns() / pkts, rep.root_total_ns() / replay_ns);
    for (const obs::prof::EdgeReport& e : rep.edges) {
      const std::string_view stage = obs::prof::stage_name(e.stage);
      if (!stage.starts_with("guard.") && !stage.starts_with("crypto.")) {
        continue;
      }
      std::printf("profiler   %-20s <- %-20s %8.1f ns/pkt  share %.3f\n",
                  obs::prof::stage_name(e.stage),
                  obs::prof::stage_name(e.parent), e.total_ns / pkts,
                  e.total_ns / replay_ns);
    }
  }

  // --- span self times and the span log ------------------------------------
  for (const auto& [name, self] : spans.self_ns_by_name()) {
    std::printf("span self time %-28s %12.3f ms\n", name.c_str(), self * 1e-6);
  }
  const std::string path = in.trace_dir + "/hostbench-trace-" + c.workload +
                           "-" + std::to_string(c.seed) + ".json";
  std::ofstream(path) << spans.to_json();
  std::printf("span log: %zu spans written to %s\n", spans.spans().size(),
              path.c_str());

  put("sim.inject_ns_per_pkt", sim_inject_ns, "ns");
  put("sim.events_per_pkt", static_cast<double>(in.verify->events) / pkts,
      "1/pkt");
  put("dns.decode_ns", decode.ns_per_call, "ns");
  put("dns.decode_allocs", decode.allocs_per_call, "count");
  put("dns.encode_ns", encode.ns_per_call, "ns");
  put("dns.encode_allocs", encode.allocs_per_call, "count");
  put("dns.name_rewrite_ns", rewrite.ns_per_call, "ns");
  put("cookie.mint_label_ns", mint.ns_per_call, "ns");
  put("cookie.mint_label_allocs", mint.allocs_per_call, "count");
  put("cookie.parse_label_ns", parse.ns_per_call, "ns");
  put("cookie.verify_prefix_ns", vprefix.ns_per_call, "ns");
  put("cookie.verify_full_ns", vfull.ns_per_call, "ns");
  put("cookie.verify_jobs_ns_per_job", vjobs.ns_per_call, "ns");
  put("cookie.txt_extract_ns", txt.ns_per_call, "ns");
  put("ratelimit.rl1_allow_ns", rl1_pass.ns_per_call, "ns");
  put("ratelimit.rl2_allow_ns", rl2_pass.ns_per_call, "ns");
  put("ratelimit.refused_ratio",
      limiter_calls == 0 ? 0.0
                         : static_cast<double>(refused) /
                               static_cast<double>(limiter_calls),
      "ratio");
  put("table.pending_upsert_ns", pend.ns_per_call, "ns");
  put("table.nat_close_ns", nat_pass.ns_per_call, "ns");
  put("tcp.segment_ns", seg_pass.ns_per_call, "ns");
  put("tcp.syn_cookie_ns", syn_pass.ns_per_call, "ns");
  put("obs.trace_record_ns", trace_pass.ns_per_call, "ns");
  put("obs.drop_count_ns", drop_pass.ns_per_call, "ns");
  put("guard.mints_per_pkt", per_pkt(minted), "1/pkt");
  put("guard.verifies_per_pkt", per_pkt(checks), "1/pkt");
  put("guard.drops_per_pkt", per_pkt(dropped), "1/pkt");
  put("guard.forwards_per_pkt", per_pkt(forwards), "1/pkt");
  put("guard.allocs_per_pkt", per_pkt(static_cast<double>(replay_allocs)),
      "1/pkt");
  put("guard.rx_queue_drops", static_cast<double>(in.verify->rx_queue_drops),
      "count");
  put("guard.layer_sum_ns_per_pkt", layer_sum, "ns");
  put("guard.layer_coverage", layer_sum / e2e_ns, "ratio");
  put("failed_ratio", in.failed_ratio, "ratio");
  put("trace.overhead_ratio", traced_ns / e2e_ns, "ratio");
  return out;
}

}  // namespace hostbench
