#include "guard/core.h"

#include "common/pool.h"

namespace dnsguard::guard {

namespace {

/// Display name and metric token of each Scheme, in enum order.
constexpr std::string_view kSchemeNames[kSchemeCount][2] = {
    {"pass-through", "pass_through"},
    {"dns-based/ns-name", "ns_name"},
    {"dns-based/fabricated-ns-ip", "fabricated_ns_ip"},
    {"tcp-based", "tcp_redirect"},
    {"modified-dns", "modified_dns"},
};

}  // namespace

std::string scheme_name(Scheme s) {
  return std::string(kSchemeNames[static_cast<std::size_t>(s)][0]);
}

std::string_view scheme_token(Scheme s) {
  return kSchemeNames[static_cast<std::size_t>(s)][1];
}

void GuardStats::bind(obs::MetricsRegistry& registry,
                      std::string_view prefix) {
  std::string p(prefix);
  registry.attach_counter(p + ".requests_seen", requests_seen);
  registry.attach_counter(p + ".forwarded_inactive", forwarded_inactive);
  registry.attach_counter(p + ".cookies_minted", cookies_minted);
  registry.attach_counter(p + ".cookie_checks", cookie_checks);
  registry.attach_counter(p + ".spoofs_dropped", spoofs_dropped);
  registry.attach_counter(p + ".verified_curr_gen", verified_curr_gen);
  registry.attach_counter(p + ".verified_prev_gen", verified_prev_gen);
  registry.attach_counter(p + ".rl1_throttled", rl1_throttled);
  registry.attach_counter(p + ".rl2_throttled", rl2_throttled);
  registry.attach_counter(p + ".forwarded_to_ans", forwarded_to_ans);
  registry.attach_counter(p + ".responses_relayed", responses_relayed);
  registry.attach_counter(p + ".fabricated_referrals", fabricated_referrals);
  registry.attach_counter(p + ".cookie_replies", cookie_replies);
  registry.attach_counter(p + ".tc_redirects", tc_redirects);
  registry.attach_counter(p + ".proxy_queries", proxy_queries);
  registry.attach_counter(p + ".proxy_conn_throttled", proxy_conn_throttled);
  registry.attach_counter(p + ".malformed", malformed);
  registry.attach_counter(p + ".key_rotations", key_rotations);
}

namespace {

/// Ceiling division for splitting total table capacities across shards.
std::size_t ceil_div(std::size_t total, std::size_t n) {
  std::size_t per = (total + n - 1) / n;
  return per == 0 ? 1 : per;
}

// NAT source ports live in [20000, 60000); with N shards each gets a
// disjoint span so a response's destination port identifies its shard.
constexpr std::uint16_t kNatPortBase = 20000;
constexpr std::uint32_t kNatPortSpan = 40000;

ratelimit::CookieResponseLimiter::Config divide_rl1(
    ratelimit::CookieResponseLimiter::Config cfg, std::size_t n) {
  cfg.max_buckets = ceil_div(cfg.max_buckets, n);
  cfg.tracker_capacity = ceil_div(cfg.tracker_capacity, n);
  return cfg;
}

ratelimit::VerifiedRequestLimiter::Config divide_rl2(
    ratelimit::VerifiedRequestLimiter::Config cfg, std::size_t n) {
  cfg.max_hosts = ceil_div(cfg.max_hosts, n);
  return cfg;
}

/// A pending rewrite's key: the DNS id and the requester's address.
std::uint64_t pending_key(std::uint16_t qid, net::Ipv4Address requester) {
  return (static_cast<std::uint64_t>(requester.value()) << 16) | qid;
}

}  // namespace

Core::Core(Config config, EmitFn emit_fn, obs::MetricsRegistry& registry,
           obs::JourneyTracker& journeys, obs::TraceRing& trace)
    : config_(std::move(config)),
      emit_(std::move(emit_fn)),
      journeys_(journeys),
      trace_(trace),
      engine_(config_.key_seed),
      proxy_conns_({.capacity = config_.proxy_max_connections,
                    .evict_lru_when_full = true}) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  const std::size_t n = config_.num_shards;

  const std::uint32_t ports_per_shard =
      kNatPortSpan / static_cast<std::uint32_t>(n);
  nat_ports_per_shard_ = ports_per_shard;
  shards_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto port_base =
        static_cast<std::uint16_t>(kNatPortBase + k * ports_per_shard);
    shards_.push_back(std::make_unique<Shard>(Shard{
        .rl1 = ratelimit::CookieResponseLimiter(divide_rl1(config_.rl1, n)),
        .rl2 = ratelimit::VerifiedRequestLimiter(divide_rl2(config_.rl2, n)),
        .pending = decltype(Shard::pending)(
            {.capacity = ceil_div(config_.pending_table_capacity, n),
             .ttl = config_.pending_ttl}),
        .nat = decltype(Shard::nat)(
            {.capacity = ceil_div(config_.nat_table_capacity, n),
             .ttl = config_.nat_ttl}),
        .conn_buckets = decltype(Shard::conn_buckets)(
            {.capacity = ceil_div(config_.conn_bucket_capacity, n),
             .idle_timeout = config_.conn_bucket_idle}),
        .nat_port_base = port_base,
        .nat_port_limit =
            static_cast<std::uint16_t>(port_base + ports_per_shard),
        .next_nat_port = port_base}));
  }
  cur_shard_ = shards_[0].get();

  tcp_ = std::make_unique<tcp::TcpStack>(
      [this](net::Packet p) { emit(Dest::kRouted, std::move(p)); },
      [this] { return now_; },
      tcp::TcpStack::Callbacks{
          .on_established = {},
          .on_data = [this](tcp::ConnId id,
                            BytesView data) { proxy_on_data(id, data); },
          .on_closed =
              [this](tcp::ConnId id) {
                ProxyConn* pc = proxy_conns_.find(id, now_);
                if (pc == nullptr) return;
                // Each port names its shard (close can fire from timer
                // context, where cur_shard_ is stale). The conn check
                // leaves a port alone that another connection now holds.
                pc->for_each_port([this, id](std::uint16_t port) {
                  shards_[shard_of_nat_port(port)]->nat.erase(
                      port, [id](tcp::ConnId owner) { return owner == id; });
                });
                proxy_conns_.erase(id);
              },
      },
      tcp::TcpStack::Options{
          .syn_cookies = true,
          .syn_cookie_secret = config_.key_seed ^ 0xabcdef0123456789ULL,
          .max_connections = config_.proxy_max_connections});
  tcp_->listen(net::kDnsPort);

  // A NAT entry leaving involuntarily means its ANS reply is never coming
  // (TTL) or its port was recycled under pressure (capacity): close the
  // proxied connection rather than leave the client hanging.
  for (auto& sh : shards_) {
    sh->nat.set_evict_callback([this](const std::uint16_t& port,
                                      tcp::ConnId& conn,
                                      common::EvictReason reason) {
      drops_.count(reason == common::EvictReason::kCapacity
                       ? obs::DropReason::kStateTableFull
                       : obs::DropReason::kProxyTimeout);
      forget_nat_port(conn, port);
      tcp_->close(conn);
    });
  }

  stats_.bind(registry, "guard");
  drops_.bind(registry, "guard");
  tcp_->bind_metrics(registry, "guard.tcp");
  tcp_->set_drop_counters(&drops_);
  tcp_->set_journey_fn([this](net::SocketAddr client, std::string_view stage) {
    journeys_.mark({client.ip.value(), client.port, 0}, stage, now_);
  });
  for (std::size_t k = 0; k < n; ++k) {
    // A single shard keeps the historical "guard.rl1"-style names.
    const std::string p = n == 1 ? "guard" : "guard.shard" + std::to_string(k);
    shards_[k]->rl1.bind_metrics(registry, p + ".rl1");
    shards_[k]->rl2.bind_metrics(registry, p + ".rl2");
    shards_[k]->pending.bind_metrics(registry, p + ".pending");
    shards_[k]->nat.bind_metrics(registry, p + ".nat");
    shards_[k]->conn_buckets.bind_metrics(registry, p + ".conn_buckets");
  }
  for (std::size_t i = 0; i < kSchemeCount; ++i) {
    std::string p =
        "guard.scheme." + std::string(scheme_token(static_cast<Scheme>(i)));
    registry.attach_counter(p + ".minted", scheme_counters_[i].minted);
    registry.attach_counter(p + ".verified", scheme_counters_[i].verified);
    registry.attach_counter(p + ".dropped", scheme_counters_[i].dropped);
  }
}

void Core::rotate_keys(SimTime now) {
  now_ = now;
  // Derive the next generation's seed deterministically from the base
  // seed and the generation counter; a deployment would draw randomness.
  std::uint64_t next_seed =
      config_.key_seed ^ (0x9e3779b97f4a7c15ULL * (engine_.generation() + 1));
  engine_.rotate(next_seed);
  stats_.key_rotations++;
}

void Core::reap_proxy(SimTime now) {
  now_ = now;
  SimDuration max_life = SimDuration{static_cast<std::int64_t>(
      config_.estimated_rtt.ns * config_.proxy_lifetime_rtt_multiple)};
  tcp_->reap(SimDuration{0}, max_life);
}

bool Core::protection_active(SimTime now) const {
  if (config_.activation_threshold_rps <= 0) return true;
  return request_rate_.rate(now) > config_.activation_threshold_rps;
}

void Core::emit(Dest to, net::Packet p) {
  charge(config_.costs.packet);
  emit_(to, std::move(p));
}

void Core::emit_copy(const net::Packet& packet, net::Ipv4Address src) {
  // The payload copy draws its buffer from the pool the node service loop
  // refills with consumed payloads, so relaying allocates nothing.
  net::Packet out;
  out.src_ip = src;
  out.dst_ip = packet.dst_ip;
  out.ttl = packet.ttl;
  out.transport = packet.transport;
  out.payload = BufferPool::local().acquire(packet.payload.size());
  out.payload.assign(packet.payload.begin(), packet.payload.end());
  emit(Dest::kRouted, std::move(out));
}

void Core::trace_packet(obs::TraceEvent event, const net::Packet& packet,
                        obs::DropReason reason) {
  const Bytes& b = packet.payload;
  const auto info =
      static_cast<std::uint16_t>(b.size() >= 2 ? (b[0] << 8) | b[1] : 0);
  trace_.record(now_, event, packet.src_ip.value(), packet.dst_ip.value(),
                info, reason);
}

void Core::drop_spoof(const net::Packet& packet, Scheme scheme,
                      obs::DropReason reason) {
  stats_.spoofs_dropped++;
  scheme_cells(scheme).dropped++;
  drops_.count(reason);
  trace_packet(obs::TraceEvent::kDrop, packet, reason);
  jend("guard.drop", /*ok=*/false);
  charge(config_.costs.drop);
}

void Core::drop_other(const net::Packet& packet, obs::DropReason reason) {
  drops_.count(reason);
  trace_packet(obs::TraceEvent::kDrop, packet, reason);
  jend("guard.drop", /*ok=*/false);
}

void Core::drop_proxied(tcp::ConnId conn, obs::DropReason reason) {
  drops_.count(reason);
  if (auto remote = tcp_->remote_of(conn)) {
    trace_.record(now_, obs::TraceEvent::kDrop, remote->ip.value(),
                  config_.ans_address.value(), remote->port, reason);
  }
}

bool Core::admit_rl1(const net::Packet& packet) {
  if (cur_shard_->rl1.allow(packet.src_ip, now_)) return true;
  stats_.rl1_throttled++;
  drop_other(packet, obs::DropReason::kRateLimited1);
  return false;
}

bool Core::admit_verified(const net::Packet& packet, Scheme scheme,
                          const crypto::VerifyResult& vr) {
  charge(config_.costs.cookie);
  stats_.cookie_checks++;
  if (!vr.ok) {
    // `stale` (not `used_previous`) picks the reason: only a failure that
    // matches a retired key generation is a stale-cookie retry; anything
    // else is a forgery.
    drop_spoof(packet, scheme,
               vr.stale ? obs::DropReason::kStaleKey
                        : obs::DropReason::kBadCookie);
    return false;
  }
  if (vr.used_previous) {
    stats_.verified_prev_gen++;
  } else {
    stats_.verified_curr_gen++;
  }
  scheme_cells(scheme).verified++;
  jmark("guard.verify");
  if (cur_shard_->rl2.allow(packet.src_ip, now_)) return true;
  stats_.rl2_throttled++;
  drop_other(packet, obs::DropReason::kRateLimited2);
  return false;
}

void Core::reply(const net::Packet& to, const dns::Message& response) {
  charge(config_.costs.transform);
  trace_packet(obs::TraceEvent::kRewrite, to);
  emit(Dest::kRouted,
       net::Packet::make_udp({to.dst_ip, net::kDnsPort}, to.src(),
                             response.encode_pooled()));
}

void Core::forward_to_ans(const net::Packet& original,
                          const dns::Message& query) {
  stats_.forwarded_to_ans++;
  if (cur_jkey_valid_ && query.question() != nullptr) {
    // The question may have been restored/rewritten: teach the journey the
    // key the ANS response will come back under.
    journeys_.alias(
        cur_jkey_, {original.src_ip.value(), query.header.id,
                    query.question()->qname.hash32()});
    jmark("guard.fwd_ans");
  }
  net::Packet p = net::Packet::make_udp(
      original.src(), {config_.ans_address, net::kDnsPort},
      query.encode_pooled());
  emit(Dest::kAns, std::move(p));
}

std::size_t Core::shard_of_ip(net::Ipv4Address ip) const {
  // Multiply-shift: spread the (often sequential) source space over the
  // shards without modulo bias.
  const std::uint32_t h = ip.value() * 0x9e3779b9u;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(h) * shards_.size()) >> 32);
}

std::size_t Core::shard_of_nat_port(std::uint16_t port) const {
  if (port < kNatPortBase || nat_ports_per_shard_ == 0) return 0;
  const std::size_t k = (port - kNatPortBase) / nat_ports_per_shard_;
  return k < shards_.size() ? k : 0;
}

std::size_t Core::shard_of(const net::Packet& packet) const {
  if (shards_.size() == 1) return 0;
  if (packet.is_udp() && packet.src_ip == config_.ans_address) {
    if (packet.dst_ip == config_.guard_address) {
      // Proxied-query reply: the NAT destination port identifies the
      // shard that allocated it (the client's shard).
      return shard_of_nat_port(packet.udp().dst_port);
    }
    // Plain ANS response: owned by the requester's shard.
    return shard_of_ip(packet.dst_ip);
  }
  return shard_of_ip(packet.src_ip);
}

SimDuration Core::step(const net::Packet& packet, SimTime now) {
  now_ = now;
  cost_ = config_.costs.packet;  // ingress processing
  cur_jkey_valid_ = false;
  cur_shard_ = shards_[shard_of(packet)].get();

  if (packet.is_tcp()) {
    // TCP path: either the proxy itself, or (pass-through schemes) raw
    // forwarding to the ANS.
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardTcpProxy);
    charge(config_.costs.proxy_segment);
    charge(SimDuration{static_cast<std::int64_t>(
        config_.costs.proxy_table_per_conn.ns *
        static_cast<std::int64_t>(tcp_->connection_count()))});
    if (packet.tcp().flags.syn && !packet.tcp().flags.ack) {
      charge(config_.costs.proxy_connection);
      // Per-client connection-rate throttle (§III.C). The bucket table is
      // bounded: idle clients are reaped incrementally and the LRU client
      // is recycled at capacity, so a SYN flood from spoofed sources
      // cannot grow it without limit.
      cur_shard_->conn_buckets.reap(now_, 8);
      auto bucket = cur_shard_->conn_buckets.try_emplace(
          packet.src_ip, now_,
          ratelimit::TokenBucket(config_.proxy_conn_rate,
                                 config_.proxy_conn_burst));
      if (!bucket.value->try_consume(now_)) {
        stats_.proxy_conn_throttled++;
        drop_other(packet, obs::DropReason::kProxyConnThrottled);
        return cost_;
      }
    }
    tcp_->handle_packet(packet);
    return cost_;
  }

  if (!packet.is_udp()) {
    // Neither TCP nor UDP: nothing the guard can interpret.
    drop_other(packet, obs::DropReason::kMalformed);
    return cost_;
  }

  // Responses coming back from the protected ANS (via its gateway).
  if (packet.src_ip == config_.ans_address) {
    if (packet.dst_ip == config_.guard_address) {
      handle_proxy_nat_response(packet);
    } else {
      handle_ans_response(packet);
    }
    return cost_;
  }

  bool decoded = false;
  {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardDecode);
    decoded = dns::Message::decode_into(BytesView(packet.payload), request_);
  }
  if (!decoded || request_.header.qr || request_.question() == nullptr) {
    stats_.malformed++;
    drop_other(packet, obs::DropReason::kMalformed);
    charge(config_.costs.drop);
    return cost_;
  }

  handle_request(packet, request_);
  return cost_;
}

void Core::handle_request(const net::Packet& packet, dns::Message& query) {
  stats_.requests_seen++;
  trace_packet(obs::TraceEvent::kClassify, packet);
  if (journeys_.enabled()) {
    cur_jkey_ = {packet.src_ip.value(), query.header.id,
                 query.question()->qname.hash32()};
    cur_jkey_valid_ = true;
    jmark("guard.rx");
  }
  request_rate_.record(now_);

  if (!protection_active(now_)) {
    // Below the activation threshold every request goes straight through
    // (§IV.C) — queries to fabricated subnet addresses have no meaning
    // in this mode and are redirected to the real server.
    stats_.forwarded_inactive++;
    forward_to_ans(packet, query);
    return;
  }

  // Fig. 4: the cookie checker handles all incoming UDP requests; a
  // request carrying the modified-DNS TXT cookie takes that path no
  // matter which scheme is configured for cookie-incapable requesters.
  if (auto cookie = CookieEngine::extract_txt_cookie(query)) {
    do_modified_dns(packet, query, *cookie);
    return;
  }

  const auto own = config_.per_source_scheme.find(packet.src_ip);
  switch (own != config_.per_source_scheme.end() ? own->second
                                                 : config_.scheme) {
    case Scheme::PassThrough:
      forward_to_ans(packet, query);
      return;
    case Scheme::ModifiedDns:
      // Cookie-incapable requester under a modified-DNS-only guard: fall
      // back to the transparent NS-name scheme (Fig. 4).
      [[fallthrough]];
    case Scheme::NsName:
      do_ns_name(packet, query);
      return;
    case Scheme::FabricatedNsIp:
      do_fabricated_ns_ip(packet, query, packet.dst_ip != config_.ans_address);
      return;
    case Scheme::TcpRedirect:
      if (admit_rl1(packet)) do_tcp_redirect(packet, query);
      return;
  }
}

// --- modified-DNS scheme (§III.D) -------------------------------------------

void Core::do_modified_dns(const net::Packet& packet, dns::Message& query,
                           const crypto::Cookie& cookie) {
  if (CookieEngine::is_zero_cookie(cookie)) {
    // msg 2: a cookie request. Reply msg 3 (same size; no amplification),
    // through Rate-Limiter1.
    if (!admit_rl1(packet)) return;
    charge(config_.costs.cookie);
    stats_.cookies_minted++;
    scheme_cells(Scheme::ModifiedDns).minted++;
    jmark("guard.mint");
    out_.reset_response_to(query);
    CookieEngine::attach_txt_cookie(out_, engine_.mint(packet.src_ip),
                                    config_.cookie_ttl);
    stats_.cookie_replies++;
    reply(packet, out_);
    return;
  }

  if (!admit_verified(packet, Scheme::ModifiedDns,
                      engine_.verify_ex(packet.src_ip, cookie))) {
    return;
  }
  // msg 5: strip the extension; the ANS never sees cookies.
  CookieEngine::strip_txt_cookie(query);
  charge(config_.costs.transform);
  trace_packet(obs::TraceEvent::kRewrite, packet);
  forward_to_ans(packet, query);
}

// --- DNS-based scheme, NS-name variant (§III.B.1, Fig. 2(a)) ----------------

void Core::do_ns_name(const net::Packet& packet, dns::Message& query) {
  dns::Question& q = query.questions.front();
  const auto& zone = config_.protected_zone;

  // Is this a cookie query (msg 3): [cookie-label] directly under the
  // protected zone?
  if (q.qname.label_count() == zone.label_count() + 1 &&
      q.qname.is_subdomain_of(zone)) {
    if (auto parsed = CookieEngine::parse_cookie_label(q.qname.first_label())) {
      if (!admit_verified(packet, Scheme::NsName,
                          engine_.verify_prefix_ex(packet.src_ip,
                                                   parsed->cookie_prefix))) {
        return;
      }
      // msg 4: restore the next-level question. "PRxxxxxxxxcom" under the
      // root zone asks the root server about "com.".
      auto restored = zone.with_prefix_label(parsed->restore_label);
      if (!restored) {
        drop_spoof(packet, Scheme::NsName, obs::DropReason::kLabelOverflow);
        return;
      }
      charge(config_.costs.transform);
      trace_packet(obs::TraceEvent::kRewrite, packet);
      remember(query.header.id, packet.src_ip,
               {.kind = PendingAction::Kind::RestoreNsName,
                .fabricated_qname = q.qname,
                .original_qtype = q.qtype});
      q.qname = *restored;
      forward_to_ans(packet, query);
      return;
    }
  }

  // msg 1 -> msg 2: fabricate a referral whose NS name embeds the cookie.
  if (!admit_rl1(packet)) return;
  if (q.qname.label_count() <= zone.label_count()) {
    // Query for the zone apex itself: nothing to refer to; use the TCP
    // fallback so the request can still be served spoof-checked.
    do_tcp_redirect(packet, query);
    return;
  }
  refer_to_cookie_ns(packet, query, Scheme::NsName,
                     q.qname.suffix(zone.label_count() + 1), zone);
}

void Core::refer_to_cookie_ns(const net::Packet& packet,
                              const dns::Message& query, Scheme scheme,
                              const dns::DomainName& owner,
                              const dns::DomainName& parent) {
  charge(config_.costs.cookie);
  stats_.cookies_minted++;
  scheme_cells(scheme).minted++;
  jmark("guard.mint");
  // An oversized original label leaves no room for the cookie.
  std::optional<dns::DomainName> fabricated;
  if (auto label = engine_.make_cookie_label(packet.src_ip,
                                             owner.first_label())) {
    fabricated = parent.with_prefix_label(*label);
  }
  if (!fabricated) {
    do_tcp_redirect(packet, query);
    return;
  }
  out_.reset_response_to(query);
  out_.authority.push_back(
      dns::ResourceRecord::ns(owner, *fabricated, config_.fabricated_ns_ttl));
  stats_.fabricated_referrals++;
  reply(packet, out_);
}

void Core::remember(std::uint16_t qid, net::Ipv4Address requester,
                    PendingAction action) {
  const std::uint64_t key = pending_key(qid, requester);
  cur_shard_->pending.erase(key);
  cur_shard_->pending.try_emplace(key, now_, std::move(action));
}

// --- DNS-based scheme, fabricated NS+IP variant (§III.B.2, Fig. 2(b)) -------

void Core::do_fabricated_ns_ip(const net::Packet& packet,
                               const dns::Message& query, bool to_subnet) {
  const dns::Question& q = *query.question();

  if (to_subnet) {
    // msg 7: the destination address is the cookie (COOKIE2).
    if (!admit_verified(packet, Scheme::FabricatedNsIp,
                        engine_.verify_cookie_address_ex(
                            packet.src_ip, packet.dst_ip, config_.subnet_base,
                            config_.r_y))) {
      return;
    }
    remember(query.header.id, packet.src_ip,
             {.kind = PendingAction::Kind::RelaySourceIp,
              .reply_src = packet.dst_ip});
    forward_to_ans(packet, query);  // msg 8: unchanged question
    return;
  }

  // msg 3: query for the fabricated NS name?
  if (q.qname.label_count() >= 1) {
    if (auto parsed = CookieEngine::parse_cookie_label(q.qname.first_label())) {
      if (!admit_verified(packet, Scheme::FabricatedNsIp,
                          engine_.verify_prefix_ex(packet.src_ip,
                                                   parsed->cookie_prefix))) {
        return;
      }
      // msg 6: answer with the second cookie as the fabricated server's
      // address. One more cookie computation (COOKIE2).
      charge(config_.costs.cookie);
      jmark("guard.mint");
      net::Ipv4Address cookie2 = engine_.make_cookie_address(
          packet.src_ip, config_.subnet_base, config_.r_y);
      out_.reset_response_to(query);
      out_.header.aa = true;
      out_.answers.push_back(
          dns::ResourceRecord::a(q.qname, cookie2, config_.cookie_ttl));
      stats_.cookie_replies++;
      reply(packet, out_);
      return;
    }
  }

  // msg 1 -> msg 2: fabricate an ANS for the queried name itself.
  if (!admit_rl1(packet)) return;
  if (q.qname.is_root()) {
    do_tcp_redirect(packet, query);
    return;
  }
  refer_to_cookie_ns(packet, query, Scheme::FabricatedNsIp, q.qname,
                     q.qname.parent());
}

// --- TCP-based scheme (§III.C) ----------------------------------------------

void Core::do_tcp_redirect(const net::Packet& packet,
                           const dns::Message& query) {
  out_.reset_response_to(query);
  out_.header.tc = true;  // same size as the request: no amplification
  stats_.tc_redirects++;
  jmark("guard.tc_redirect");
  reply(packet, out_);
}

void Core::ProxyConn::add_port(std::uint16_t port) {
  if (inline_ports < kInlinePorts) {
    ports[inline_ports++] = port;
  } else {
    spilled_ports.push_back(port);
  }
}

void Core::ProxyConn::remove_port(std::uint16_t port) {
  for (std::size_t i = 0; i < inline_ports; ++i) {
    if (ports[i] != port) continue;
    ports[i] = ports[--inline_ports];
    if (!spilled_ports.empty()) {
      ports[inline_ports++] = spilled_ports.back();
      spilled_ports.pop_back();
    }
    return;
  }
  std::erase(spilled_ports, port);
}

void Core::forget_nat_port(tcp::ConnId conn, std::uint16_t port) {
  if (ProxyConn* pc = proxy_conns_.find(conn, now_)) pc->remove_port(port);
}

void Core::proxy_on_data(tcp::ConnId conn, BytesView message) {
  if (!dns::Message::decode_into(message, request_) ||
      request_.header.qr || request_.question() == nullptr) {
    stats_.malformed++;
    drop_proxied(conn, obs::DropReason::kMalformed);
    return;
  }
  auto remote = tcp_->remote_of(conn);
  if (!remote) return;
  const dns::Message& query = request_;
  if (journeys_.enabled()) {
    // Merge the TCP-handshake journey (keyed by the client endpoint)
    // with the DNS query it carried.
    cur_jkey_ = {remote->ip.value(), query.header.id,
                 query.question()->qname.hash32()};
    cur_jkey_valid_ = true;
    journeys_.alias({remote->ip.value(), remote->port, 0}, cur_jkey_);
    jmark("guard.proxy_query");
  }
  // TCP handshake completion already proved the source address; still
  // apply Rate-Limiter2 like any verified requester.
  if (!cur_shard_->rl2.allow(remote->ip, now_)) {
    stats_.rl2_throttled++;
    drop_proxied(conn, obs::DropReason::kRateLimited2);
    jend("guard.drop", /*ok=*/false);
    return;
  }
  stats_.proxy_queries++;
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardNat);
  // Convert to UDP toward the ANS, NATed to the guard's own address.
  // Source-port allocation probes past ports with a live NAT entry, so a
  // collision never orphans an in-flight query. Expired entries are
  // reaped on the same path. Candidates stay inside the shard's disjoint
  // port range so the ANS reply routes back here.
  Shard& sh = *cur_shard_;
  sh.nat.reap(now_, 16);
  std::optional<std::uint16_t> port;
  for (int probe = 0; probe < config_.nat_port_probe_limit; ++probe) {
    const std::uint16_t candidate = sh.next_nat_port++;
    if (sh.next_nat_port < sh.nat_port_base ||
        sh.next_nat_port >= sh.nat_port_limit) {
      sh.next_nat_port = sh.nat_port_base;
    }
    auto r = sh.nat.try_emplace(candidate, now_, conn);
    if (r.inserted) {
      port = candidate;
      break;
    }
    if (r.value == nullptr) break;  // table refused the insert
  }
  if (!port) {
    drop_proxied(conn, obs::DropReason::kStateTableFull);
    jend("guard.drop", /*ok=*/false);
    return;
  }
  // The record evicts its LRU peer when full, so the insert always lands.
  proxy_conns_.try_emplace(conn, now_).value->add_port(*port);
  charge(config_.costs.transform);
  stats_.forwarded_to_ans++;
  emit(Dest::kAns, net::Packet::make_udp({config_.guard_address, *port},
                                         {config_.ans_address, net::kDnsPort},
                                         query.encode_pooled()));
}

void Core::handle_proxy_nat_response(const net::Packet& packet) {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardNat);
  const std::uint16_t port = packet.udp().dst_port;
  const tcp::ConnId* found = cur_shard_->nat.find(port, now_);
  if (found == nullptr) {
    // No NAT entry: the proxied connection is gone (reaped / recycled) or
    // the response is a stray.
    drop_other(packet, obs::DropReason::kUnmatchedResponse);
    return;
  }
  const tcp::ConnId conn = *found;
  if (journeys_.enabled()) {
    if (auto remote = tcp_->remote_of(conn)) {
      journeys_.mark({remote->ip.value(), remote->port, 0},
                     "guard.proxy_relay", now_);
    }
  }
  cur_shard_->nat.erase(port);
  forget_nat_port(conn, port);
  charge(config_.costs.transform);
  stats_.responses_relayed++;
  tcp_->send_message(conn, BytesView(packet.payload));
  // DNS-over-TCP here is one query per connection; closing after the
  // response keeps the proxy's connection table small (§III.C's concern).
  tcp_->close(conn);
}

void Core::handle_ans_response(const net::Packet& packet) {
  // Amortized reaping of expired rewrite state.
  cur_shard_->pending.reap(now_, 16);

  if (!dns::Message::decode_into(BytesView(packet.payload), ans_reply_) ||
      !ans_reply_.header.qr) {
    // Not a DNS response we can interpret; pass through untouched.
    emit_copy(packet, packet.src_ip);
    return;
  }
  const dns::Message& m = ans_reply_;

  if (journeys_.enabled() && m.question() != nullptr) {
    cur_jkey_ = {packet.dst_ip.value(), m.header.id,
                 m.question()->qname.hash32()};
    cur_jkey_valid_ = true;
    jmark("guard.relay");
  }

  const std::uint64_t pkey = pending_key(m.header.id, packet.dst_ip);
  PendingAction* found = cur_shard_->pending.find(pkey, now_);
  if (found == nullptr) {
    stats_.responses_relayed++;
    emit_copy(packet, packet.src_ip);
    return;
  }
  PendingAction action = std::move(*found);
  cur_shard_->pending.erase(pkey);

  switch (action.kind) {
    case PendingAction::Kind::RestoreNsName: {
      // msg 5 -> msg 6: return the next-level servers' addresses as the
      // fabricated name's A records (Fig. 2(a)).
      out_.clear();
      out_.header.id = m.header.id;
      out_.header.qr = true;
      out_.header.aa = true;
      out_.questions.push_back(dns::Question{action.fabricated_qname,
                                             action.original_qtype,
                                             dns::RrClass::IN});
      for (const auto* section : {&m.answers, &m.additional}) {
        for (const auto& rr : *section) {
          if (rr.type == dns::RrType::A) {
            out_.answers.push_back(dns::ResourceRecord::a(
                action.fabricated_qname,
                std::get<dns::ARdata>(rr.rdata).address, rr.ttl));
          }
        }
      }
      if (out_.answers.empty()) out_.header.rcode = dns::Rcode::ServFail;
      charge(config_.costs.transform);
      trace_packet(obs::TraceEvent::kRewrite, packet);
      stats_.responses_relayed++;
      emit(Dest::kRouted,
           net::Packet::make_udp({config_.ans_address, net::kDnsPort},
                                 packet.dst(), out_.encode_pooled()));
      return;
    }
    case PendingAction::Kind::RelaySourceIp: {
      // msg 9 -> msg 10: the LRS asked COOKIE2, so the answer must come
      // from COOKIE2 (Fig. 2(b)).
      charge(config_.costs.transform);
      trace_packet(obs::TraceEvent::kRewrite, packet);
      stats_.responses_relayed++;
      emit_copy(packet, action.reply_src);
      return;
    }
  }
}

}  // namespace dnsguard::guard
