#include "guard/remote_guard.h"

#include "common/log.h"

namespace dnsguard::guard {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::PassThrough: return "pass-through";
    case Scheme::NsName: return "dns-based/ns-name";
    case Scheme::FabricatedNsIp: return "dns-based/fabricated-ns-ip";
    case Scheme::TcpRedirect: return "tcp-based";
    case Scheme::ModifiedDns: return "modified-dns";
  }
  return "?";
}

std::string_view scheme_token(Scheme s) {
  switch (s) {
    case Scheme::PassThrough: return "pass_through";
    case Scheme::NsName: return "ns_name";
    case Scheme::FabricatedNsIp: return "fabricated_ns_ip";
    case Scheme::TcpRedirect: return "tcp_redirect";
    case Scheme::ModifiedDns: return "modified_dns";
  }
  return "unknown";
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

}  // namespace

ratelimit::CookieResponseLimiter::Config RemoteGuardNode::divide_rl1(
    ratelimit::CookieResponseLimiter::Config cfg, std::size_t n) {
  cfg.max_buckets = ceil_div(cfg.max_buckets, n);
  cfg.tracker_capacity = ceil_div(cfg.tracker_capacity, n);
  return cfg;
}

ratelimit::VerifiedRequestLimiter::Config RemoteGuardNode::divide_rl2(
    ratelimit::VerifiedRequestLimiter::Config cfg, std::size_t n) {
  cfg.max_hosts = ceil_div(cfg.max_hosts, n);
  return cfg;
}

RemoteGuardNode::RemoteGuardNode(sim::Simulator& sim, std::string name,
                                 Config config, sim::Node* ans)
    : sim::Node(sim, std::move(name), config.rx_queue_capacity),
      config_(std::move(config)),
      ans_(ans),
      engine_(config_.key_seed),
      framers_({.capacity = config_.proxy_max_connections,
                .evict_lru_when_full = true}) {
  set_profile_stage(obs::prof::Stage::kGuardService);
  if (config_.num_shards == 0) config_.num_shards = 1;
  const std::size_t n = config_.num_shards;

  const std::uint32_t ports_per_shard = kNatPortSpan / static_cast<std::uint32_t>(n);
  nat_ports_per_shard_ = ports_per_shard;
  shards_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto sh = std::make_unique<Shard>(Shard{
        ratelimit::CookieResponseLimiter(divide_rl1(config_.rl1, n)),
        ratelimit::VerifiedRequestLimiter(divide_rl2(config_.rl2, n)),
        common::BoundedTable<PendingKey, PendingAction, PendingKeyHash>(
            {.capacity = ceil_div(config_.pending_table_capacity, n),
             .ttl = config_.pending_ttl}),
        common::BoundedTable<std::uint16_t, NatEntry>(
            {.capacity = ceil_div(config_.nat_table_capacity, n),
             .ttl = config_.nat_ttl}),
        common::BoundedTable<net::Ipv4Address, ratelimit::TokenBucket>(
            {.capacity = ceil_div(config_.conn_bucket_capacity, n),
             .idle_timeout = config_.conn_bucket_idle}),
        /*nat_port_base=*/
        static_cast<std::uint16_t>(kNatPortBase + k * ports_per_shard),
        /*nat_port_limit=*/
        static_cast<std::uint16_t>(kNatPortBase + (k + 1) * ports_per_shard),
        /*next_nat_port=*/
        static_cast<std::uint16_t>(kNatPortBase + k * ports_per_shard)});
    shards_.push_back(std::move(sh));
  }
  cur_shard_ = shards_[0].get();

  if (n > 1) {
    enable_sharded_service(n,
                           std::max<std::size_t>(
                               config_.rx_queue_capacity / n, std::size_t{16}),
                           config_.shard_batch_max);
  }

  tcp_ = std::make_unique<tcp::TcpStack>(
      [this](net::Packet p) { emit(std::move(p)); },
      [this] { return now(); },
      tcp::TcpStack::Callbacks{
          .on_established = {},
          .on_data = [this](tcp::ConnId id,
                            BytesView data) { proxy_on_data(id, data); },
          .on_closed =
              [this](tcp::ConnId id) {
                framers_.erase(id);
                // A connection's NAT entries live in the shard of its
                // client address; close can fire from timer context where
                // cur_shard_ is stale, so sweep every shard.
                for (auto& sh : shards_) {
                  sh->nat.erase_if(
                      [id](const std::uint16_t&, const NatEntry& e) {
                        return e.conn == id;
                      });
                }
              },
      },
      tcp::TcpStack::Options{.syn_cookies = true,
                             .syn_cookie_secret = config_.key_seed ^
                                                  0xabcdef0123456789ULL,
                             .max_connections =
                                 config_.proxy_max_connections});
  tcp_->listen(net::kDnsPort);

  // A NAT entry leaving involuntarily means its ANS reply is never coming
  // (TTL) or its port was recycled under pressure (capacity): close the
  // proxied connection rather than leave the client hanging.
  for (auto& sh : shards_) {
    sh->nat.set_evict_callback([this](const std::uint16_t&, NatEntry& e,
                                      common::EvictReason reason) {
      drops_.count(reason == common::EvictReason::kCapacity
                       ? obs::DropReason::kStateTableFull
                       : obs::DropReason::kProxyTimeout);
      tcp_->close(e.conn);
    });
  }

  obs::MetricsRegistry& registry = this->sim().metrics();
  stats_.bind(registry, "guard");
  drops_.bind(registry, "guard");
  tcp_->bind_metrics(registry, "guard.tcp");
  tcp_->set_drop_counters(&drops_);
  tcp_->set_journey_fn([this](net::SocketAddr client, std::string_view stage) {
    this->sim().journeys().mark({client.ip.value(), client.port, 0}, stage,
                                now());
  });
  if (n == 1) {
    // Single shard keeps the historical metric names so existing tests,
    // baselines and dashboards are untouched.
    shards_[0]->rl1.bind_metrics(registry, "guard.rl1");
    shards_[0]->rl2.bind_metrics(registry, "guard.rl2");
    shards_[0]->pending.bind_metrics(registry, "guard.pending");
    shards_[0]->nat.bind_metrics(registry, "guard.nat");
    shards_[0]->conn_buckets.bind_metrics(registry, "guard.conn_buckets");
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      const std::string p = "guard.shard" + std::to_string(k);
      shards_[k]->rl1.bind_metrics(registry, p + ".rl1");
      shards_[k]->rl2.bind_metrics(registry, p + ".rl2");
      shards_[k]->pending.bind_metrics(registry, p + ".pending");
      shards_[k]->nat.bind_metrics(registry, p + ".nat");
      shards_[k]->conn_buckets.bind_metrics(registry, p + ".conn_buckets");
    }
  }
  for (std::size_t i = 0; i < kSchemeCount; ++i) {
    std::string p =
        "guard.scheme." + std::string(scheme_token(static_cast<Scheme>(i)));
    registry.attach_counter(p + ".minted", scheme_counters_[i].minted);
    registry.attach_counter(p + ".verified", scheme_counters_[i].verified);
    registry.attach_counter(p + ".dropped", scheme_counters_[i].dropped);
  }

  if (config_.proxy_lifetime_rtt_multiple > 0) {
    schedule_in(config_.estimated_rtt, [this] { proxy_reap_loop(); });
  }
  if (config_.key_rotation_interval.ns > 0) {
    schedule_in(config_.key_rotation_interval, [this] { rotation_loop(); });
  }
}

void RemoteGuardNode::rotation_loop() {
  // Derive the next generation's seed deterministically from the base
  // seed and the generation counter; a deployment would draw randomness.
  std::uint64_t next_seed =
      config_.key_seed ^ (0x9e3779b97f4a7c15ULL * (engine_.generation() + 1));
  engine_.rotate(next_seed);
  stats_.key_rotations++;
  schedule_in(config_.key_rotation_interval, [this] { rotation_loop(); });
}

void RemoteGuardNode::proxy_reap_loop() {
  SimDuration max_life = SimDuration{static_cast<std::int64_t>(
      config_.estimated_rtt.ns * config_.proxy_lifetime_rtt_multiple)};
  tcp_->reap(SimDuration{0}, max_life);
  schedule_in(config_.estimated_rtt, [this] { proxy_reap_loop(); });
}

void RemoteGuardNode::install(int subnet_prefix_len) {
  sim().add_host_route(config_.ans_address, this);
  sim().add_host_route(config_.guard_address, this);
  if (config_.scheme == Scheme::FabricatedNsIp ||
      config_.per_source_scheme.size() > 0) {
    sim().add_route(config_.subnet_base, subnet_prefix_len, this);
  }
  sim().set_gateway(ans_, this);
  installed_ = true;
}

void RemoteGuardNode::uninstall() {
  sim().remove_routes_to(this);
  sim().add_host_route(config_.ans_address, ans_);
  sim().clear_gateway(ans_);
  installed_ = false;
}

bool RemoteGuardNode::protection_active() const {
  if (config_.activation_threshold_rps <= 0) return true;
  return request_rate_.rate(sim().now()) > config_.activation_threshold_rps;
}

Scheme RemoteGuardNode::effective_scheme(net::Ipv4Address src) const {
  auto it = config_.per_source_scheme.find(src);
  if (it != config_.per_source_scheme.end()) return it->second;
  return config_.scheme;
}

void RemoteGuardNode::emit(net::Packet p) {
  charge(config_.costs.packet);
  send(std::move(p));
}

void RemoteGuardNode::emit_direct(sim::Node* to, net::Packet p) {
  charge(config_.costs.packet);
  send_direct(to, std::move(p));
}

void RemoteGuardNode::jmark(std::string_view stage) {
  if (cur_jkey_valid_) sim().journeys().mark(cur_jkey_, stage, now());
}

void RemoteGuardNode::jend(std::string_view stage, bool ok) {
  if (cur_jkey_valid_) sim().journeys().end(cur_jkey_, stage, now(), ok);
}

void RemoteGuardNode::drop_spoof(const net::Packet& packet, Scheme scheme,
                                 obs::DropReason reason) {
  stats_.spoofs_dropped++;
  scheme_cells(scheme).dropped++;
  drops_.count(reason);
  trace(obs::TraceEvent::kDrop, packet, reason);
  jend("guard.drop", /*ok=*/false);
  charge(config_.costs.drop);
}

void RemoteGuardNode::drop_other(const net::Packet& packet,
                                 obs::DropReason reason) {
  drops_.count(reason);
  trace(obs::TraceEvent::kDrop, packet, reason);
  jend("guard.drop", /*ok=*/false);
}

void RemoteGuardNode::note_verified(Scheme scheme, bool used_previous) {
  if (used_previous) {
    stats_.verified_prev_gen++;
  } else {
    stats_.verified_curr_gen++;
  }
  scheme_cells(scheme).verified++;
  jmark("guard.verify");
}

bool RemoteGuardNode::admit_rl1(const net::Packet& packet) {
  if (cur_shard_->rl1.allow(packet.src_ip, now())) return true;
  stats_.rl1_throttled++;
  drop_other(packet, obs::DropReason::kRateLimited1);
  return false;
}

bool RemoteGuardNode::admit_verified(const net::Packet& packet, Scheme scheme,
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
  note_verified(scheme, vr.used_previous);
  if (cur_shard_->rl2.allow(packet.src_ip, now())) return true;
  stats_.rl2_throttled++;
  drop_other(packet, obs::DropReason::kRateLimited2);
  return false;
}

void RemoteGuardNode::reply(const net::Packet& to, dns::Message response,
                            std::optional<net::Ipv4Address> src_override) {
  charge(config_.costs.transform);
  trace(obs::TraceEvent::kRewrite, to);
  net::Ipv4Address src = src_override.value_or(to.dst_ip);
  emit(net::Packet::make_udp({src, net::kDnsPort}, to.src(),
                             response.encode_pooled()));
}

void RemoteGuardNode::forward_to_ans(const net::Packet& original,
                                     dns::Message query) {
  stats_.forwarded_to_ans++;
  if (cur_jkey_valid_ && query.question() != nullptr) {
    // The question may have been restored/rewritten: teach the journey the
    // key the ANS response will come back under.
    sim().journeys().alias(
        cur_jkey_, {original.src_ip.value(), query.header.id,
                    query.question()->qname.hash32()});
    jmark("guard.fwd_ans");
  }
  net::Packet p = net::Packet::make_udp(
      original.src(), {config_.ans_address, net::kDnsPort},
      query.encode_pooled());
  emit_direct(ans_, std::move(p));
}

std::size_t RemoteGuardNode::shard_of_ip(net::Ipv4Address ip) const {
  // Multiply-shift: spread the (often sequential) source space over the
  // shards without modulo bias.
  const std::uint32_t h = ip.value() * 0x9e3779b9u;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(h) * shards_.size()) >> 32);
}

std::size_t RemoteGuardNode::shard_of(const net::Packet& packet) const {
  if (shards_.size() == 1) return 0;
  if (packet.is_udp() && packet.src_ip == config_.ans_address) {
    if (packet.dst_ip == config_.guard_address) {
      // Proxied-query reply: the NAT destination port identifies the
      // shard that allocated it (the client's shard).
      const std::uint32_t port = packet.udp().dst_port;
      if (port >= kNatPortBase && nat_ports_per_shard_ > 0) {
        const std::size_t k = (port - kNatPortBase) / nat_ports_per_shard_;
        return k < shards_.size() ? k : 0;
      }
      return 0;
    }
    // Plain ANS response: owned by the requester's shard.
    return shard_of_ip(packet.dst_ip);
  }
  return shard_of_ip(packet.src_ip);
}

SimDuration RemoteGuardNode::process(const net::Packet& packet) {
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
      cur_shard_->conn_buckets.reap(now(), 8);
      auto bucket = cur_shard_->conn_buckets.try_emplace(
          packet.src_ip, now(),
          ratelimit::TokenBucket(config_.proxy_conn_rate,
                                 config_.proxy_conn_burst));
      if (!bucket.value->try_consume(now())) {
        stats_.proxy_conn_throttled++;
        drop_other(packet, obs::DropReason::kProxyConnThrottled);
        return cost_;
      }
    }
    tcp_->handle_packet(packet);
    return cost_;
  }

  if (!packet.is_udp()) {
    // Neither TCP nor UDP: nothing the guard can interpret. Used to be a
    // silent discard — every drop must carry a reason.
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

  std::optional<dns::Message> m;
  {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardDecode);
    m = dns::Message::decode(BytesView(packet.payload));
  }
  if (!m || m->header.qr || m->question() == nullptr) {
    stats_.malformed++;
    drop_other(packet, obs::DropReason::kMalformed);
    charge(config_.costs.drop);
    return cost_;
  }

  handle_request(packet, *m);
  return cost_;
}

void RemoteGuardNode::handle_request(const net::Packet& packet,
                                     const dns::Message& query) {
  stats_.requests_seen++;
  trace(obs::TraceEvent::kClassify, packet);
  if (sim().journeys().enabled()) {
    cur_jkey_ = {packet.src_ip.value(), query.header.id,
                 query.question()->qname.hash32()};
    cur_jkey_valid_ = true;
    jmark("guard.rx");
  }
  request_rate_.record(now());

  bool to_subnet = !(packet.dst_ip == config_.ans_address);

  if (!protection_active()) {
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

  switch (effective_scheme(packet.src_ip)) {
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
      do_fabricated_ns_ip(packet, query, to_subnet);
      return;
    case Scheme::TcpRedirect:
      do_tcp_redirect(packet, query);
      return;
  }
}

// --- modified-DNS scheme (§III.D) -------------------------------------------

void RemoteGuardNode::do_modified_dns(const net::Packet& packet,
                                      const dns::Message& query,
                                      const crypto::Cookie& cookie) {
  if (CookieEngine::is_zero_cookie(cookie)) {
    // msg 2: a cookie request. Reply msg 3 (same size; no amplification),
    // through Rate-Limiter1.
    if (!admit_rl1(packet)) return;
    charge(config_.costs.cookie);
    stats_.cookies_minted++;
    scheme_cells(Scheme::ModifiedDns).minted++;
    jmark("guard.mint");
    dns::Message resp = dns::Message::response_to(query);
    CookieEngine::attach_txt_cookie(resp, engine_.mint(packet.src_ip),
                                    config_.cookie_ttl);
    stats_.cookie_replies++;
    reply(packet, std::move(resp));
    return;
  }

  if (!admit_verified(packet, Scheme::ModifiedDns,
                      engine_.verify_ex(packet.src_ip, cookie))) {
    return;
  }
  // msg 5: strip the extension; the ANS never sees cookies.
  dns::Message stripped = query;
  CookieEngine::strip_txt_cookie(stripped);
  charge(config_.costs.transform);
  trace(obs::TraceEvent::kRewrite, packet);
  forward_to_ans(packet, std::move(stripped));
}

// --- DNS-based scheme, NS-name variant (§III.B.1, Fig. 2(a)) ----------------

void RemoteGuardNode::do_ns_name(const net::Packet& packet,
                                 const dns::Message& query) {
  const dns::Question& q = *query.question();
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
      trace(obs::TraceEvent::kRewrite, packet);
      PendingAction action;
      action.kind = PendingAction::Kind::RestoreNsName;
      action.fabricated_qname = q.qname;
      action.original_qtype = q.qtype;
      const PendingKey pkey{query.header.id, packet.src_ip.value()};
      // retransmission: refresh, don't duplicate
      cur_shard_->pending.erase(pkey);
      cur_shard_->pending.try_emplace(pkey, now(), std::move(action));

      dns::Message rewritten = query;
      rewritten.questions.front().qname = *restored;
      forward_to_ans(packet, std::move(rewritten));
      return;
    }
  }

  // msg 1 -> msg 2: fabricate a referral whose NS name embeds the cookie.
  if (q.qname.label_count() <= zone.label_count()) {
    // Query for the zone apex itself: nothing to refer to; use the TCP
    // fallback so the request can still be served spoof-checked.
    do_tcp_redirect(packet, query);
    return;
  }
  dns::DomainName next_level = q.qname.suffix(zone.label_count() + 1);
  std::string next_label(next_level.first_label());

  if (!admit_rl1(packet)) return;
  charge(config_.costs.cookie);
  stats_.cookies_minted++;
  scheme_cells(Scheme::NsName).minted++;
  jmark("guard.mint");
  auto label = engine_.make_cookie_label(packet.src_ip, next_label);
  if (!label) {  // label overflow: oversized original label; fall back
    do_tcp_redirect(packet, query);
    return;
  }
  auto fabricated = zone.with_prefix_label(*label);
  if (!fabricated) {
    do_tcp_redirect(packet, query);
    return;
  }

  dns::Message resp = dns::Message::response_to(query);
  resp.authority.push_back(dns::ResourceRecord::ns(
      next_level, *fabricated, config_.fabricated_ns_ttl));
  stats_.fabricated_referrals++;
  reply(packet, std::move(resp));
}

// --- DNS-based scheme, fabricated NS+IP variant (§III.B.2, Fig. 2(b)) -------

void RemoteGuardNode::do_fabricated_ns_ip(const net::Packet& packet,
                                          const dns::Message& query,
                                          bool to_subnet) {
  const dns::Question& q = *query.question();

  if (to_subnet) {
    // msg 7: the destination address is the cookie (COOKIE2).
    if (!admit_verified(packet, Scheme::FabricatedNsIp,
                        engine_.verify_cookie_address_ex(
                            packet.src_ip, packet.dst_ip, config_.subnet_base,
                            config_.r_y))) {
      return;
    }
    PendingAction action;
    action.kind = PendingAction::Kind::RelaySourceIp;
    action.reply_src = packet.dst_ip;
    const PendingKey pkey{query.header.id, packet.src_ip.value()};
    cur_shard_->pending.erase(pkey);
    cur_shard_->pending.try_emplace(pkey, now(), std::move(action));
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
      dns::Message resp = dns::Message::response_to(query);
      resp.header.aa = true;
      resp.answers.push_back(
          dns::ResourceRecord::a(q.qname, cookie2, config_.cookie_ttl));
      stats_.cookie_replies++;
      reply(packet, std::move(resp));
      return;
    }
  }

  // msg 1 -> msg 2: fabricate an ANS for the queried name itself.
  if (!admit_rl1(packet)) return;
  if (q.qname.is_root()) {
    do_tcp_redirect(packet, query);
    return;
  }
  charge(config_.costs.cookie);
  stats_.cookies_minted++;
  scheme_cells(Scheme::FabricatedNsIp).minted++;
  jmark("guard.mint");
  auto label = engine_.make_cookie_label(packet.src_ip,
                                         std::string(q.qname.first_label()));
  if (!label) {
    do_tcp_redirect(packet, query);
    return;
  }
  auto fabricated = q.qname.parent().with_prefix_label(*label);
  if (!fabricated) {
    do_tcp_redirect(packet, query);
    return;
  }
  dns::Message resp = dns::Message::response_to(query);
  resp.authority.push_back(dns::ResourceRecord::ns(
      q.qname, *fabricated, config_.fabricated_ns_ttl));
  stats_.fabricated_referrals++;
  reply(packet, std::move(resp));
}

// --- TCP-based scheme (§III.C) ----------------------------------------------

void RemoteGuardNode::do_tcp_redirect(const net::Packet& packet,
                                      const dns::Message& query) {
  if (!admit_rl1(packet)) return;
  dns::Message resp = dns::Message::response_to(query);
  resp.header.tc = true;  // same size as the request: no amplification
  stats_.tc_redirects++;
  jmark("guard.tc_redirect");
  reply(packet, std::move(resp));
}

void RemoteGuardNode::proxy_on_data(tcp::ConnId conn, BytesView data) {
  auto ins = framers_.try_emplace(conn, now());
  if (ins.value == nullptr) {
    // Refused insert (only possible if eviction were disabled): reset the
    // connection instead of carrying unframeable stream state.
    drops_.count(obs::DropReason::kStateTableFull);
    tcp_->abort(conn);
    return;
  }
  for (Bytes& msg : ins.value->push(data)) {
    auto query = dns::Message::decode(BytesView(msg));
    if (!query || query->header.qr || query->question() == nullptr) {
      stats_.malformed++;
      drops_.count(obs::DropReason::kMalformed);
      continue;
    }
    auto remote = tcp_->remote_of(conn);
    if (!remote) continue;
    if (sim().journeys().enabled() && query->question() != nullptr) {
      // Merge the TCP-handshake journey (keyed by the client endpoint)
      // with the DNS query it carried.
      cur_jkey_ = {remote->ip.value(), query->header.id,
                   query->question()->qname.hash32()};
      cur_jkey_valid_ = true;
      sim().journeys().alias({remote->ip.value(), remote->port, 0},
                             cur_jkey_);
      jmark("guard.proxy_query");
    }
    // TCP handshake completion already proved the source address; still
    // apply Rate-Limiter2 like any verified requester.
    if (!cur_shard_->rl2.allow(remote->ip, now())) {
      stats_.rl2_throttled++;
      drops_.count(obs::DropReason::kRateLimited2);
      continue;
    }
    stats_.proxy_queries++;
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardNat);
    // Convert to UDP toward the ANS, NATed to the guard's own address.
    // Source-port allocation probes past ports with a live NAT entry: a
    // collision used to overwrite the old entry, orphaning its in-flight
    // ANS query and leaking the client connection. Expired entries are
    // reaped incrementally on the same path. Candidates stay inside the
    // shard's disjoint port range so the ANS reply routes back here.
    Shard& sh = *cur_shard_;
    sh.nat.reap(now(), 16);
    std::optional<std::uint16_t> port;
    for (int probe = 0; probe < config_.nat_port_probe_limit; ++probe) {
      const std::uint16_t candidate = sh.next_nat_port++;
      if (sh.next_nat_port < sh.nat_port_base ||
          sh.next_nat_port >= sh.nat_port_limit) {
        sh.next_nat_port = sh.nat_port_base;
      }
      auto r = sh.nat.try_emplace(candidate, now(),
                                  NatEntry{conn, query->header.id});
      if (r.inserted) {
        port = candidate;
        break;
      }
      if (r.value == nullptr) break;  // table refused the insert
    }
    if (!port) {
      drops_.count(obs::DropReason::kStateTableFull);
      continue;
    }
    charge(config_.costs.transform);
    stats_.forwarded_to_ans++;
    emit_direct(ans_, net::Packet::make_udp(
                          {config_.guard_address, *port},
                          {config_.ans_address, net::kDnsPort},
                          query->encode_pooled()));
  }
}

void RemoteGuardNode::handle_proxy_nat_response(const net::Packet& packet) {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardNat);
  const std::uint16_t port = packet.udp().dst_port;
  NatEntry* found = cur_shard_->nat.find(port, now());
  if (found == nullptr) {
    // No NAT entry: the proxied connection is gone (reaped / recycled) or
    // the response is a stray. Used to be a silent discard.
    drop_other(packet, obs::DropReason::kUnmatchedResponse);
    return;
  }
  NatEntry entry = *found;
  if (sim().journeys().enabled()) {
    if (auto remote = tcp_->remote_of(entry.conn)) {
      sim().journeys().mark({remote->ip.value(), remote->port, 0},
                            "guard.proxy_relay", now());
    }
  }
  cur_shard_->nat.erase(port);
  charge(config_.costs.transform);
  stats_.responses_relayed++;
  tcp_->send_data(entry.conn,
                  BytesView(tcp::StreamFramer::frame(BytesView(packet.payload))));
  // DNS-over-TCP here is one query per connection; closing after the
  // response keeps the proxy's connection table small (§III.C's concern).
  tcp_->close(entry.conn);
}

void RemoteGuardNode::handle_ans_response(const net::Packet& packet) {
  // Amortized reaping of expired rewrite state.
  cur_shard_->pending.reap(now(), 16);

  auto m = dns::Message::decode(BytesView(packet.payload));
  if (!m || !m->header.qr) {
    // Not a DNS response we can interpret; pass through untouched.
    emit(packet);
    return;
  }

  if (sim().journeys().enabled() && m->question() != nullptr) {
    cur_jkey_ = {packet.dst_ip.value(), m->header.id,
                 m->question()->qname.hash32()};
    cur_jkey_valid_ = true;
    jmark("guard.relay");
  }

  const PendingKey pkey{m->header.id, packet.dst_ip.value()};
  PendingAction* found = cur_shard_->pending.find(pkey, now());
  if (found == nullptr) {
    stats_.responses_relayed++;
    emit(packet);
    return;
  }
  PendingAction action = std::move(*found);
  cur_shard_->pending.erase(pkey);

  switch (action.kind) {
    case PendingAction::Kind::RestoreNsName: {
      // msg 5 -> msg 6: return the next-level servers' addresses as the
      // fabricated name's A records (Fig. 2(a)).
      std::vector<dns::ResourceRecord> addresses;
      for (const auto* section : {&m->answers, &m->additional}) {
        for (const auto& rr : *section) {
          if (rr.type == dns::RrType::A) {
            addresses.push_back(dns::ResourceRecord::a(
                action.fabricated_qname,
                std::get<dns::ARdata>(rr.rdata).address, rr.ttl));
          }
        }
      }
      dns::Message resp;
      resp.header.id = m->header.id;
      resp.header.qr = true;
      resp.header.aa = true;
      resp.questions.push_back(dns::Question{action.fabricated_qname,
                                             action.original_qtype,
                                             dns::RrClass::IN});
      if (addresses.empty()) {
        resp.header.rcode = dns::Rcode::ServFail;
      } else {
        resp.answers = std::move(addresses);
      }
      charge(config_.costs.transform);
      trace(obs::TraceEvent::kRewrite, packet);
      stats_.responses_relayed++;
      emit(net::Packet::make_udp({config_.ans_address, net::kDnsPort},
                                 packet.dst(), resp.encode_pooled()));
      return;
    }
    case PendingAction::Kind::RelaySourceIp: {
      // msg 9 -> msg 10: the LRS asked COOKIE2, so the answer must come
      // from COOKIE2 (Fig. 2(b)).
      charge(config_.costs.transform);
      trace(obs::TraceEvent::kRewrite, packet);
      stats_.responses_relayed++;
      net::Packet out = packet;
      out.src_ip = action.reply_src;
      emit(std::move(out));
      return;
    }
  }
}

}  // namespace dnsguard::guard
