#include "server/zone.h"

#include <algorithm>
#include <cctype>

namespace dnsguard::server {
namespace {

std::string lower_name(const dns::DomainName& name) {
  std::string s = name.to_string();
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

dns::DomainName must_parse(std::string_view text) {
  auto n = dns::DomainName::parse(text);
  // Builder helpers are called with literals; a typo should fail loudly.
  if (!n) return dns::DomainName{};
  return *n;
}

}  // namespace

Zone::NameKey Zone::key_of(const dns::DomainName& name) {
  return NameKey{lower_name(name)};
}

bool Zone::add(dns::ResourceRecord rr) {
  bool in_zone = rr.name.is_subdomain_of(origin_);
  if (!in_zone && rr.type != dns::RrType::A) return false;  // glue A only
  if (rr.type == dns::RrType::NS && in_zone && !rr.name.equals(origin_)) {
    // A delegation cut.
    if (std::none_of(delegations_.begin(), delegations_.end(),
                     [&rr](const dns::DomainName& d) {
                       return d.equals(rr.name);
                     })) {
      delegations_.push_back(rr.name);
    }
  }
  records_[key_of(rr.name)].push_back(std::move(rr));
  return true;
}

void Zone::add_a(std::string_view name, net::Ipv4Address addr,
                 std::uint32_t ttl) {
  add(dns::ResourceRecord::a(must_parse(name), addr, ttl));
}

void Zone::add_ns(std::string_view zone_name, std::string_view ns_name,
                  std::uint32_t ttl) {
  add(dns::ResourceRecord::ns(must_parse(zone_name), must_parse(ns_name),
                              ttl));
}

void Zone::add_cname(std::string_view name, std::string_view target,
                     std::uint32_t ttl) {
  add(dns::ResourceRecord::cname(must_parse(name), must_parse(target), ttl));
}

void Zone::add_soa(std::uint32_t serial, std::uint32_t ttl) {
  dns::SoaRdata soa;
  soa.mname = origin_;
  soa.rname = origin_;
  soa.serial = serial;
  soa.minimum = 300;
  add(dns::ResourceRecord::soa(origin_, std::move(soa), ttl));
}

std::vector<dns::ResourceRecord> Zone::find(const dns::DomainName& name,
                                            dns::RrType type) const {
  std::vector<dns::ResourceRecord> out;
  auto it = records_.find(key_of(name));
  if (it == records_.end()) return out;
  for (const auto& rr : it->second) {
    if (rr.type == type) out.push_back(rr);
  }
  return out;
}

bool Zone::has_name(const dns::DomainName& name) const {
  return records_.count(key_of(name)) > 0;
}

std::optional<dns::DomainName> Zone::delegation_for(
    const dns::DomainName& name) const {
  const dns::DomainName* best = nullptr;
  for (const auto& cut : delegations_) {
    if (name.is_subdomain_of(cut)) {
      if (best == nullptr || cut.label_count() > best->label_count()) {
        best = &cut;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::optional<dns::ResourceRecord> Zone::soa() const {
  auto soas = find(origin_, dns::RrType::SOA);
  if (soas.empty()) return std::nullopt;
  return soas.front();
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [k, v] : records_) n += v.size();
  return n;
}

void Zone::merge(Zone other) {
  for (auto& [key, rrs] : other.records_) {
    for (auto& rr : rrs) add(std::move(rr));
  }
}

void AuthoritativeEngine::add_zone(Zone zone) {
  // Same-origin zones merge: "add another record set to the zone" is the
  // natural operator-facing semantics, and duplicate apexes would
  // otherwise shadow each other.
  for (auto& z : zones_) {
    if (z.origin().equals(zone.origin())) {
      z.merge(std::move(zone));
      return;
    }
  }
  zones_.push_back(std::move(zone));
}

const Zone* AuthoritativeEngine::zone_for(const dns::DomainName& name) const {
  const Zone* best = nullptr;
  for (const auto& z : zones_) {
    if (name.is_subdomain_of(z.origin())) {
      if (best == nullptr ||
          z.origin().label_count() > best->origin().label_count()) {
        best = &z;
      }
    }
  }
  return best;
}

Answer AuthoritativeEngine::answer(const dns::Message& query) const {
  Answer out;
  out.message = dns::Message::response_to(query);
  const dns::Question* q = query.question();
  if (q == nullptr) {
    out.kind = AnswerKind::Refused;
    out.message.header.rcode = dns::Rcode::FormErr;
    return out;
  }

  const Zone* zone = zone_for(q->qname);
  if (zone == nullptr) {
    out.kind = AnswerKind::Refused;
    out.message.header.rcode = dns::Rcode::Refused;
    return out;
  }

  // Delegation below the apex? Then we answer with a referral, never
  // authoritatively (§III.B: "referral answer").
  if (auto cut = zone->delegation_for(q->qname)) {
    out.kind = AnswerKind::Referral;
    auto ns_records = zone->find(*cut, dns::RrType::NS);
    for (const auto& ns : ns_records) {
      out.message.authority.push_back(ns);
      // Standard delegation practice (paper §III.B issue three): provide
      // glue A records for each delegated nameserver.
      const auto& nsname = std::get<dns::NsRdata>(ns.rdata).nsdname;
      for (const auto& a : zone->find(nsname, dns::RrType::A)) {
        out.message.additional.push_back(a);
      }
    }
    return out;
  }

  out.message.header.aa = true;

  // Exact-name processing with in-zone CNAME chasing.
  dns::DomainName current = q->qname;
  int chase = 0;
  for (;;) {
    auto matches = zone->find(current, q->qtype);
    if (!matches.empty()) {
      for (auto& rr : matches) out.message.answers.push_back(std::move(rr));
      out.kind = AnswerKind::Authoritative;
      return out;
    }
    auto cnames = zone->find(current, dns::RrType::CNAME);
    if (!cnames.empty() && q->qtype != dns::RrType::CNAME) {
      const auto& target =
          std::get<dns::CnameRdata>(cnames.front().rdata).target;
      out.message.answers.push_back(cnames.front());
      current = target;
      if (++chase > 8 || !current.is_subdomain_of(zone->origin())) {
        // Out-of-zone target: the resolver must chase it itself.
        out.kind = AnswerKind::Authoritative;
        return out;
      }
      continue;
    }
    break;
  }

  if (zone->has_name(current)) {
    out.kind = AnswerKind::NoData;
  } else {
    out.kind = AnswerKind::NxDomain;
    out.message.header.rcode = dns::Rcode::NxDomain;
  }
  if (auto soa = zone->soa()) out.message.authority.push_back(*soa);
  return out;
}

ExampleHierarchy make_example_hierarchy(net::Ipv4Address root_server,
                                        net::Ipv4Address com_server,
                                        net::Ipv4Address foo_server) {
  Zone root(dns::DomainName{});
  root.add_soa();
  root.add_ns(".", "a.root-servers.net.");
  root.add_a("a.root-servers.net.", root_server);
  root.add_ns("com.", "a.gtld-servers.net.");
  root.add_a("a.gtld-servers.net.", com_server);

  Zone com(*dns::DomainName::parse("com."));
  com.add_soa();
  com.add_ns("com.", "a.gtld-servers.net.");
  com.add_a("a.gtld-servers.net.", com_server);
  com.add_ns("foo.com.", "ns1.foo.com.");
  com.add_a("ns1.foo.com.", foo_server);

  Zone foo(*dns::DomainName::parse("foo.com."));
  foo.add_soa();
  foo.add_ns("foo.com.", "ns1.foo.com.");
  foo.add_a("ns1.foo.com.", foo_server);
  foo.add_a("www.foo.com.", net::Ipv4Address(192, 0, 2, 80));
  foo.add_a("mail.foo.com.", net::Ipv4Address(192, 0, 2, 25));
  foo.add_cname("web.foo.com.", "www.foo.com.");

  return ExampleHierarchy{std::move(root), std::move(com), std::move(foo)};
}

}  // namespace dnsguard::server
