#include "guard/cookie_engine.h"

#include <algorithm>

namespace dnsguard::guard {

namespace {

constexpr std::string_view kHexDigits = "0123456789abcdef";

/// Value of one hex digit (either case), or -1.
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<CookieEngine::Label> CookieEngine::make_cookie_label(
    net::Ipv4Address requester, std::string_view restore_label) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardMint);
  const std::uint32_t prefix = crypto::cookie_prefix32(mint(requester));
  const std::size_t size =
      kCookieLabelPrefix.size() + kCookieHexChars + restore_label.size();
  if (size > dns::kMaxLabelLength) return std::nullopt;
  Label label;
  auto out = std::copy(kCookieLabelPrefix.begin(), kCookieLabelPrefix.end(),
                       label.bytes_.begin());
  for (int shift = 28; shift >= 0; shift -= 4) {
    *out++ = kHexDigits[(prefix >> shift) & 0xf];
  }
  std::copy(restore_label.begin(), restore_label.end(), out);
  label.size_ = static_cast<std::uint8_t>(size);
  return label;
}

std::optional<CookieEngine::ParsedLabel> CookieEngine::parse_cookie_label(
    std::string_view label) {
  if (label.size() < kCookieLabelPrefix.size() + kCookieHexChars) {
    return std::nullopt;
  }
  if (label.substr(0, kCookieLabelPrefix.size()) != kCookieLabelPrefix) {
    return std::nullopt;
  }
  std::uint32_t prefix = 0;
  for (char c : label.substr(kCookieLabelPrefix.size(), kCookieHexChars)) {
    const int v = hex_value(c);
    if (v < 0) return std::nullopt;
    prefix = prefix << 4 | static_cast<std::uint32_t>(v);
  }
  return ParsedLabel{
      prefix, label.substr(kCookieLabelPrefix.size() + kCookieHexChars)};
}

// Mint and verify must agree on the divisor: a config with r_y == 0 still
// mints addresses in (base, base + 1] (divisor clamped to 1), so the
// verify path has to clamp identically or every legitimate follow-up
// query under that config is rejected as a spoof. The upper clamp closes
// the symmetric bug for huge R_y: cookie addresses live in
// (base, base + divisor], and with r_y near 2^32 the mint side used to
// wrap the 32-bit address space and produce addresses the verifier's
// range check (correctly) rejects — every legitimate follow-up query
// under such a config was dropped as a spoof. Capping the divisor so
// base + divisor cannot wrap keeps both sides in agreement for any r_y.
static constexpr std::uint32_t sanitized_r_y(std::uint32_t r_y,
                                             std::uint32_t subnet_base) {
  const std::uint32_t max_div = 0xffffffffU - subnet_base;
  std::uint32_t d = r_y == 0 ? 1 : r_y;
  if (max_div > 0 && d > max_div) d = max_div;
  return d == 0 ? 1 : d;
}

net::Ipv4Address CookieEngine::make_cookie_address(
    net::Ipv4Address requester, net::Ipv4Address subnet_base,
    std::uint32_t r_y) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardMint);
  crypto::Cookie c = mint(requester);
  std::uint32_t y =
      crypto::cookie_prefix32(c) % sanitized_r_y(r_y, subnet_base.value());
  return net::Ipv4Address(subnet_base.value() + 1 + y);
}

crypto::VerifyResult CookieEngine::verify_cookie_address_ex(
    net::Ipv4Address requester, net::Ipv4Address dst,
    net::Ipv4Address subnet_base, std::uint32_t r_y) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardVerify);
  const std::uint32_t divisor = sanitized_r_y(r_y, subnet_base.value());
  if (dst.value() <= subnet_base.value()) return {false, false, false};
  std::uint32_t offset = dst.value() - subnet_base.value() - 1;
  if (offset >= divisor) return {false, false, false};
  // Both current and previous key generation must be checked, mirroring
  // verify_prefix_ex semantics: recompute under the generation the requester
  // might hold. The IP encoding carries no generation bit (mod R_y folds
  // it away), so try both; otherwise a weekly rotation would silently
  // drop every legitimate follow-up query holding a pre-rotation address.
  crypto::Cookie current = mint(requester);
  if (crypto::cookie_prefix32(current) % divisor == offset) {
    return {true, false, false};
  }
  if (auto prev = keys_.mint_previous(requester.value())) {
    if (crypto::cookie_prefix32(*prev) % divisor == offset) {
      return {true, true, false};
    }
  }
  // Failure classification: an address that matches the *retired* key
  // (two rotations back) belongs to a real client whose cookie aged out,
  // not to a guesser — charge it to kStaleKey, not kBadCookie. The mod-R_y
  // fold makes this a probabilistic signal (a guess lands on the retired
  // offset with probability 1/R_y), which is exactly the 1/R_y confusion
  // bound the encoding already concedes (§III.G).
  if (auto retired = keys_.mint_retired(requester.value())) {
    if (crypto::cookie_prefix32(*retired) % divisor == offset) {
      return {false, false, true};
    }
  }
  return {false, false, false};
}

void CookieEngine::verify_jobs(const VerifyJob* jobs,
                               crypto::VerifyResult* out, std::size_t n,
                               net::Ipv4Address subnet_base,
                               std::uint32_t r_y) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardVerifyJobs);
  // Each item costs exactly the per-kind verification it would cost
  // individually (the virtual-time cost model is charged by the caller).
  for (std::size_t i = 0; i < n; ++i) {
    const VerifyJob& j = jobs[i];
    switch (j.kind) {
      case VerifyJob::Kind::kFull:
        out[i] = keys_.verify_ex(j.requester.value(), j.cookie);
        break;
      case VerifyJob::Kind::kPrefix:
        out[i] = keys_.verify_prefix32_ex(j.requester.value(), j.prefix);
        break;
      case VerifyJob::Kind::kAddress:
        out[i] = verify_cookie_address_ex(j.requester, j.dst, subnet_base,
                                          r_y);
        break;
    }
  }
}

std::optional<crypto::Cookie> CookieEngine::extract_txt_cookie(
    const dns::Message& m) {
  for (const auto& rr : m.additional) {
    if (rr.type != dns::RrType::TXT || !rr.name.is_root()) continue;
    const auto* txt = std::get_if<dns::TxtRdata>(&rr.rdata);
    if (txt == nullptr || txt->strings.empty()) continue;
    const Bytes& payload = txt->strings.front();
    if (payload.size() != crypto::kCookieSize) continue;
    crypto::Cookie c{};
    std::copy(payload.begin(), payload.end(), c.begin());
    return c;
  }
  return std::nullopt;
}

void CookieEngine::attach_txt_cookie(dns::Message& m,
                                     const crypto::Cookie& cookie,
                                     std::uint32_t ttl) {
  m.additional.push_back(dns::ResourceRecord::txt(
      dns::DomainName{}, dns::TxtRdata::single(BytesView(cookie)), ttl));
  // TTL 0 records still need to reach the peer; the wire TTL field is what
  // the local guard reads for cache lifetime.
  m.additional.back().ttl = ttl;
}

void CookieEngine::strip_txt_cookie(dns::Message& m) {
  std::erase_if(m.additional, [](const dns::ResourceRecord& rr) {
    if (rr.type != dns::RrType::TXT || !rr.name.is_root()) return false;
    const auto* txt = std::get_if<dns::TxtRdata>(&rr.rdata);
    return txt != nullptr && !txt->strings.empty() &&
           txt->strings.front().size() == crypto::kCookieSize;
  });
}

bool CookieEngine::is_zero_cookie(const crypto::Cookie& c) {
  for (auto b : c) {
    if (b != 0) return false;
  }
  return true;
}

}  // namespace dnsguard::guard
