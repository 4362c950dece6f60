// CookieEngine: the guard's cookie mint/verify logic plus the paper's
// three cookie *encodings* (§III.E):
//
//   1. NS-name encoding — "PR" prefix + 8 hex chars of the first 4 cookie
//      bytes, prepended to a restore label inside ONE DNS label
//      ("PRa1b2c3d4com"), so the cookie survives an unmodified LRS's
//      referral chasing. Cookie range 2^32.
//   2. Fabricated-IP encoding — y = first4(c) mod R_y selects an address
//      in the guard's intercepted subnet; the *destination address* of the
//      LRS's follow-up query is the cookie. Range R_y (≤ 2^8 for a /24).
//   3. Explicit TXT encoding — the full 16-byte cookie rides in a TXT
//      record in the additional section (modified-DNS scheme). Range 2^128.
//
// Key rotation rides on the first cookie bit (see crypto/cookie_hash.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "crypto/cookie_hash.h"
#include "dns/message.h"
#include "dns/name.h"
#include "net/ipv4.h"

namespace dnsguard::guard {

/// The 2-character prefix marking cookie labels ("PR" in the paper's
/// example "PRa1b2c3d4").
inline constexpr std::string_view kCookieLabelPrefix = "PR";
/// 8 hex characters encode the first 4 cookie bytes.
inline constexpr std::size_t kCookieHexChars = 8;

class CookieEngine {
 public:
  explicit CookieEngine(std::uint64_t key_seed) : keys_(key_seed) {}

  /// Full 16-byte cookie for a requester address.
  [[nodiscard]] crypto::Cookie mint(net::Ipv4Address requester) const {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardMint);
    return keys_.mint(requester.value());
  }

  [[nodiscard]] bool verify(net::Ipv4Address requester,
                            const crypto::Cookie& presented) const {
    return keys_.verify(requester.value(), presented);
  }

  /// Generation-aware verification (observability: verify counts per key
  /// generation; failures that match the *retired* generation classify as
  /// stale — see crypto::VerifyResult).
  [[nodiscard]] crypto::VerifyResult verify_ex(
      net::Ipv4Address requester, const crypto::Cookie& presented) const {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardVerify);
    return keys_.verify_ex(requester.value(), presented);
  }

  /// Rotates to a new key generation (paper: weekly).
  void rotate(std::uint64_t new_seed) { keys_.rotate(new_seed); }
  [[nodiscard]] std::uint32_t generation() const {
    return keys_.generation();
  }

  // --- NS-name encoding ----------------------------------------------------

  /// Builds the cookie label: "PR" + hex8(first4(c)) + `restore_label`.
  /// Fails (nullopt) if the result would exceed the 63-byte label limit.
  [[nodiscard]] std::optional<std::string> make_cookie_label(
      net::Ipv4Address requester, std::string_view restore_label) const;

  struct ParsedLabel {
    std::uint32_t cookie_prefix;  // the 4 encoded cookie bytes
    std::string restore_label;    // original label to restore
  };
  /// Parses a label of the above shape; nullopt if it isn't one.
  [[nodiscard]] static std::optional<ParsedLabel> parse_cookie_label(
      std::string_view label);

  /// Verifies the 4-byte prefix from an NS-name cookie label.
  [[nodiscard]] bool verify_prefix(net::Ipv4Address requester,
                                   std::uint32_t presented_prefix) const {
    return keys_.verify_prefix32(requester.value(), presented_prefix);
  }
  [[nodiscard]] crypto::VerifyResult verify_prefix_ex(
      net::Ipv4Address requester, std::uint32_t presented_prefix) const {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardVerify);
    return keys_.verify_prefix32_ex(requester.value(), presented_prefix);
  }

  // --- fabricated-IP encoding ----------------------------------------------

  /// The cookie address for `requester` inside `subnet_base`+[1, r_y]:
  /// y = first4(c) mod r_y, address = base + 1 + y.
  [[nodiscard]] net::Ipv4Address make_cookie_address(
      net::Ipv4Address requester, net::Ipv4Address subnet_base,
      std::uint32_t r_y) const;

  /// Verifies that `dst` (the queried address) is the right cookie address
  /// for `requester`.
  [[nodiscard]] bool verify_cookie_address(net::Ipv4Address requester,
                                           net::Ipv4Address dst,
                                           net::Ipv4Address subnet_base,
                                           std::uint32_t r_y) const {
    return verify_cookie_address_ex(requester, dst, subnet_base, r_y).ok;
  }
  /// The IP encoding folds the generation bit away (mod R_y), so the
  /// verifier tries both keys; `used_previous` reports a match under the
  /// pre-rotation key. On failure, `stale` reports a match under the
  /// *retired* key (two rotations back): a real-but-outdated client, to
  /// be charged as kStaleKey rather than kBadCookie.
  [[nodiscard]] crypto::VerifyResult verify_cookie_address_ex(
      net::Ipv4Address requester, net::Ipv4Address dst,
      net::Ipv4Address subnet_base, std::uint32_t r_y) const;

  // --- batched verification -----------------------------------------------

  /// One cookie check of any encoding, tagged by kind. The guard verifies
  /// per packet and does not call verify_jobs(): a burst of jobs costs the
  /// same verify_ex / verify_prefix32_ex / verify_cookie_address_ex calls
  /// as the per-packet path. It stays as the host benchmark's
  /// `cookie.verify_jobs` layer row, which times it directly.
  struct VerifyJob {
    enum class Kind : std::uint8_t { kFull, kPrefix, kAddress } kind =
        Kind::kFull;
    net::Ipv4Address requester;
    crypto::Cookie cookie{};      // kFull: the presented 16-byte cookie
    std::uint32_t prefix = 0;     // kPrefix: presented 4-byte prefix
    net::Ipv4Address dst;         // kAddress: the queried cookie address
  };

  /// Verifies `n` jobs in one call, writing one VerifyResult per job.
  /// Equivalent to the per-item verifiers; `subnet_base`/`r_y` apply to
  /// kAddress jobs.
  void verify_jobs(const VerifyJob* jobs, crypto::VerifyResult* out,
                   std::size_t n, net::Ipv4Address subnet_base,
                   std::uint32_t r_y) const;

  // --- TXT encoding (modified-DNS scheme) ----------------------------------

  /// Finds a cookie TXT record in the additional section; returns its
  /// 16-byte payload (which may be all-zero = "requesting a cookie").
  [[nodiscard]] static std::optional<crypto::Cookie> extract_txt_cookie(
      const dns::Message& m);

  /// Appends a cookie TXT record (root owner, given TTL) to `m`'s
  /// additional section.
  static void attach_txt_cookie(dns::Message& m, const crypto::Cookie& cookie,
                                std::uint32_t ttl);

  /// Removes cookie TXT records from the additional section (the ANS never
  /// sees the extension, §III.D msg 5).
  static void strip_txt_cookie(dns::Message& m);

  [[nodiscard]] static bool is_zero_cookie(const crypto::Cookie& c);

 private:
  crypto::RotatingKeys keys_;
};

}  // namespace dnsguard::guard
