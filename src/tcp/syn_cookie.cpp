#include "tcp/syn_cookie.h"

namespace dnsguard::tcp {
namespace {

// 3-bit slot counter in the top bits, 29-bit hash below. Mirrors the
// classic layout (counter + hash) without the MSS index, which the
// simulator does not need.
constexpr std::uint32_t kSlotBits = 3;
constexpr std::uint32_t kHashMask = (1u << (32 - kSlotBits)) - 1;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint32_t SynCookieGenerator::hash(net::SocketAddr client,
                                       net::SocketAddr server,
                                       std::uint32_t client_isn,
                                       std::uint64_t slot) const {
  std::uint64_t h = secret_;
  h = mix(h ^ (static_cast<std::uint64_t>(client.ip.value()) << 16 |
               client.port));
  h = mix(h ^ (static_cast<std::uint64_t>(server.ip.value()) << 16 |
               server.port));
  h = mix(h ^ client_isn);
  h = mix(h ^ slot);
  return static_cast<std::uint32_t>(h) & kHashMask;
}

std::uint32_t SynCookieGenerator::make(net::SocketAddr client,
                                       net::SocketAddr server,
                                       std::uint32_t client_isn,
                                       SimTime now) const {
  std::uint64_t slot = static_cast<std::uint64_t>(now.ns / slot_length_.ns);
  std::uint32_t slot_bits =
      static_cast<std::uint32_t>(slot & ((1u << kSlotBits) - 1));
  return (slot_bits << (32 - kSlotBits)) |
         hash(client, server, client_isn, slot);
}

bool SynCookieGenerator::validate(net::SocketAddr client,
                                  net::SocketAddr server,
                                  std::uint32_t client_isn,
                                  std::uint32_t acked_isn, SimTime now) const {
  std::uint64_t current_slot =
      static_cast<std::uint64_t>(now.ns / slot_length_.ns);
  std::uint32_t slot_bits = acked_isn >> (32 - kSlotBits);
  std::uint32_t presented_hash = acked_isn & kHashMask;

  // The cookie's slot counter must correspond to the current or previous
  // slot (handshake RTT may straddle a boundary).
  for (std::uint64_t candidate : {current_slot, current_slot - 1}) {
    if (static_cast<std::uint32_t>(candidate & ((1u << kSlotBits) - 1)) !=
        slot_bits) {
      continue;
    }
    if (hash(client, server, client_isn, candidate) == presented_hash) {
      return true;
    }
  }
  return false;
}

}  // namespace dnsguard::tcp
