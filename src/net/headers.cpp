#include "net/headers.h"

namespace dnsguard::net {

std::uint16_t internet_checksum(BytesView data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

void Ipv4Header::encode(ByteWriter& w, std::size_t payload_size) const {
  std::size_t start = w.size();
  auto total = static_cast<std::uint16_t>(kIpv4HeaderSize + payload_size);
  w.u8(0x45);  // version 4, IHL 5
  w.u8(0);     // DSCP/ECN
  w.u16(total);
  w.u16(identification);
  w.u16(0);  // flags/fragment offset: no fragmentation in the simulator
  w.u8(ttl);
  w.u8(static_cast<std::uint8_t>(proto));
  std::size_t checksum_at = w.size();
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());
  std::uint16_t csum =
      internet_checksum(w.view().subspan(start, kIpv4HeaderSize));
  w.patch_u16(checksum_at, csum);
}

std::optional<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  std::size_t start = r.pos();
  std::uint8_t ver_ihl = r.u8();
  if (!r.ok() || ver_ihl != 0x45) return std::nullopt;
  r.u8();  // DSCP/ECN
  Ipv4Header h;
  h.total_length = r.u16();
  h.identification = r.u16();
  r.u16();  // flags/fragment
  h.ttl = r.u8();
  std::uint8_t proto = r.u8();
  r.u16();  // checksum (verified below over the whole header)
  h.src = Ipv4Address(r.u32());
  h.dst = Ipv4Address(r.u32());
  if (!r.ok()) return std::nullopt;
  if (proto != static_cast<std::uint8_t>(IpProto::Udp) &&
      proto != static_cast<std::uint8_t>(IpProto::Tcp)) {
    return std::nullopt;
  }
  h.proto = static_cast<IpProto>(proto);
  // Checksum over the full header must come out zero-complement.
  BytesView hdr = r.whole().subspan(start, kIpv4HeaderSize);
  if (internet_checksum(hdr) != 0) return std::nullopt;
  return h;
}

void UdpHeader::encode(ByteWriter& w, std::size_t payload_size) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<std::uint16_t>(kUdpHeaderSize + payload_size));
  w.u16(0);  // checksum optional in IPv4; the simulator relies on IP csum
}

std::optional<UdpHeader> UdpHeader::decode(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.length = r.u16();
  r.u16();  // checksum
  if (!r.ok() || h.length < kUdpHeaderSize) return std::nullopt;
  return h;
}

std::uint8_t TcpFlags::to_byte() const {
  return static_cast<std::uint8_t>((fin ? 0x01 : 0) | (syn ? 0x02 : 0) |
                                   (rst ? 0x04 : 0) | (psh ? 0x08 : 0) |
                                   (ack ? 0x10 : 0));
}

TcpFlags TcpFlags::from_byte(std::uint8_t b) {
  return TcpFlags{.fin = (b & 0x01) != 0,
                  .syn = (b & 0x02) != 0,
                  .rst = (b & 0x04) != 0,
                  .psh = (b & 0x08) != 0,
                  .ack = (b & 0x10) != 0};
}

void TcpHeader::encode(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(0x50);  // data offset 5 (20 bytes), no options
  w.u8(flags.to_byte());
  w.u16(window);
  w.u16(0);  // checksum: simulator relies on IP csum
  w.u16(0);  // urgent pointer
}

std::optional<TcpHeader> TcpHeader::decode(ByteReader& r) {
  TcpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  std::uint8_t offset = r.u8();
  h.flags = TcpFlags::from_byte(r.u8());
  h.window = r.u16();
  r.u16();  // checksum
  r.u16();  // urgent
  if (!r.ok() || (offset >> 4) != 5) return std::nullopt;
  return h;
}

}  // namespace dnsguard::net
