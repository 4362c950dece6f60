#include "dns/message.h"

#include "common/pool.h"

namespace dnsguard::dns {

void Question::encode(ByteWriter& w, NameCompressor& compressor) const {
  compressor.write(w, qname);
  w.u16(static_cast<std::uint16_t>(qtype));
  w.u16(static_cast<std::uint16_t>(qclass));
}

bool Question::decode_into(Cursor& c, Question& q) {
  if (!read_name_into(c, q.qname)) return false;
  q.qtype = static_cast<RrType>(c.u16());
  q.qclass = static_cast<RrClass>(c.u16());
  return c.ok();
}

std::string Question::to_string() const {
  return qname.to_string() + " IN " + rr_type_name(qtype);
}

Bytes Message::encode() const {
  Bytes out;
  out.reserve(kMaxUdpPayload);
  encode_to(out);
  return out;
}

Bytes Message::encode_pooled() const {
  Bytes out = BufferPool::local().acquire(kMaxUdpPayload);
  encode_to(out);
  return out;
}

void Message::encode_to(Bytes& out) const {
  ByteWriter w(std::move(out));
  NameCompressor compressor;

  w.u16(header.id);
  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(header.opcode) & 0xf) << 11);
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(header.rcode) & 0xf;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authority.size()));
  w.u16(static_cast<std::uint16_t>(additional.size()));

  for (const auto& q : questions) q.encode(w, compressor);
  for (const auto& rr : answers) rr.encode(w, compressor);
  for (const auto& rr : authority) rr.encode(w, compressor);
  for (const auto& rr : additional) rr.encode(w, compressor);
  out = std::move(w).take();
}

namespace {

/// Decodes `count` entries into `out`, overwriting the entries it already
/// holds before appending more, so a reused message neither reallocates
/// nor re-initializes its records. Entries are appended one at a time as
/// they decode, never sized up front from the attacker-supplied count.
template <typename T>
bool decode_section(Cursor& c, std::uint16_t count, std::vector<T>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    T& entry = i < out.size() ? out[i] : out.emplace_back();
    if (!T::decode_into(c, entry)) {
      out.resize(i);
      return false;
    }
  }
  out.resize(count);
  return true;
}

}  // namespace

bool Message::decode_into(BytesView wire, Message& m) {
  Cursor c(wire);
  m.header = Header{};
  m.header.id = c.u16();
  std::uint16_t flags = c.u16();
  std::uint16_t qdcount = c.u16();
  std::uint16_t ancount = c.u16();
  std::uint16_t nscount = c.u16();
  std::uint16_t arcount = c.u16();
  if (!c.ok()) {
    m.clear();
    return false;
  }

  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0xf);

  if (!decode_section(c, qdcount, m.questions)) return false;
  if (!decode_section(c, ancount, m.answers)) return false;
  if (!decode_section(c, nscount, m.authority)) return false;
  if (!decode_section(c, arcount, m.additional)) return false;
  return c.at_end();  // trailing garbage
}

std::optional<Message> Message::decode(BytesView wire) {
  Message m;
  if (!decode_into(wire, m)) return std::nullopt;
  return m;
}

void Message::clear() {
  header = Header{};
  questions.clear();
  answers.clear();
  authority.clear();
  additional.clear();
}

Message Message::query(std::uint16_t id, DomainName qname, RrType qtype,
                       bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.rd = recursion_desired;
  m.questions.push_back(Question{std::move(qname), qtype, RrClass::IN});
  return m;
}

Message Message::response_to(const Message& request) {
  Message m;
  m.reset_response_to(request);
  return m;
}

void Message::reset_response_to(const Message& request) {
  clear();
  header.id = request.header.id;
  header.qr = true;
  header.opcode = request.header.opcode;
  header.rd = request.header.rd;
  questions = request.questions;
}

bool Message::is_referral() const {
  if (!header.qr || !answers.empty() || authority.empty()) return false;
  for (const auto& rr : authority) {
    if (rr.type != RrType::NS) return false;
  }
  return true;
}

std::string Message::to_string() const {
  std::string out = header.qr ? "response" : "query";
  out += " id=" + std::to_string(header.id);
  if (header.aa) out += " aa";
  if (header.tc) out += " tc";
  if (header.rcode != Rcode::NoError) {
    out += " rcode=" + std::to_string(static_cast<unsigned>(header.rcode));
  }
  for (const auto& q : questions) out += " Q{" + q.to_string() + "}";
  for (const auto& rr : answers) out += " AN{" + rr.to_string() + "}";
  for (const auto& rr : authority) out += " NS{" + rr.to_string() + "}";
  for (const auto& rr : additional) out += " AR{" + rr.to_string() + "}";
  return out;
}

}  // namespace dnsguard::dns
