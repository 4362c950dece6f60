#include "dns/name.h"

#include <algorithm>

namespace dnsguard::dns {
namespace {

/// ASCII case folding (RFC 1035 §2.3.3 / RFC 4343). Label length bytes
/// (0..63) are below 'A', so folding a whole wire-form name leaves them
/// intact.
char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::size_t length_at(std::string_view wire, std::size_t offset) {
  return static_cast<std::uint8_t>(wire[offset]);
}

}  // namespace

bool label_equal_ci(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

void DomainName::copy_from(const DomainName& other) {
  if (this == &other) return;
  std::copy_n(other.data_.begin(), other.size_, data_.begin());
  size_ = other.size_;
  count_ = other.count_;
}

bool DomainName::push_label(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLength) return false;
  if (size_ + 1 + label.size() > kCapacity) return false;
  data_[size_] = static_cast<char>(label.size());
  std::copy(label.begin(), label.end(), data_.begin() + size_ + 1);
  size_ = static_cast<std::uint8_t>(size_ + 1 + label.size());
  ++count_;
  return true;
}

std::size_t DomainName::label_offset(std::size_t i) const {
  const std::string_view w = wire();
  std::size_t off = 0;
  for (; i > 0; --i) off += 1 + length_at(w, off);
  return off;
}

std::optional<DomainName> DomainName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DomainName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  DomainName name;
  for (;;) {
    const std::size_t dot = text.find('.');
    if (!name.push_label(text.substr(0, dot))) return std::nullopt;
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  return name;
}

std::string DomainName::to_string() const {
  if (is_root()) return ".";
  std::string out;
  const std::string_view w = wire();
  for (std::size_t off = 0; off < w.size(); off += 1 + length_at(w, off)) {
    out += w.substr(off + 1, length_at(w, off));
    out += '.';
  }
  return out;
}

bool DomainName::valid() const {
  const std::string_view w = wire();
  std::size_t off = 0;
  std::size_t labels = 0;
  while (off < w.size()) {
    const std::size_t len = length_at(w, off);
    if (len == 0 || len > kMaxLabelLength) return false;
    off += 1 + len;
    ++labels;
  }
  return off == w.size() && labels == count_ && wire_length() <= kMaxNameLength;
}

bool DomainName::equals(const DomainName& other) const {
  return count_ == other.count_ && label_equal_ci(wire(), other.wire());
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  return label_equal_ci(wire().substr(label_offset(count_ - ancestor.count_)),
                        ancestor.wire());
}

DomainName DomainName::parent() const {
  return is_root() ? DomainName{} : suffix(count_ - 1u);
}

std::optional<DomainName> DomainName::with_prefix_label(
    std::string_view label) const {
  DomainName out;
  if (!out.push_label(label)) return std::nullopt;
  return out.append(*this);
}

std::optional<DomainName> DomainName::append(const DomainName& tail) const {
  if (size_ + tail.size_ > kCapacity) return std::nullopt;
  DomainName out(*this);
  std::copy_n(tail.data_.begin(), tail.size_, out.data_.begin() + size_);
  out.size_ = static_cast<std::uint8_t>(size_ + tail.size_);
  out.count_ = static_cast<std::uint8_t>(count_ + tail.count_);
  return out;
}

std::string_view DomainName::first_label() const {
  if (is_root()) return {};
  return wire().substr(1, length_at(wire(), 0));
}

std::uint32_t DomainName::hash32() const {
  // FNV-1a over the lowercased wire bytes: each label's length byte, then
  // its characters, so ("ab","c") and ("a","bc") hash differently.
  std::uint32_t h = 2166136261u;
  for (char c : wire()) {
    h ^= static_cast<std::uint8_t>(lower(c));
    h *= 16777619u;
  }
  return h;
}

DomainName DomainName::suffix(std::size_t n) const {
  if (n >= count_) return *this;
  const std::size_t off = label_offset(count_ - n);
  DomainName out;
  std::copy_n(data_.begin() + off, size_ - off, out.data_.begin());
  out.size_ = static_cast<std::uint8_t>(size_ - off);
  out.count_ = static_cast<std::uint8_t>(n);
  return out;
}

std::optional<std::uint16_t> NameCompressor::find(
    const ByteWriter& w, std::string_view suffix) const {
  // The candidate's bytes are re-read from the message through a Cursor:
  // a remembered suffix may continue through a compression pointer.
  auto spells = [&w, suffix](const Suffix& s) {
    if (s.length != suffix.size()) return false;
    Cursor c(w.view());
    c.skip(s.offset);
    std::size_t pos = 0;
    while (pos < suffix.size()) {
      const std::uint8_t len = c.u8();
      if ((len & 0xc0) == 0xc0) {
        const std::size_t target =
            static_cast<std::size_t>(len & 0x3f) << 8 | c.u8();
        if (!c.ok() || !c.jump_back(target)) return false;
        continue;
      }
      if (len != length_at(suffix, pos)) return false;
      if (!label_equal_ci(c.chars(len), suffix.substr(pos + 1, len))) {
        return false;
      }
      pos += 1 + len;
    }
    return c.ok();
  };
  for (std::size_t i = 0; i < inline_count_; ++i) {
    if (spells(inline_[i])) return inline_[i].offset;
  }
  for (const Suffix& s : spill_) {
    if (spells(s)) return s.offset;
  }
  return std::nullopt;
}

void NameCompressor::remember(std::uint16_t offset, std::size_t length) {
  const Suffix s{offset, static_cast<std::uint8_t>(length)};
  if (inline_count_ < kInline) {
    inline_[inline_count_++] = s;
  } else {
    spill_.push_back(s);
  }
}

void NameCompressor::write(ByteWriter& w, const DomainName& name) {
  const std::string_view wire = name.wire();
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::string_view suffix = wire.substr(pos);
    if (auto at = find(w, suffix)) {
      // Emit a 2-byte pointer to the earlier occurrence.
      w.u16(static_cast<std::uint16_t>(0xc000 | *at));
      return;
    }
    // Remember this suffix's offset (only representable offsets).
    if (w.size() <= 0x3fff) {
      remember(static_cast<std::uint16_t>(w.size()), suffix.size());
    }
    const std::size_t label_end = pos + 1 + length_at(wire, pos);
    w.raw(wire.substr(pos, label_end - pos));
    pos = label_end;
  }
  w.u8(0);
}

void write_name_uncompressed(ByteWriter& w, const DomainName& name) {
  w.raw(name.wire());
  w.u8(0);
}

bool read_name_into(Cursor& c, DomainName& out) {
  out.size_ = 0;
  out.count_ = 0;
  bool jumped = false;
  Cursor::Mark resume_at;
  int jumps = 0;

  for (;;) {
    std::uint8_t len = c.u8();
    if (!c.ok()) return false;
    if ((len & 0xc0) == 0xc0) {
      // Compression pointer: 14-bit offset into the message.
      std::uint8_t low = c.u8();
      if (!c.ok()) return false;
      std::size_t target = static_cast<std::size_t>(len & 0x3f) << 8 | low;
      if (!jumped) {
        resume_at = c.mark();
        jumped = true;
      }
      // jump_back() enforces the strictly-backwards rule; combined with
      // the jump cap this prevents loops.
      if (++jumps > 32 || !c.jump_back(target)) return false;
      continue;
    }
    if ((len & 0xc0) != 0) return false;  // reserved label types
    if (len == 0) break;
    std::string_view raw = c.chars(len);
    if (!c.ok()) return false;
    // push_label() enforces the label (63) and name (255) length limits.
    if (!out.push_label(raw)) return false;
  }

  if (jumped) c.resume(resume_at);
  return true;
}

std::optional<DomainName> read_name(Cursor& c) {
  DomainName name;
  if (!read_name_into(c, name)) return std::nullopt;
  return name;
}

}  // namespace dnsguard::dns
