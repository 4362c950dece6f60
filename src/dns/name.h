// RFC 1035 domain names.
//
// A DomainName is a sequence of labels ("www", "foo", "com"); the root is
// the empty sequence. Wire encoding supports message compression (pointer
// labels), which the decoder follows with loop protection. RFC 1035 limits
// matter to the paper: the DNS-based scheme embeds an 10-char cookie prefix
// plus the original first label in one label, so the 63-byte label limit
// bounds the cookie encoding budget (§III.B.1, issue four).
//
// A name is stored in wire form: length-prefixed labels in a fixed inline
// buffer, without the terminating zero byte. Compares, hashes, suffixes
// and prefixed copies all work on those bytes, and a copy moves only the
// bytes in use, so no name operation touches the heap.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "dns/cursor.h"

namespace dnsguard::dns {

inline constexpr std::size_t kMaxLabelLength = 63;
inline constexpr std::size_t kMaxNameLength = 255;

class DomainName {
 public:
  DomainName() = default;  // the root name "."
  // A move is a copy: the bytes live inline, there is nothing to steal.
  DomainName(const DomainName& other) noexcept { copy_from(other); }
  DomainName(DomainName&& other) noexcept { copy_from(other); }
  DomainName& operator=(const DomainName& other) noexcept {
    copy_from(other);
    return *this;
  }
  DomainName& operator=(DomainName&& other) noexcept {
    copy_from(other);
    return *this;
  }

  /// Parses "www.foo.com" or "www.foo.com." (trailing dot optional; "." is
  /// the root). Rejects empty labels, oversize labels and oversize names.
  [[nodiscard]] static std::optional<DomainName> parse(std::string_view text);

  [[nodiscard]] bool is_root() const { return count_ == 0; }
  [[nodiscard]] std::size_t label_count() const { return count_; }

  /// The length-prefixed labels, without the terminating zero byte.
  [[nodiscard]] std::string_view wire() const { return {data_.data(), size_}; }

  /// Presentation form with trailing dot ("www.foo.com.", root is ".").
  [[nodiscard]] std::string to_string() const;

  /// Wire length: 1 length byte per label + label bytes + terminating 0.
  [[nodiscard]] std::size_t wire_length() const { return size_ + 1u; }

  /// True if every label/name length constraint holds (every way of
  /// building a name enforces them; decoder fuzz tests check it).
  [[nodiscard]] bool valid() const;

  /// Case-insensitive equality (RFC 1035 §2.3.3).
  [[nodiscard]] bool equals(const DomainName& other) const;

  /// True iff `this` is `ancestor` or lies underneath it
  /// ("www.foo.com" is_subdomain_of "com" and "foo.com" and itself).
  [[nodiscard]] bool is_subdomain_of(const DomainName& ancestor) const;

  /// Strips the leftmost label ("www.foo.com" -> "foo.com"); root -> root.
  [[nodiscard]] DomainName parent() const;

  /// Prepends a label ("foo.com".with_prefix_label("www") -> "www.foo.com").
  /// Returns nullopt if the result would violate length limits.
  [[nodiscard]] std::optional<DomainName> with_prefix_label(
      std::string_view label) const;

  /// Appends `tail`'s labels ("www".append("foo.com") -> "www.foo.com").
  /// Returns nullopt if the result would exceed the name length limit.
  [[nodiscard]] std::optional<DomainName> append(const DomainName& tail) const;

  /// The leftmost label, or "" for the root.
  [[nodiscard]] std::string_view first_label() const;

  /// Keeps only the rightmost `n` labels ("www.foo.com".suffix(2) ->
  /// "foo.com").
  [[nodiscard]] DomainName suffix(std::size_t n) const;

  /// Case-insensitive 32-bit FNV-1a hash of the label sequence. Equal names
  /// (RFC 1035 case folding) hash equal; allocation-free. Used to key
  /// observability journeys by qname.
  [[nodiscard]] std::uint32_t hash32() const;

  bool operator==(const DomainName& other) const { return equals(other); }

 private:
  friend bool read_name_into(Cursor& c, DomainName& out);

  /// Label bytes a name may hold: kMaxNameLength less the terminating zero.
  static constexpr std::size_t kCapacity = kMaxNameLength - 1;

  void copy_from(const DomainName& other);
  /// Appends one label; false (name unchanged) if it would not fit.
  bool push_label(std::string_view label);
  /// Byte offset of label `i` (i == label_count() gives size_).
  [[nodiscard]] std::size_t label_offset(std::size_t i) const;

  // Bytes at and past size_ are never read, so they stay uninitialized:
  // a default-constructed or copied name writes only what it uses.
  std::array<char, kCapacity> data_;
  std::uint8_t size_ = 0;
  std::uint8_t count_ = 0;
};

/// Tracks names already emitted in a message so later occurrences can be
/// encoded as compression pointers (RFC 1035 §4.1.4). Each literal label
/// written at a pointer-reachable offset becomes one candidate suffix; a
/// later name's suffix matches a candidate when the bytes already in the
/// writer at that offset (following pointers) spell the same labels,
/// case-insensitively.
class NameCompressor {
 public:
  /// Writes `name` at the current writer position, emitting a pointer to an
  /// earlier occurrence of the longest possible suffix.
  void write(ByteWriter& w, const DomainName& name);

 private:
  struct Suffix {
    std::uint16_t offset;  // where its first label starts in the message
    std::uint8_t length;   // its wire length, without the terminating zero
  };
  /// Candidates held inline; a message with more literal labels than this
  /// spills the rest to `spill_`. The benchmark workloads' messages (the
  /// guard's and the servers') hold at most 3.
  static constexpr std::size_t kInline = 16;

  [[nodiscard]] std::optional<std::uint16_t> find(
      const ByteWriter& w, std::string_view suffix) const;
  void remember(std::uint16_t offset, std::size_t length);

  std::array<Suffix, kInline> inline_;
  std::size_t inline_count_ = 0;
  std::vector<Suffix> spill_;
};

/// Writes `name` without compression (used inside RDATA where some
/// implementations choke on pointers, and by the guard's fabricated names).
void write_name_uncompressed(ByteWriter& w, const DomainName& name);

/// Decodes a (possibly compressed) name starting at the cursor's position
/// into `out`. Follows pointers with cycle protection; the cursor ends up
/// positioned just past the name's in-place bytes. Returns false on
/// malformation (`out` then holds a partial name).
[[nodiscard]] bool read_name_into(Cursor& c, DomainName& out);

/// read_name_into() returning the name; nullopt on malformation.
[[nodiscard]] std::optional<DomainName> read_name(Cursor& c);

/// Case-insensitive label comparison helper.
[[nodiscard]] bool label_equal_ci(std::string_view a, std::string_view b);

}  // namespace dnsguard::dns
