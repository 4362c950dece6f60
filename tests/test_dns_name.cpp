// Domain name parsing, limits, relations and wire codec incl. compression.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dns/name.h"

namespace dnsguard::dns {
namespace {

TEST(DomainName, ParseBasics) {
  auto n = DomainName::parse("www.foo.com");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->label_count(), 3u);
  EXPECT_EQ(n->to_string(), "www.foo.com.");
  EXPECT_EQ(n->first_label(), "www");
}

TEST(DomainName, TrailingDotOptional) {
  EXPECT_EQ(DomainName::parse("foo.com")->to_string(),
            DomainName::parse("foo.com.")->to_string());
}

TEST(DomainName, RootName) {
  auto root = DomainName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(DomainName, RejectsEmptyAndBadLabels) {
  EXPECT_FALSE(DomainName::parse("").has_value());
  EXPECT_FALSE(DomainName::parse("..").has_value());
  EXPECT_FALSE(DomainName::parse("a..b").has_value());
  EXPECT_FALSE(DomainName::parse(std::string(64, 'x') + ".com").has_value());
  EXPECT_TRUE(DomainName::parse(std::string(63, 'x') + ".com").has_value());
}

TEST(DomainName, RejectsOversizeName) {
  // 5 labels of 63 bytes = 320 wire bytes > 255.
  std::string big;
  for (int i = 0; i < 5; ++i) big += std::string(63, 'a') + ".";
  EXPECT_FALSE(DomainName::parse(big).has_value());
}

TEST(DomainName, CaseInsensitiveEquality) {
  EXPECT_EQ(*DomainName::parse("WWW.Foo.COM"),
            *DomainName::parse("www.foo.com"));
}

TEST(DomainName, SubdomainRelation) {
  auto www = *DomainName::parse("www.foo.com");
  auto foo = *DomainName::parse("foo.com");
  auto com = *DomainName::parse("com");
  auto bar = *DomainName::parse("bar.com");
  EXPECT_TRUE(www.is_subdomain_of(foo));
  EXPECT_TRUE(www.is_subdomain_of(com));
  EXPECT_TRUE(www.is_subdomain_of(DomainName{}));  // root
  EXPECT_TRUE(www.is_subdomain_of(www));
  EXPECT_FALSE(www.is_subdomain_of(bar));
  EXPECT_FALSE(foo.is_subdomain_of(www));
}

TEST(DomainName, ParentAndSuffix) {
  auto www = *DomainName::parse("www.foo.com");
  EXPECT_EQ(www.parent().to_string(), "foo.com.");
  EXPECT_EQ(www.suffix(1).to_string(), "com.");
  EXPECT_EQ(www.suffix(2).to_string(), "foo.com.");
  EXPECT_EQ(www.suffix(5).to_string(), "www.foo.com.");
  EXPECT_TRUE(DomainName{}.parent().is_root());
}

TEST(DomainName, WithPrefixLabel) {
  auto com = *DomainName::parse("com");
  auto prefixed = com.with_prefix_label("PRa1b2c3d4foo");
  ASSERT_TRUE(prefixed.has_value());
  EXPECT_EQ(prefixed->to_string(), "PRa1b2c3d4foo.com.");
  EXPECT_FALSE(com.with_prefix_label("").has_value());
  EXPECT_FALSE(com.with_prefix_label(std::string(64, 'x')).has_value());
}

TEST(NameWire, UncompressedRoundTrip) {
  auto n = *DomainName::parse("a.bc.def.example");
  ByteWriter w;
  write_name_uncompressed(w, n);
  EXPECT_EQ(w.size(), n.wire_length());
  Cursor r(w.view());
  auto d = read_name(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, n);
  EXPECT_TRUE(r.at_end());
}

TEST(NameWire, CompressionReusesSuffix) {
  auto a = *DomainName::parse("www.foo.com");
  auto b = *DomainName::parse("mail.foo.com");
  ByteWriter w;
  NameCompressor compressor;
  compressor.write(w, a);
  std::size_t first = w.size();
  compressor.write(w, b);
  // Second name should be "mail" label (5 bytes) + 2-byte pointer.
  EXPECT_EQ(w.size() - first, 5u + 2u);

  Cursor r(w.view());
  auto da = read_name(r);
  auto db = read_name(r);
  ASSERT_TRUE(da.has_value());
  ASSERT_TRUE(db.has_value());
  EXPECT_EQ(*da, a);
  EXPECT_EQ(*db, b);
}

TEST(NameWire, IdenticalNameBecomesPurePointer) {
  auto a = *DomainName::parse("www.foo.com");
  ByteWriter w;
  NameCompressor compressor;
  compressor.write(w, a);
  std::size_t first = w.size();
  compressor.write(w, a);
  EXPECT_EQ(w.size() - first, 2u);  // a single pointer
}

TEST(NameWire, PointerLoopRejected) {
  // A name whose pointer points at itself.
  Bytes evil{0xc0, 0x00};
  Cursor r{BytesView(evil)};
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, ForwardPointerRejected) {
  // Pointer to offset beyond itself (forward reference).
  Bytes evil{0xc0, 0x05, 0, 0, 0, 3, 'a', 'b', 'c', 0};
  Cursor r{BytesView(evil)};
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, ReservedLabelTypesRejected) {
  Bytes evil{0x80, 'x', 0};  // 10-prefixed label type is reserved
  Cursor r{BytesView(evil)};
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, TruncatedNameRejected) {
  Bytes evil{5, 'a', 'b'};  // label promises 5 bytes, only 2 present
  Cursor r{BytesView(evil)};
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, OversizeAssembledNameRejected) {
  // Chain of labels totalling more than 255 bytes via direct encoding.
  ByteWriter w;
  for (int i = 0; i < 6; ++i) {
    w.u8(50);
    for (int j = 0; j < 50; ++j) w.u8('a');
  }
  w.u8(0);
  Cursor r(w.view());
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(DomainName, GoldenHash32) {
  // Journeys are keyed on hash32(); these values must never change.
  EXPECT_EQ(DomainName{}.hash32(), 0x811c9dc5u);
  EXPECT_EQ(DomainName::parse("com")->hash32(), 0x35b6be4bu);
  EXPECT_EQ(DomainName::parse("www.example.com")->hash32(), 0x0e191bcau);
  EXPECT_EQ(DomainName::parse("WWW.Example.COM")->hash32(), 0x0e191bcau);
  EXPECT_EQ(DomainName::parse("ab.c")->hash32(), 0x2b522176u);
  EXPECT_EQ(DomainName::parse("a.bc")->hash32(), 0x00498c1cu);
  EXPECT_EQ(DomainName::parse("PRa1b2c3d4com")->hash32(), 0x14daf82fu);
  EXPECT_EQ(DomainName::parse("_sip._tcp.example.org")->hash32(), 0x414a9c24u);
}

TEST(DomainName, AppendJoinsLabelsWithinLimits) {
  auto www = *DomainName::parse("www");
  auto joined = www.append(*DomainName::parse("foo.com"));
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->to_string(), "www.foo.com.");
  EXPECT_EQ(joined->label_count(), 3u);
  EXPECT_TRUE(joined->valid());
  EXPECT_EQ(www.append(DomainName{})->to_string(), "www.");
  // 4 labels of 63 bytes = 256 label bytes: one past the 254 a name holds.
  auto half = *DomainName::parse(std::string(63, 'a') + "." +
                                 std::string(63, 'b'));
  EXPECT_FALSE(half.append(half).has_value());
}

TEST(NameWire, DottedLabelDoesNotAliasSeparateLabels) {
  // One label "a.b" under "com" and the three labels a, b, com spell the
  // same dotted text. Compression must tell them apart: a pointer from
  // one to the other would change the second name's label structure.
  const Bytes wire{3, 'a', '.', 'b', 3, 'c', 'o', 'm', 0};
  Cursor in{BytesView(wire)};
  auto dotted = read_name(in);
  ASSERT_TRUE(dotted.has_value());
  ASSERT_EQ(dotted->label_count(), 2u);
  auto plain = *DomainName::parse("a.b.com");

  ByteWriter w;
  NameCompressor compressor;
  compressor.write(w, *dotted);
  compressor.write(w, plain);
  Cursor r(w.view());
  auto d1 = read_name(r);
  auto d2 = read_name(r);
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d1->label_count(), 2u);
  EXPECT_EQ(d2->label_count(), 3u);
  EXPECT_EQ(*d1, *dotted);
  EXPECT_EQ(*d2, plain);
}

// The compressor before names went wire-form: suffixes keyed by their
// lowercased, dot-joined text in a hash map. Kept as the reference the
// byte-matching compressor must agree with on names without dotted labels.
class ReferenceCompressor {
 public:
  void write(ByteWriter& w, const DomainName& name) {
    const std::vector<std::string> labels = labels_of(name);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::string key;
      for (std::size_t j = i; j < labels.size(); ++j) {
        for (char c : labels[j]) {
          const auto u = static_cast<unsigned char>(c);
          key.push_back(static_cast<char>(std::tolower(u)));
        }
        key.push_back('.');
      }
      auto it = offsets_.find(key);
      if (it != offsets_.end() && it->second <= 0x3fff) {
        w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w.size() <= 0x3fff) offsets_.emplace(std::move(key), w.size());
      w.u8(static_cast<std::uint8_t>(labels[i].size()));
      w.raw(labels[i]);
    }
    w.u8(0);
  }

 private:
  static std::vector<std::string> labels_of(const DomainName& name) {
    std::vector<std::string> labels;
    const std::string_view wire = name.wire();
    for (std::size_t off = 0; off < wire.size();) {
      const std::size_t len = static_cast<std::uint8_t>(wire[off]);
      labels.emplace_back(wire.substr(off + 1, len));
      off += 1 + len;
    }
    return labels;
  }

  std::unordered_map<std::string, std::size_t> offsets_;
};

TEST(NameWire, CompressorMatchesReferenceOnSeededMessages) {
  Rng rng(20240617);
  const std::vector<std::string> pool = {"com", "net", "Example", "EXAMPLE",
                                         "www", "WWW", "mail", "a", "b",
                                         "xn--bcher-kva", "PRa1b2c3d4com"};
  auto random_name = [&] {
    std::string text;
    const std::size_t labels = 1 + rng.bounded(5);
    for (std::size_t i = 0; i < labels; ++i) {
      if (rng.chance(0.2)) {
        // A fresh label: forces new suffix entries past the inline ones.
        text += 'u';
        text += std::to_string(rng.bounded(100000));
      } else {
        text += pool[rng.bounded(pool.size())];
      }
      text += '.';
    }
    return *DomainName::parse(text);
  };
  for (int trial = 0; trial < 200; ++trial) {
    // Some messages start just below the 14-bit pointer limit, so offsets
    // straddle 0x3fff: suffixes written past it are not remembered.
    const std::size_t prefix =
        trial % 4 == 0 ? 0x3fff - rng.bounded(300) : rng.bounded(64);
    ByteWriter got;
    ByteWriter want;
    for (std::size_t i = 0; i < prefix; ++i) {
      got.u8(0xee);
      want.u8(0xee);
    }
    NameCompressor compressor;
    ReferenceCompressor reference;
    const std::size_t names = 1 + rng.bounded(trial % 10 == 0 ? 120 : 12);
    for (std::size_t i = 0; i < names; ++i) {
      const DomainName n = random_name();
      compressor.write(got, n);
      reference.write(want, n);
    }
    ASSERT_EQ(got.bytes(), want.bytes()) << "trial " << trial;
  }
}

// Property: parse -> wire -> parse is identity for many realistic names.
class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, Identity) {
  auto n = DomainName::parse(GetParam());
  ASSERT_TRUE(n.has_value());
  ByteWriter w;
  NameCompressor c;
  c.write(w, *n);
  Cursor r(w.view());
  auto d = read_name(r);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, *n);
  EXPECT_EQ(d->to_string(), n->to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Names, NameRoundTrip,
    ::testing::Values(".", "com", "foo.com", "www.foo.com",
                      "a.b.c.d.e.f.g.h.i.j", "xn--bcher-kva.example",
                      "PRa1b2c3d4com", "PRdeadbeefwww.foo.com",
                      "a.root-servers.net", "_sip._tcp.example.org"));

}  // namespace
}  // namespace dnsguard::dns
