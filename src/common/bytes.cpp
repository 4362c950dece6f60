#include "common/bytes.h"

namespace dnsguard {

void ByteWriter::patch_u16(std::size_t at, std::uint16_t v) {
  if (at + 2 > buf_.size()) return;
  buf_[at] = static_cast<std::uint8_t>(v >> 8);
  buf_[at + 1] = static_cast<std::uint8_t>(v);
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (pos_ + 2 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  auto v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

BytesView ByteReader::raw(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return {};
  }
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void ByteReader::seek(std::size_t pos) {
  if (pos > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return;
  }
  pos_ = pos;
}

void ByteReader::skip(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return;
  }
  pos_ += n;
}

}  // namespace dnsguard
