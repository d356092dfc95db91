#include "runtime/wire.h"

namespace ppgr::runtime {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw WireError("wire: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Canonicality: the final byte of a multi-byte varint must be nonzero.
      if (shift > 0 && byte == 0) throw WireError("wire: non-canonical varint");
      return v;
    }
  }
  throw WireError("wire: varint too long");
}

std::span<const std::uint8_t> Reader::raw(std::size_t len) {
  need(len);
  const auto out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

void Reader::finish() const {
  if (remaining() != 0) throw WireError("wire: trailing bytes");
}

}  // namespace ppgr::runtime
