// Byte-oriented wire format for protocol messages.
//
// Deployments of the framework run parties on separate machines; everything
// a party sends must have a canonical byte encoding. This module provides
// the primitive Writer/Reader (little-endian fixed integers, LEB128
// varints and raw fixed-size fields) used by the codec functions next to
// each message type (crypto/codec.h, core/codec.h). The trace recorder's
// byte accounting is cross-checked against these encodings by
// tests/wire_test.cpp.
//
// Format invariants:
//  - varints carry values up to 2^64-1, minimally encoded;
//  - readers validate eagerly and throw WireError on truncation or
//    non-canonical input; a Reader must be fully consumed (finish()).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>


namespace ppgr::runtime {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Encoded size of varint(v) in bytes — used by the analytic message-size
/// formulas so they stay exactly equal to the serialized sizes.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128.
  void varint(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::uint64_t varint();
  /// The next `len` bytes, as a view into the input (valid while it is).
  [[nodiscard]] std::span<const std::uint8_t> raw(std::size_t len);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws WireError if any input is left unconsumed.
  void finish() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ppgr::runtime
