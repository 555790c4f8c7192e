// Binary serialization for protocol messages.
//
// Little-endian fixed-width integers, LEB128 varints for lengths, and
// length-prefixed byte strings. BigInts travel as sign byte + big-endian
// magnitude. Reader throws CodecError on truncated or malformed input so a
// hostile peer cannot drive the parser out of bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "common/error.h"

namespace ice::net {

class Writer {
 public:
  /// Leases the backing buffer from the thread's BufferPool; a destroyed or
  /// taken-and-released writer returns its capacity there, so steady-state
  /// frame construction reuses storage instead of allocating.
  Writer();
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) {
    if (buf_.size() == buf_.capacity()) grow(1);
    buf_.push_back(v);
  }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Unsigned LEB128.
  void varint(std::uint64_t v);
  /// varint length followed by raw bytes.
  void bytes(BytesView data);
  void str(std::string_view s);
  void bigint(const bn::BigInt& v);
  /// Appends `n` zero bytes and returns a pointer to them, for encoders
  /// that fill a pre-sized region in place (possibly from several threads,
  /// into disjoint slices). Valid until the next append.
  std::uint8_t* extend(std::size_t n);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Moves the accumulated buffer out; the writer is empty afterwards.
  Bytes take() { return std::move(buf_); }

 private:
  /// Makes room for `n` more bytes. Growth past BufferPool::kLargeFrame
  /// moves the frame into a buffer from the pool's shared large list
  /// instead of reallocating thread-local storage.
  void grow(std::size_t n);

  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}
  /// Reader only views the buffer; constructing from a temporary would
  /// dangle immediately.
  explicit Reader(Bytes&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  Bytes bytes();
  /// Length-prefixed bytes as a view into the underlying buffer (no copy).
  /// Same truncation check as bytes(); the view lives as long as the data
  /// the Reader was constructed over.
  BytesView bytes_view();
  std::string str();
  bn::BigInt bigint();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// Throws CodecError unless all input was consumed.
  void expect_done() const;

 private:
  BytesView take(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace ice::net
