#ifndef ALEX_COMMON_BINARY_IO_H_
#define ALEX_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace alex {

/// Little-endian binary encoder appending to an owned byte buffer.
///
/// Used by the checkpoint subsystem: every multi-byte integer is written
/// byte-by-byte so snapshots are byte-identical across platforms regardless
/// of host endianness. Doubles travel as their IEEE-754 bit pattern.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void WriteU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void WriteDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }

  /// Length-prefixed (u64) byte string.
  void WriteBytes(std::string_view bytes) {
    WriteU64(bytes.size());
    buffer_.append(bytes.data(), bytes.size());
  }

  /// Raw bytes, no length prefix (for magics and pre-framed payloads).
  void WriteRaw(std::string_view bytes) {
    buffer_.append(bytes.data(), bytes.size());
  }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over a borrowed byte buffer.
///
/// Every read validates the remaining length first and fails with a
/// ParseError Status on truncation — a corrupt or cut-short checkpoint must
/// surface as a clean error, never as out-of-bounds access. The buffer is
/// borrowed and must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out) {
    ALEX_RETURN_NOT_OK(Require(1));
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) {
    ALEX_RETURN_NOT_OK(Require(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    ALEX_RETURN_NOT_OK(Require(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status ReadDouble(double* out) {
    uint64_t bits = 0;
    ALEX_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  /// Reads a length-prefixed byte string. The declared length is validated
  /// against the remaining bytes before any allocation, so a corrupted
  /// length field cannot trigger a huge allocation or an overread.
  Status ReadBytes(std::string* out) {
    uint64_t len = 0;
    ALEX_RETURN_NOT_OK(ReadU64(&len));
    ALEX_RETURN_NOT_OK(Require(len));
    out->assign(data_.data() + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  /// Borrows a length-prefixed byte string without copying; the view is
  /// valid as long as the underlying buffer is.
  Status ReadBytesView(std::string_view* out) {
    uint64_t len = 0;
    ALEX_RETURN_NOT_OK(ReadU64(&len));
    ALEX_RETURN_NOT_OK(Require(len));
    *out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  /// Reads an entry count and rejects it unless the remaining bytes can
  /// hold that many entries of at least `min_entry_bytes` each, so a
  /// corrupted count fails here instead of in a huge reserve() or resize().
  Status ReadCount(size_t min_entry_bytes, uint64_t* out) {
    ALEX_RETURN_NOT_OK(ReadU64(out));
    if (*out > remaining() / min_entry_bytes) {
      return Status::ParseError(
          "corrupt count: " + std::to_string(*out) + " entries of at least " +
          std::to_string(min_entry_bytes) + " bytes at offset " +
          std::to_string(pos_ - 8) + ", have " + std::to_string(remaining()));
    }
    return Status::OK();
  }

  /// Reads `n` raw bytes (no length prefix).
  Status ReadRaw(size_t n, std::string_view* out) {
    ALEX_RETURN_NOT_OK(Require(n));
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Require(uint64_t n) {
    if (n > data_.size() - pos_) {
      return Status::ParseError(
          "truncated input: need " + std::to_string(n) + " bytes at offset " +
          std::to_string(pos_) + ", have " +
          std::to_string(data_.size() - pos_));
    }
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace alex

#endif  // ALEX_COMMON_BINARY_IO_H_
