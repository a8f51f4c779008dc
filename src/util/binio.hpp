// Little-endian binary stream I/O for the versioned checkpoint format
// (sim/checkpoint.hpp).
//
// Every multi-byte value is written least-significant byte first,
// independent of host endianness, so an artifact written on one machine
// restores bit-identically on any other. BinWriter/BinReader additionally
// maintain a running FNV-1a digest of every byte that passes through them:
// the writer appends it as a trailer and the reader verifies it, so any
// single-byte corruption of the payload is detected as a clear error
// instead of undefined behavior.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "util/check.hpp"

namespace hp::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step over a single byte.
constexpr std::uint64_t fnv1a_byte(std::uint64_t hash, std::uint8_t byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// Little-endian writer with a running FNV-1a digest of the payload.
class BinWriter {
 public:
  explicit BinWriter(std::ostream& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) put(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) put(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) put(static_cast<std::uint8_t>(c));
  }

  /// Digest of everything written so far.
  std::uint64_t digest() const { return digest_; }

  /// Writes the current digest as a trailer (the trailer itself is not
  /// digested, so the matching BinReader::verify_digest sees the same
  /// payload hash).
  void write_digest_trailer() {
    const std::uint64_t d = digest_;
    for (int i = 0; i < 8; ++i) {
      out_.put(static_cast<char>(static_cast<std::uint8_t>(d >> (8 * i))));
    }
  }

  /// True iff every write so far reached the stream.
  bool good() const { return out_.good(); }

 private:
  void put(std::uint8_t byte) {
    out_.put(static_cast<char>(byte));
    digest_ = fnv1a_byte(digest_, byte);
  }

  std::ostream& out_;
  std::uint64_t digest_ = kFnvOffset;
};

/// Little-endian reader mirroring BinWriter. Every read HP_REQUIREs that
/// the stream still has bytes, so a truncated artifact fails with a clear
/// error at the first missing byte.
class BinReader {
 public:
  /// `what` names the artifact in error messages ("checkpoint", ...).
  BinReader(std::istream& in, std::string what)
      : in_(in), what_(std::move(what)) {}

  std::uint8_t u8() { return take(); }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(take()) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(take()) << (8 * i);
    }
    return v;
  }

  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  std::string str(std::size_t max_len = 4096) {
    const std::uint32_t len = u32();
    HP_REQUIRE(len <= max_len, what_ + " is corrupt (string length " +
                                   std::to_string(len) + " exceeds limit)");
    std::string s;
    s.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(take()));
    }
    return s;
  }

  std::uint64_t digest() const { return digest_; }

  /// Reads the digest trailer and checks it against the payload digest.
  void verify_digest_trailer() {
    const std::uint64_t expected = digest_;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      const int c = in_.get();
      HP_REQUIRE(c != std::char_traits<char>::eof(),
                 what_ + " is truncated (missing checksum trailer)");
      stored |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(c))
                << (8 * i);
    }
    HP_REQUIRE(stored == expected,
               what_ + " is corrupt (checksum mismatch)");
  }

 private:
  std::uint8_t take() {
    const int c = in_.get();
    HP_REQUIRE(c != std::char_traits<char>::eof(),
               what_ + " is truncated or corrupt (unexpected end of data)");
    const auto byte = static_cast<std::uint8_t>(c);
    digest_ = fnv1a_byte(digest_, byte);
    return byte;
  }

  std::istream& in_;
  std::string what_;
  std::uint64_t digest_ = kFnvOffset;
};

}  // namespace hp::util
