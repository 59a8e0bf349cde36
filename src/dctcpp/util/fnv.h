// FNV-1a, 64-bit: the one hash behind every run fingerprint (incast and
// fabric results, churn checkpoint blobs). Order-sensitive and fed one
// byte at a time, so two fingerprints are equal iff the byte streams are
// (up to collisions). Integers go in as their 8 little-end bytes, doubles
// by bit pattern.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace dctcpp {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  void Byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= kPrime;
  }
  void Bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Byte(p[i]);
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void F64(double d) { U64(std::bit_cast<std::uint64_t>(d)); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

}  // namespace dctcpp
