// Packed bitstring names.
//
// Sublinear-Time-SSR gives each agent a name in {0,1}^{<= 3*log2 n} (Section
// 5.1). Names are built one random bit at a time while the agent is dormant,
// so the type supports partial lengths, and ranks are assigned by
// lexicographic order over bitstrings, where a proper prefix sorts before any
// of its extensions. Bits are stored MSB-first in a single 64-bit word
// (n up to ~2^21 fits: 3*log2 n <= 63).
//
// Invariant: every bit of the word past the name's length is zero
// (`from_bits`, `append_bit` and `clear` keep it so). Hence a proper prefix
// has the same word as its all-zero extensions and a word no larger than
// any other extension, so comparing the pair (word, length) is exactly the
// prefix-first lexicographic order, and equality is equality of the pair.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/intlog.h"

namespace ppsim {

class Name {
 public:
  static constexpr std::uint32_t kMaxBits = 63;

  constexpr Name() = default;  // the empty string epsilon

  static Name from_bits(std::uint64_t value, std::uint32_t length) {
    if (length > kMaxBits) throw std::invalid_argument("name too long");
    Name n;
    n.len_ = length;
    // Place the `length` low bits of value at the top of the word, first bit
    // (most significant of value's low `length` bits) first.
    n.bits_ = length == 0 ? 0 : (value << (64 - length));
    return n;
  }

  // The number of bits a name has for population size n: 3*ceil(log2 n),
  // at least 3 (the paper's 3*log2 n; ceilings are asymptotically negligible).
  static std::uint32_t full_length(std::uint32_t n) {
    return std::max<std::uint32_t>(3, 3 * ppsim::ceil_log2(n));
  }

  constexpr std::uint32_t length() const { return len_; }
  constexpr bool empty() const { return len_ == 0; }

  void clear() {
    len_ = 0;
    bits_ = 0;
  }

  void append_bit(bool bit) {
    if (len_ >= kMaxBits) throw std::length_error("name at maximum length");
    if (bit) bits_ |= (1ULL << (63 - len_));
    ++len_;
  }

  bool bit(std::uint32_t i) const {
    if (i >= len_) throw std::out_of_range("bit index past name length");
    return ((bits_ >> (63 - i)) & 1ULL) != 0;
  }

  // Lexicographic bitstring order; a proper prefix precedes its extensions.
  // Relies on the zero-tail invariant in the header comment.
  friend constexpr std::strong_ordering operator<=>(const Name& a,
                                                    const Name& b) {
    if (a.bits_ != b.bits_) return a.bits_ <=> b.bits_;
    return a.len_ <=> b.len_;
  }

  // A 64-bit key whose integer order is the order above: the name's index
  // in the preorder of all bitstrings of length <= kMaxBits. Before a name
  // come its `len` proper prefixes and, for each 1 bit at position i, the
  // 2^(63-i) - 1 strings below the 0 branch there (63 one bits: 2^64 - 2).
  constexpr std::uint64_t preorder_index() const {
    return bits_ - static_cast<std::uint64_t>(std::popcount(bits_)) + len_;
  }

  friend bool operator==(const Name& a, const Name& b) {
    return a.len_ == b.len_ && a.bits_ == b.bits_;
  }

  std::string to_string() const {
    if (len_ == 0) return "eps";
    std::string s;
    s.reserve(len_);
    for (std::uint32_t i = 0; i < len_; ++i) s.push_back(bit(i) ? '1' : '0');
    return s;
  }

  // 64-bit mix of (bits, len) for Bloom digests and hashing.
  std::uint64_t hash() const {
    std::uint64_t z = bits_ ^ (0x9e3779b97f4a7c15ULL * (len_ + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint32_t len_ = 0;
  std::uint64_t bits_ = 0;  // MSB-first: bit i of the string at position 63-i
};

}  // namespace ppsim

template <>
struct std::hash<ppsim::Name> {
  std::size_t operator()(const ppsim::Name& n) const noexcept {
    return static_cast<std::size_t>(n.hash());
  }
};
