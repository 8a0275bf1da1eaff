// The data plane's one integrity hash: replicated-log records, replica
// images and kChecksum-mode object slots all validate through it
// (DESIGN.md §11.1).
//
// A 64-bit state, seeded with the total byte count, consumes the input one
// 8-byte word per step:
//
//   h = (h ^ w) * K;  h ^= h >> 32;      K odd
//
// For a fixed state each step is a bijection of the word, and for a fixed
// word it is a bijection of the state, so a change confined to one 8-byte
// word always changes the final 64-bit state. Words are loaded with
// std::memcpy in host byte order (no unaligned casts); a partial last word
// is zero-padded, which is why the length seeds the state: without it "ab"
// and "ab\0" would hash alike. Finish() runs an avalanche and folds the
// state to the 32 bits the wire formats store, so two different inputs
// collide there with probability about 2^-32.
//
// Multi-span checks chain through the 64-bit state and fold once:
//
//   IntegrityHash(m + n).Update(a, m).Update(b, n).Finish()
//
// Each Update zero-pads its own span to a whole word, so the chained form
// equals the one-span hash of a ‖ zeros(-m mod 8) ‖ b under the same seed;
// when m is a multiple of 8 that is exactly the one-span hash of a ‖ b.

#ifndef CORM_COMMON_CHECKSUM_H_
#define CORM_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace corm {

class IntegrityHash {
 public:
  // `len` is the total number of bytes the Updates will cover.
  explicit IntegrityHash(uint64_t len) : h_(len ^ kBasis) {}

  IntegrityHash& Update(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t h = h_;
    for (; n >= 8; n -= 8, p += 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = Mix(h, w);
    }
    if (n != 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      h = Mix(h, w);
    }
    h_ = h;
    return *this;
  }

  uint32_t Finish() const {
    uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

 private:
  static constexpr uint64_t kBasis = 0x243f6a8885a308d3ull;
  static constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;  // odd
  static_assert(kMul % 2 == 1, "the step is a bijection only for odd K");

  static uint64_t Mix(uint64_t h, uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  }

  uint64_t h_;
};

}  // namespace corm

#endif  // CORM_COMMON_CHECKSUM_H_
