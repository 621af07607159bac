#include "cache/slice_hash.hpp"

#include <bit>
#include <stdexcept>

#include "util/rng.hpp"

namespace corelocate::cache {

SliceHash::SliceHash(int slice_count, std::uint64_t key) : slice_count_(slice_count) {
  if (slice_count <= 0) throw std::invalid_argument("SliceHash: slice_count must be > 0");
  // Derive the GF(2) fold masks from the key. Each digest bit is the XOR
  // (parity) of a keyed subset of the line-address bits.
  std::uint64_t masks[kDigestBits];
  std::uint64_t sm = key ^ 0xC0FFEE5ABCD12345ULL;
  for (auto& mask : masks) {
    mask = util::splitmix64(sm);
    // Keep the masks inside the physically meaningful address bits and
    // guarantee they are non-zero so every digest bit actually varies.
    mask &= (1ULL << 40) - 1;
    if (mask == 0) mask = 1;
  }
  for (int byte = 0; byte < kAddressBytes; ++byte) {
    for (std::uint64_t value = 0; value < 256; ++value) {
      const std::uint64_t bits = value << (8 * byte);
      std::uint16_t digest = 0;
      for (int b = 0; b < kDigestBits; ++b) {
        digest |= static_cast<std::uint16_t>((std::popcount(bits & masks[b]) & 1) << b);
      }
      digest_of_byte_[byte][value] = digest;
    }
  }
}

int SliceHash::slice_of(LineAddr line) const noexcept {
  const std::uint32_t digest = digest_of_byte_[0][line & 0xFF] ^
                               digest_of_byte_[1][(line >> 8) & 0xFF] ^
                               digest_of_byte_[2][(line >> 16) & 0xFF] ^
                               digest_of_byte_[3][(line >> 24) & 0xFF] ^
                               digest_of_byte_[4][(line >> 32) & 0xFF];
  return static_cast<int>(digest % static_cast<std::uint32_t>(slice_count_));
}

}  // namespace corelocate::cache
