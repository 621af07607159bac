#pragma once
// The undisclosed LLC slice-interleaving hash.
//
// Intel distributes physical addresses over the LLC slices with an
// undocumented hash. The paper's method never needs to know it — step 1
// discovers line homes *empirically* through LLC_LOOKUP counters — but the
// simulator needs a concrete function. We model the documented structure:
// a GF(2)-linear XOR-fold of address bits producing a small digest, reduced
// mod the slice count, with the bit masks keyed per CPU instance (so two
// instances interleave differently, as fused-off slice counts force on
// real parts).

#include <cstdint>

namespace corelocate::cache {

/// Cache-line-granular address (byte address >> 6).
using LineAddr = std::uint64_t;

constexpr int kLineBytes = 64;

class SliceHash {
 public:
  /// `slice_count` active LLC slices; `key` personalizes the fold masks.
  SliceHash(int slice_count, std::uint64_t key);

  int slice_count() const noexcept { return slice_count_; }

  /// Home slice of a cache line, in [0, slice_count).
  int slice_of(LineAddr line) const noexcept;

 private:
  static constexpr int kDigestBits = 12;
  static constexpr int kAddressBytes = 5;  ///< the masks cover bits [0, 40)

  int slice_count_;
  /// The digest is GF(2)-linear in the address bits, so it is the XOR of
  /// one digest per address byte: digest_of_byte_[k][v] is the digest of
  /// a line whose only non-zero byte is byte k, equal to v.
  std::uint16_t digest_of_byte_[kAddressBytes][256];
};

}  // namespace corelocate::cache
