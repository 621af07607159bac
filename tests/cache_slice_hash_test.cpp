#include "cache/slice_hash.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.hpp"

namespace corelocate::cache {
namespace {

TEST(SliceHash, Deterministic) {
  SliceHash hash(26, 0xABCDEF);
  for (LineAddr line = 0; line < 1000; ++line) {
    EXPECT_EQ(hash.slice_of(line), hash.slice_of(line));
  }
}

TEST(SliceHash, StaysInRange) {
  SliceHash hash(26, 1);
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const int slice = hash.slice_of(rng());
    EXPECT_GE(slice, 0);
    EXPECT_LT(slice, 26);
  }
}

TEST(SliceHash, RejectsNonPositiveCount) {
  EXPECT_THROW(SliceHash(0, 1), std::invalid_argument);
  EXPECT_THROW(SliceHash(-3, 1), std::invalid_argument);
}

TEST(SliceHash, KeysProduceDifferentInterleavings) {
  SliceHash a(18, 111);
  SliceHash b(18, 222);
  int differ = 0;
  for (LineAddr line = 0; line < 2000; ++line) {
    if (a.slice_of(line << 10) != b.slice_of(line << 10)) ++differ;
  }
  EXPECT_GT(differ, 500);
}

// The distribution must be balanced enough that every slice fills an
// eviction-set bucket in a bounded number of draws.
class SliceHashBalance : public ::testing::TestWithParam<int> {};

TEST_P(SliceHashBalance, RoughlyUniformOverSlices) {
  const int slices = GetParam();
  SliceHash hash(slices, 0x5EED + static_cast<std::uint64_t>(slices));
  std::vector<int> counts(static_cast<std::size_t>(slices), 0);
  util::Rng rng(7);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    // Same address shape the eviction-set builder uses: fixed L2 set bits.
    const LineAddr line = (rng() & ((1ULL << 34) - 1)) << 10 | 0x2A;
    ++counts[static_cast<std::size_t>(hash.slice_of(line))];
  }
  const double expect = static_cast<double>(draws) / slices;
  for (int s = 0; s < slices; ++s) {
    EXPECT_GT(counts[static_cast<std::size_t>(s)], expect * 0.5)
        << "slice " << s << " underfilled";
    EXPECT_LT(counts[static_cast<std::size_t>(s)], expect * 1.7)
        << "slice " << s << " overfilled";
  }
}

INSTANTIATE_TEST_SUITE_P(SliceCounts, SliceHashBalance,
                         ::testing::Values(10, 18, 24, 26, 28));

TEST(SliceHash, IndependentOfLowL2SetBits) {
  // Lines in the same L2 set must still spread over slices, or slice
  // eviction sets could never be formed.
  SliceHash hash(26, 99);
  std::vector<int> seen(26, 0);
  util::Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const LineAddr line = (rng() & ((1ULL << 30) - 1)) << 10;  // set bits zero
    ++seen[static_cast<std::size_t>(hash.slice_of(line))];
  }
  int nonzero = 0;
  for (int c : seen) nonzero += c > 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 26);
}

/// The hash's defining bit loop: twelve keyed masks over address bits
/// [0, 40), digest bit b = parity(line & mask_b), reduced mod the slice
/// count. The table-driven SliceHash must agree with it on every line.
int reference_slice_of(LineAddr line, int slice_count, std::uint64_t key) {
  std::uint64_t sm = key ^ 0xC0FFEE5ABCD12345ULL;
  std::uint32_t digest = 0;
  for (int b = 0; b < 12; ++b) {
    std::uint64_t mask = util::splitmix64(sm) & ((1ULL << 40) - 1);
    if (mask == 0) mask = 1;
    digest |= static_cast<std::uint32_t>(std::popcount(line & mask) & 1) << b;
  }
  return static_cast<int>(digest % static_cast<std::uint32_t>(slice_count));
}

TEST(SliceHash, TableMatchesPopcountReference) {
  util::Rng rng(0x51CE);
  const std::uint64_t keys[] = {0, 1, 0xFEED, 0xABCDEF, 0x0123456789ABCDEFULL, ~0ULL};
  for (const std::uint64_t key : keys) {
    std::vector<SliceHash> hashes;
    for (int slices = 1; slices <= 64; ++slices) hashes.emplace_back(slices, key);
    for (int i = 0; i < 100000; ++i) {
      // Full 64-bit lines (bits >= 40 must be ignored by both), plus
      // single-bit and single-byte lines so every bit position and every
      // table entry is exercised on its own.
      LineAddr line = rng();
      if (i % 4 == 1) line = 1ULL << (i % 64);
      if (i % 4 == 2) line = (line & 0xFF) << (8 * (i % 8));
      const int slices = 1 + i % 64;
      ASSERT_EQ(hashes[static_cast<std::size_t>(slices - 1)].slice_of(line),
                reference_slice_of(line, slices, key))
          << "key " << key << " slices " << slices << " line " << line;
    }
  }
}

}  // namespace
}  // namespace corelocate::cache
