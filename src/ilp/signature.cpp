#include "ilp/signature.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace corelocate::ilp {

SignatureBuilder::SignatureBuilder(std::uint64_t salt) noexcept
    : state_(util::mix64(salt ^ 0x51617EC0DE51617EULL)) {}

SignatureBuilder& SignatureBuilder::add(std::uint64_t value) noexcept {
  state_ = util::mix64(state_ ^ util::mix64(value));
  return *this;
}

SignatureBuilder& SignatureBuilder::add_int(std::int64_t value) noexcept {
  return add(static_cast<std::uint64_t>(value));
}

SignatureBuilder& SignatureBuilder::add_text(std::string_view text) noexcept {
  add(text.size());
  // Pack 8 bytes per word; the trailing partial word is zero-padded,
  // which is unambiguous because the length is already mixed in.
  std::uint64_t word = 0;
  int filled = 0;
  for (const char c : text) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
            << (8 * filled);
    if (++filled == 8) {
      add(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled != 0) add(word);
  return *this;
}

// The by-value vector is deliberate: callers move their digest lists in
// and the sort must not mutate a caller's copy.
// corelint: disable(perf-copy-in-hot-path)
std::uint64_t combine_unordered(std::vector<std::uint64_t> element_digests) noexcept {
  std::sort(element_digests.begin(), element_digests.end());
  SignatureBuilder builder(0xC0B1E5E7ULL);
  builder.add(element_digests.size());
  for (const std::uint64_t digest : element_digests) builder.add(digest);
  return builder.digest();
}

}  // namespace corelocate::ilp
