#pragma once
// Canonical content signatures for solver inputs.
//
// The paper's fleet survey shows that solver inputs repeat massively
// across instances (8124M/8175M share one OS<->CHA map across 100
// machines; 8259CL has 7 variants), so both the serving layer's map
// cache and the solver's solution cache key on a *signature* of the
// observation set rather than on instance identity. Two requirements:
//
//   * deterministic: a pure function of the input values, no pointers,
//     no iteration over unordered containers;
//   * order-invariant where the input is a set: permuting the elements
//     of an observation set must not change the signature, because the
//     probe order is a measurement artifact, not information.
//
// SignatureBuilder is an order-sensitive 64-bit chain hash (for the
// fields *within* one element, whose order is meaningful);
// combine_unordered folds element digests into a set signature by
// sorting them first, which makes the result permutation-invariant
// without losing multiplicity.

#include <cstdint>
#include <string_view>
#include <vector>

namespace corelocate::ilp {

/// Order-sensitive 64-bit content hash (SplitMix64-based chaining).
class SignatureBuilder {
 public:
  /// `salt` separates signature domains (e.g. rows vs columns models).
  explicit SignatureBuilder(std::uint64_t salt = 0) noexcept;

  SignatureBuilder& add(std::uint64_t value) noexcept;
  SignatureBuilder& add_int(std::int64_t value) noexcept;
  SignatureBuilder& add_text(std::string_view text) noexcept;

  std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// Permutation-invariant fold of element digests: sorts a copy, then
/// chain-hashes the sorted sequence (length included, so {a} and {a,a}
/// differ). The inputs are consumed by value so callers can move.
std::uint64_t combine_unordered(std::vector<std::uint64_t> element_digests) noexcept;

}  // namespace corelocate::ilp
