#pragma once
// Instance fingerprints: the map-cache key and the solve-batch key.
//
// `signature` canonicalizes the observation *content*
// (core::observation_signature): each observation hashes its own fields
// in order (activations sorted, because PMON readout order is a
// measurement artifact), and the per-observation digests fold
// order-invariantly (ilp::combine_unordered). Permuting the
// observation set — or the activations within one observation — never
// changes the signature, so a replayed instance hits the cache no matter
// how its probe loop was scheduled.
//
// `value` adds instance identity (PPIN, model, step-1 ID mapping) on top
// of the signature: it is the LRU cache key, while `signature` alone is
// the batcher's solve-dedup key — distinct instances that produced
// identical observations (the paper's Table I/II repetition) share one
// solve even though they cache separately.

#include <cstdint>

#include "serve/request.hpp"

namespace corelocate::serve {

struct Fingerprint {
  std::uint64_t value = 0;      ///< cache key: identity + signature
  std::uint64_t signature = 0;  ///< core::observation_signature
};

/// Full fingerprint of a mapping request (also used by covert plans).
Fingerprint fingerprint_of(const MappingRequest& request);

}  // namespace corelocate::serve
