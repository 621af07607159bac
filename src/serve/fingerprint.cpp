#include "serve/fingerprint.hpp"

#include <algorithm>

#include "ilp/signature.hpp"

namespace corelocate::serve {

Fingerprint fingerprint_of(const MappingRequest& request) {
  Fingerprint fp;
  fp.signature =
      request.observations ? core::observation_signature(*request.observations) : 0;
  ilp::SignatureBuilder builder(0xF1B6E250ULL);
  builder.add(static_cast<std::uint64_t>(request.model))
      .add(request.ppin)
      .add_int(request.cha_count)
      .add(fp.signature);
  builder.add(request.os_core_to_cha.size());
  for (const int cha : request.os_core_to_cha) builder.add_int(cha);
  builder.add(request.llc_only_chas.size());
  for (const int cha : request.llc_only_chas) builder.add_int(cha);
  fp.value = builder.digest();
  return fp;
}

}  // namespace corelocate::serve
