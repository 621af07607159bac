#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/observation.hpp"
#include "util/rng.hpp"

namespace corelocate::serve {

namespace {

constexpr std::uint64_t kStreamSalt = 0x10AD57BEA4ULL;

}  // namespace

const char* model_token(sim::XeonModel model) {
  switch (model) {
    case sim::XeonModel::k8124M: return "8124M";
    case sim::XeonModel::k8175M: return "8175M";
    case sim::XeonModel::k8259CL: return "8259CL";
    case sim::XeonModel::k6354: return "6354";
  }
  return "?";
}

bool parse_model_token(const std::string& token, sim::XeonModel& model) {
  for (const sim::XeonModel candidate : sim::all_models()) {
    if (token == model_token(candidate)) {
      model = candidate;
      return true;
    }
  }
  return false;
}

MappingRequest synthesize_client(sim::XeonModel model, std::uint64_t seed,
                                 const sim::InstanceFactory& factory) {
  util::Rng rng(seed);
  const sim::InstanceConfig config = factory.make_instance(model, rng);
  MappingRequest request;
  request.model = model;
  request.ppin = config.ppin;
  request.cha_count = config.cha_count();
  request.os_core_to_cha = config.os_core_to_cha;
  request.llc_only_chas = config.llc_only_chas();
  request.observations = std::make_shared<const core::ObservationSet>(
      core::synthesize_observations(config));
  return request;
}

std::shared_ptr<const core::ObservationSet> permute_observations(
    const core::ObservationSet& observations, std::uint64_t seed) {
  util::Rng rng(seed);
  auto permuted = std::make_shared<core::ObservationSet>(observations);
  util::shuffle(*permuted, rng);
  for (core::PathObservation& observation : *permuted) {
    util::shuffle(observation.activations, rng);
  }
  return permuted;
}

Loadgen::Loadgen(LoadgenOptions options) : options_(std::move(options)) {
  if (options_.distinct_per_sku < 1) {
    throw std::invalid_argument("Loadgen: distinct_per_sku must be >= 1");
  }
  if (options_.skus.empty()) throw std::invalid_argument("Loadgen: no SKUs");

  const sim::InstanceFactory factory(options_.fleet_seed);
  pool_.reserve(options_.skus.size() *
                static_cast<std::size_t>(options_.distinct_per_sku));
  // Interleave (instance-major, SKU-minor) so the Zipf head spreads
  // across all four SKUs instead of exhausting one model first.
  for (int d = 0; d < options_.distinct_per_sku; ++d) {
    for (std::size_t s = 0; s < options_.skus.size(); ++s) {
      Pooled pooled;
      pooled.model = options_.skus[s];
      pooled.instance_seed =
          util::mix64(options_.seed ^
                      util::mix64((static_cast<std::uint64_t>(d) << 8) + s));
      pooled.request = synthesize_client(pooled.model, pooled.instance_seed, factory);
      pool_.push_back(std::move(pooled));
    }
  }

  cumulative_.reserve(pool_.size());
  double total = 0.0;
  for (std::size_t rank = 0; rank < pool_.size(); ++rank) {
    total += std::pow(static_cast<double>(rank + 1), -options_.zipf_exponent);
    cumulative_.push_back(total);
  }
  for (double& value : cumulative_) value /= total;
  cumulative_.back() = 1.0;  // guard against rounding at the boundary
}

Loadgen::Draw Loadgen::draw_for(std::uint64_t index) const {
  util::Rng rng(util::mix64(options_.seed ^ kStreamSalt) ^ util::mix64(index + 1));
  Draw draw;
  const double kind = rng.uniform();
  if (kind < options_.survey_fraction) {
    draw.survey_model =
        options_.skus[static_cast<std::size_t>(rng.below(options_.skus.size()))];
    return draw;
  }
  draw.plan = kind < options_.survey_fraction + options_.plan_fraction;
  const double u = rng.uniform();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  draw.pool = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_.begin()), pool_.size() - 1));
  if (draw.plan) {
    draw.surround = rng.chance(0.5);
    draw.count = 2 + static_cast<int>(rng.below(3));
  }
  if (rng.chance(options_.permute_fraction)) {
    draw.permute_seed = rng() | 1;  // nonzero marks "permuted"
  }
  return draw;
}

Request Loadgen::make_request(std::uint64_t index) const {
  const Draw draw = draw_for(index);
  if (draw.pool < 0) {
    SurveyRequest survey;
    survey.model = draw.survey_model;
    survey.instances = 3;
    survey.base_seed = util::mix64(options_.seed ^ index);
    survey.fleet_seed = options_.fleet_seed;
    return Request{survey};
  }
  MappingRequest mapping = pool_[static_cast<std::size_t>(draw.pool)].request;
  if (draw.permute_seed != 0) {
    mapping.observations = permute_observations(*mapping.observations, draw.permute_seed);
  }
  if (!draw.plan) return Request{std::move(mapping)};
  CovertPlanRequest plan;
  plan.instance = std::move(mapping);
  plan.kind = draw.surround ? PlanKind::kSurround : PlanKind::kDisjointPairs;
  plan.count = draw.count;
  return Request{std::move(plan)};
}

int Loadgen::pool_index_of(std::uint64_t index) const { return draw_for(index).pool; }

std::string Loadgen::request_line(std::uint64_t index) const {
  const Draw draw = draw_for(index);
  if (draw.pool < 0) {
    return std::string("survey model=") + model_token(draw.survey_model) +
           " instances=3 seed=" + std::to_string(util::mix64(options_.seed ^ index));
  }
  const Pooled& pooled = pool_[static_cast<std::size_t>(draw.pool)];
  std::string line = draw.plan ? "plan" : "mapping";
  line += std::string(" model=") + model_token(pooled.model) +
          " seed=" + std::to_string(pooled.instance_seed);
  if (draw.plan) {
    line += std::string(" kind=") + (draw.surround ? "surround" : "pairs") +
            " count=" + std::to_string(draw.count);
  }
  if (draw.permute_seed != 0) line += " permute=" + std::to_string(draw.permute_seed);
  return line;
}

}  // namespace corelocate::serve
