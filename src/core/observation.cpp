#include "core/observation.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ilp/signature.hpp"

namespace corelocate::core {

bool PathObservation::has_vertical() const noexcept {
  for (const ChannelActivation& act : activations) {
    if (mesh::is_vertical(act.label)) return true;
  }
  return false;
}

bool PathObservation::has_horizontal() const noexcept {
  for (const ChannelActivation& act : activations) {
    if (mesh::is_horizontal(act.label)) return true;
  }
  return false;
}

mesh::ChannelLabel PathObservation::vertical_label() const {
  for (const ChannelActivation& act : activations) {
    if (mesh::is_vertical(act.label)) return act.label;
  }
  throw std::logic_error("PathObservation: no vertical activation");
}

std::vector<int> PathObservation::vertical_chas() const {
  std::vector<int> chas;
  for (const ChannelActivation& act : activations) {
    if (mesh::is_vertical(act.label)) chas.push_back(act.cha);
  }
  return chas;
}

std::vector<int> PathObservation::horizontal_chas() const {
  std::vector<int> chas;
  for (const ChannelActivation& act : activations) {
    if (mesh::is_horizontal(act.label)) chas.push_back(act.cha);
  }
  return chas;
}

std::string PathObservation::to_string() const {
  std::ostringstream oss;
  oss << "path " << source_cha << "->" << sink_cha << ":";
  for (const ChannelActivation& act : activations) {
    oss << " cha" << act.cha << "/" << mesh::to_string(act.label) << "(" << act.cycles
        << ")";
  }
  return oss.str();
}

std::string validate_observations(const ObservationSet& observations, int cha_count) {
  for (const PathObservation& obs : observations) {
    if (obs.source_cha < 0 || obs.source_cha >= cha_count || obs.sink_cha < 0 ||
        obs.sink_cha >= cha_count) {
      return "observation with endpoint outside CHA range: " + obs.to_string();
    }
    if (obs.source_cha == obs.sink_cha) {
      return "observation with identical endpoints: " + obs.to_string();
    }
    bool saw_up = false;
    bool saw_down = false;
    for (const ChannelActivation& act : obs.activations) {
      if (act.cha < 0 || act.cha >= cha_count) {
        return "activation at unknown CHA: " + obs.to_string();
      }
      if (act.cha == obs.source_cha) {
        return "source tile reported ingress on its own probe: " + obs.to_string();
      }
      saw_up = saw_up || act.label == mesh::ChannelLabel::kUp;
      saw_down = saw_down || act.label == mesh::ChannelLabel::kDown;
    }
    if (saw_up && saw_down) {
      // One dimension-order path travels vertically in a single direction.
      return "observation mixes UP and DN ingress: " + obs.to_string();
    }
  }
  return {};
}

namespace detail {

PlacedTiles::PlacedTiles(const std::vector<mesh::Coord>& positions, int grid_rows,
                         int grid_cols)
    : rows_(grid_rows), cols_(grid_cols) {
  if (grid_rows <= 0 || grid_cols <= 0) {
    throw std::invalid_argument("implied_ingress: non-positive grid dimensions");
  }
  offsets_.assign(
      static_cast<std::size_t>(grid_rows) * static_cast<std::size_t>(grid_cols) + 1, 0);
  // Counting sort by tile: CHAs arrive ascending, so each tile's run is
  // ascending too.
  for (const mesh::Coord& c : positions) {
    if (in_bounds(c)) ++offsets_[static_cast<std::size_t>(c.row * cols_ + c.col) + 1];
  }
  for (std::size_t t = 1; t < offsets_.size(); ++t) offsets_[t] += offsets_[t - 1];
  chas_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t cha = 0; cha < positions.size(); ++cha) {
    const mesh::Coord& c = positions[cha];
    if (!in_bounds(c)) continue;
    int& slot = cursor[static_cast<std::size_t>(c.row * cols_ + c.col)];
    chas_[static_cast<std::size_t>(slot++)] = static_cast<int>(cha);
  }
}

}  // namespace detail

std::vector<ImpliedIngress> implied_ingress(const std::vector<mesh::Coord>& positions,
                                            const ObservationSet& observations,
                                            int grid_rows, int grid_cols) {
  std::vector<ImpliedIngress> implied;
  std::size_t activations = 0;
  for (const PathObservation& obs : observations) activations += obs.activations.size();
  implied.reserve(activations);  // exact for a placement that explains them
  for_each_implied_ingress(positions, observations, grid_rows, grid_cols,
                           [&implied](std::size_t p, int cha, mesh::ChannelLabel label) {
                             implied.push_back(ImpliedIngress{p, cha, label});
                           });
  return implied;
}

namespace {

ConsistencyReport check_one_orientation(const std::vector<mesh::Coord>& positions,
                                        const ObservationSet& observations,
                                        int grid_rows, int grid_cols) {
  const std::vector<ImpliedIngress> implied =
      implied_ingress(positions, observations, grid_rows, grid_cols);
  ConsistencyReport report;
  auto begin = implied.begin();
  for (std::size_t p = 0; p < observations.size(); ++p) {
    const auto end = std::find_if(begin, implied.end(), [p](const ImpliedIngress& i) {
      return i.observation != p;
    });
    const std::vector<ChannelActivation>& activations = observations[p].activations;
    for (const ChannelActivation& act : activations) {
      if (std::none_of(begin, end, [&act](const ImpliedIngress& i) {
            return i.cha == act.cha && i.label == act.label;
          })) {
        ++report.positive_violations;
      }
    }
    for (auto it = begin; it != end; ++it) {
      if (std::none_of(activations.begin(), activations.end(),
                       [it](const ChannelActivation& act) {
                         return act.cha == it->cha && act.label == it->label;
                       })) {
        ++report.negative_violations;
      }
    }
    begin = end;
  }
  return report;
}

}  // namespace

ConsistencyReport check_consistency(const std::vector<mesh::Coord>& positions,
                                    const ObservationSet& observations, int grid_rows,
                                    int grid_cols) {
  const ConsistencyReport straight =
      check_one_orientation(positions, observations, grid_rows, grid_cols);
  std::vector<mesh::Coord> mirrored = positions;
  for (mesh::Coord& pos : mirrored) pos.col = grid_cols - 1 - pos.col;
  const ConsistencyReport flipped =
      check_one_orientation(mirrored, observations, grid_rows, grid_cols);
  const auto score = [](const ConsistencyReport& r) {
    return r.positive_violations * 1000 + r.negative_violations;
  };
  return score(straight) <= score(flipped) ? straight : flipped;
}

namespace {

/// One digest per observation, folded order-invariantly into the
/// signature. The salts and field order are load-bearing: serve's
/// fingerprint layer historically produced these exact values, and
/// stored cache keys must keep matching.
std::vector<std::uint64_t> observation_digests(const ObservationSet& observations) {
  std::vector<std::uint64_t> digests;
  digests.reserve(observations.size());
  for (const PathObservation& observation : observations) {
    ilp::SignatureBuilder builder(0x0B5E12D1ULL);
    builder.add_int(observation.source_cha).add_int(observation.sink_cha);
    // Activation order is a readout artifact: sort a copy of the
    // (cha, label, cycles) triples before hashing.
    std::vector<std::uint64_t> activation_digests;
    activation_digests.reserve(observation.activations.size());
    for (const ChannelActivation& activation : observation.activations) {
      ilp::SignatureBuilder act(0xAC7117A7ULL);
      act.add_int(activation.cha)
          .add(static_cast<std::uint64_t>(activation.label))
          .add(activation.cycles);
      activation_digests.push_back(act.digest());
    }
    builder.add(ilp::combine_unordered(std::move(activation_digests)));
    digests.push_back(builder.digest());
  }
  return digests;
}

}  // namespace

std::uint64_t observation_signature(const ObservationSet& observations) {
  return ilp::combine_unordered(observation_digests(observations));
}

ObservationSet synthesize_observations(const sim::InstanceConfig& config,
                                       std::uint64_t cycles_per_activation) {
  ObservationSet observations;
  const int cores = config.os_core_count();
  observations.reserve(static_cast<std::size_t>(cores) * (cores - 1));
  for (int src = 0; src < cores; ++src) {
    for (int dst = 0; dst < cores; ++dst) {
      if (src == dst) continue;
      PathObservation obs;
      obs.source_cha = config.os_core_to_cha[static_cast<std::size_t>(src)];
      obs.sink_cha = config.os_core_to_cha[static_cast<std::size_t>(dst)];
      const mesh::Route route = mesh::route_yx(
          config.grid, config.tile_of_os_core(src), config.tile_of_os_core(dst));
      for (const mesh::IngressEvent& event : mesh::ingress_events(route)) {
        if (!mesh::has_cha(config.grid.kind_at(event.tile))) continue;  // invisible
        const auto cha = config.cha_at(event.tile);
        if (!cha.has_value()) continue;
        obs.activations.push_back(
            ChannelActivation{*cha, event.label, cycles_per_activation});
      }
      observations.push_back(std::move(obs));
    }
  }
  return observations;
}

}  // namespace corelocate::core
