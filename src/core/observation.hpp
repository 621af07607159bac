#pragma once
// Traffic-pattern observations (paper Sec. II-B).
//
// One PathObservation is the result of one source->sink probe: the set of
// CHAs whose ring-ingress counters rose above threshold, with the channel
// label each one reported. Observations are *partial*: only tiles with a
// live CHA report, labels are ingress-only, and horizontal labels do not
// reveal the travel direction.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/routing.hpp"
#include "sim/instance_factory.hpp"

namespace corelocate::core {

/// One above-threshold ingress reading at a CHA.
struct ChannelActivation {
  int cha = -1;
  mesh::ChannelLabel label{mesh::ChannelLabel::kUp};
  std::uint64_t cycles = 0;

  friend bool operator==(const ChannelActivation&, const ChannelActivation&) = default;
};

/// Everything one probe between two cores reveals.
struct PathObservation {
  int source_cha = -1;
  int sink_cha = -1;
  std::vector<ChannelActivation> activations;

  bool has_vertical() const noexcept;
  bool has_horizontal() const noexcept;

  /// The vertical label of the path (all vertical activations of one
  /// dimension-order path share it). Requires has_vertical().
  mesh::ChannelLabel vertical_label() const;

  /// CHAs with vertical / horizontal ingress (sink included when it
  /// reported one).
  std::vector<int> vertical_chas() const;
  std::vector<int> horizontal_chas() const;

  std::string to_string() const;
};

using ObservationSet = std::vector<PathObservation>;

/// Sanity-checks an observation set against basic physical invariants
/// (labels consistent per path, endpoints sane). Returns a diagnostic
/// string, empty when OK.
std::string validate_observations(const ObservationSet& observations, int cha_count);

/// Canonical, permutation-invariant signature of an observation set:
/// each observation hashes its fields in order (activations sorted,
/// because PMON readout order is a measurement artifact) and the
/// per-observation digests fold order-invariantly. This is the
/// ilp::SolutionCache key and the signature half of serve's instance
/// fingerprint.
std::uint64_t observation_signature(const ObservationSet& observations);

namespace detail {

/// Tile -> CHAs index of a placement: a dense per-tile table (CSR over
/// row-major tile ids), CHAs ascending within a tile. CHAs placed off the
/// grid are left out.
class PlacedTiles {
 public:
  PlacedTiles(const std::vector<mesh::Coord>& positions, int grid_rows, int grid_cols);

  bool in_bounds(const mesh::Coord& c) const noexcept {
    return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
  }
  /// The CHAs placed on in-bounds tile `c`.
  std::span<const int> at(const mesh::Coord& c) const noexcept {
    const auto tile = static_cast<std::size_t>(c.row * cols_ + c.col);
    return {chas_.data() + offsets_[tile], chas_.data() + offsets_[tile + 1]};
  }

 private:
  int rows_;
  int cols_;
  std::vector<int> offsets_;  ///< rows_ * cols_ + 1
  std::vector<int> chas_;
};

}  // namespace detail

/// The one consistency walk: calls visit(observation, cha, label) for
/// every ingress `positions` (per CHA) implies for `observations` on a
/// grid_rows x grid_cols mesh, in observation order, then hop order, then
/// ascending CHA id within a tile. Observation endpoints must be placed
/// on the grid (else std::out_of_range); other CHAs placed off it imply
/// nothing. implied_ingress, check_consistency and refinement's
/// violation scans are all callers of this walk.
template <typename Visit>
void for_each_implied_ingress(const std::vector<mesh::Coord>& positions,
                              const ObservationSet& observations, int grid_rows,
                              int grid_cols, Visit&& visit) {
  const detail::PlacedTiles placed(positions, grid_rows, grid_cols);
  for (std::size_t p = 0; p < observations.size(); ++p) {
    const PathObservation& obs = observations[p];
    const mesh::Coord source = positions[static_cast<std::size_t>(obs.source_cha)];
    const mesh::Coord sink = positions[static_cast<std::size_t>(obs.sink_cha)];
    if (!placed.in_bounds(source) || !placed.in_bounds(sink)) {
      throw std::out_of_range("implied_ingress: endpoint placed off the grid");
    }
    mesh::for_each_yx_hop(source, sink, [&](const mesh::Hop& hop) {
      const mesh::ChannelLabel label = mesh::ingress_label(hop.direction, hop.receiver);
      for (const int cha : placed.at(hop.receiver)) visit(p, cha, label);
    });
  }
}

/// One ingress a candidate placement implies: re-routed on the placed
/// grid, observation `observation`'s path enters the tile of CHA `cha` on
/// channel `label`.
struct ImpliedIngress {
  std::size_t observation = 0;
  int cha = -1;
  mesh::ChannelLabel label{mesh::ChannelLabel::kUp};
};

/// for_each_implied_ingress's ingresses as a list, in walk order.
std::vector<ImpliedIngress> implied_ingress(const std::vector<mesh::Coord>& positions,
                                            const ObservationSet& observations,
                                            int grid_rows, int grid_cols);

/// How well a candidate placement explains an observation set, judged by
/// re-routing every observed pair on the placed grid.
struct ConsistencyReport {
  /// Observed activations the placement fails to reproduce (missing tile
  /// crossing or wrong label). A correct solver output has none.
  int positive_violations = 0;
  /// Activations the placement *implies* at placed CHAs that were never
  /// observed. Non-zero means the placement is refutable: partial
  /// observability let the solver compress the map (paper Sec. II-D's
  /// failure mode). The bounding-box formulation does not use this
  /// negative information.
  int negative_violations = 0;

  bool fully_consistent() const noexcept {
    return positive_violations == 0 && negative_violations == 0;
  }
};

/// Evaluates `positions` (per CHA) against `observations` on a
/// grid_rows x grid_cols mesh. Tries the placement and its horizontal
/// mirror (the observations cannot distinguish them) and returns the
/// better report.
ConsistencyReport check_consistency(const std::vector<mesh::Coord>& positions,
                                    const ObservationSet& observations, int grid_rows,
                                    int grid_cols);

/// Generates the *ideal* observation set for a ground-truth instance:
/// routes every ordered core pair and records the ingress every live-CHA
/// tile would report (fused-off and IMC tiles stay invisible). The real
/// pipeline measures the same thing through the uncore PMON; this is the
/// oracle used by solver tests and development.
ObservationSet synthesize_observations(const sim::InstanceConfig& config,
                                       std::uint64_t cycles_per_activation = 128);

}  // namespace corelocate::core
