#include "mesh/traffic.hpp"

#include <gtest/gtest.h>

#include "sim/xeon_config.hpp"

namespace corelocate::mesh {
namespace {

TEST(Traffic, StartsAtZero) {
  TileGrid grid(3, 3);
  TrafficRecorder recorder(grid);
  EXPECT_EQ(recorder.grand_total(), 0u);
  EXPECT_EQ(recorder.cycles({1, 1}, ChannelLabel::kUp), 0u);
}

TEST(Traffic, InjectChargesEveryReceiver) {
  TileGrid grid(4, 4);
  TrafficRecorder recorder(grid);
  const Route route = route_yx(grid, {3, 0}, {0, 0});
  recorder.inject(route, 2);
  EXPECT_EQ(recorder.cycles({2, 0}, ChannelLabel::kUp), 2u);
  EXPECT_EQ(recorder.cycles({1, 0}, ChannelLabel::kUp), 2u);
  EXPECT_EQ(recorder.cycles({0, 0}, ChannelLabel::kUp), 2u);
  EXPECT_EQ(recorder.grand_total(), 6u);
  // The source receives nothing.
  EXPECT_EQ(recorder.total_cycles({3, 0}), 0u);
}

TEST(Traffic, AccumulatesAcrossInjections) {
  TileGrid grid(3, 3);
  TrafficRecorder recorder(grid);
  const Route route = route_yx(grid, {0, 0}, {0, 2});
  recorder.inject(route, 1);
  recorder.inject(route, 3);
  EXPECT_EQ(recorder.total_cycles({0, 1}), 4u);
}

TEST(Traffic, ChannelLabelsRespectParityFlip) {
  TileGrid grid(1, 4);
  TrafficRecorder recorder(grid);
  recorder.inject(route_yx(grid, {0, 0}, {0, 3}), 1);
  // Eastbound: receiver col 1 (odd) -> Left, col 2 (even) -> Right, col 3
  // (odd) -> Left.
  EXPECT_EQ(recorder.cycles({0, 1}, ChannelLabel::kLeft), 1u);
  EXPECT_EQ(recorder.cycles({0, 2}, ChannelLabel::kRight), 1u);
  EXPECT_EQ(recorder.cycles({0, 3}, ChannelLabel::kLeft), 1u);
  EXPECT_EQ(recorder.cycles({0, 1}, ChannelLabel::kRight), 0u);
}

TEST(Traffic, InjectEventSingle) {
  TileGrid grid(2, 2);
  TrafficRecorder recorder(grid);
  recorder.inject_event(IngressEvent{{1, 1}, ChannelLabel::kDown}, 5);
  EXPECT_EQ(recorder.cycles({1, 1}, ChannelLabel::kDown), 5u);
  EXPECT_EQ(recorder.grand_total(), 5u);
}

TEST(Traffic, ResetClears) {
  TileGrid grid(2, 2);
  TrafficRecorder recorder(grid);
  recorder.inject(route_yx(grid, {0, 0}, {1, 1}), 7);
  EXPECT_GT(recorder.grand_total(), 0u);
  recorder.reset();
  EXPECT_EQ(recorder.grand_total(), 0u);
}

TEST(Traffic, OutOfBoundsThrows) {
  TileGrid grid(2, 2);
  TrafficRecorder recorder(grid);
  EXPECT_THROW(recorder.cycles({2, 0}, ChannelLabel::kUp), std::out_of_range);
}

TEST(Traffic, TotalCyclesSumsAllChannels) {
  TileGrid grid(3, 3);
  TrafficRecorder recorder(grid);
  recorder.inject_event(IngressEvent{{1, 1}, ChannelLabel::kUp}, 1);
  recorder.inject_event(IngressEvent{{1, 1}, ChannelLabel::kDown}, 2);
  recorder.inject_event(IngressEvent{{1, 1}, ChannelLabel::kLeft}, 3);
  recorder.inject_event(IngressEvent{{1, 1}, ChannelLabel::kRight}, 4);
  EXPECT_EQ(recorder.total_cycles({1, 1}), 10u);
}

bool same_counters(const TrafficRecorder& a, const TrafficRecorder& b) {
  for (int row = 0; row < a.rows(); ++row) {
    for (int col = 0; col < a.cols(); ++col) {
      for (int label = 0; label < kChannelCount; ++label) {
        const auto l = static_cast<ChannelLabel>(label);
        if (a.cycles({row, col}, l) != b.cycles({row, col}, l)) return false;
      }
    }
  }
  return true;
}

TEST(Traffic, InjectYxMatchesRoutedInjectOnEverySkuGrid) {
  for (const sim::XeonModel model : sim::all_models()) {
    const sim::DieConfig& die = sim::spec_for(model).die;
    const TileGrid grid(die.rows, die.cols);
    TrafficRecorder routed(grid);
    TrafficRecorder direct(grid);
    std::uint64_t cycles = 0;
    for (int a = 0; a < grid.rows() * grid.cols(); ++a) {
      for (int b = 0; b < grid.rows() * grid.cols(); ++b) {
        const Coord source{a / grid.cols(), a % grid.cols()};
        const Coord sink{b / grid.cols(), b % grid.cols()};
        cycles = cycles % 7 + 1;  // vary the charge so a misplaced hop shows
        routed.inject(route_yx(grid, source, sink), cycles);
        direct.inject_yx(source, sink, cycles);
        ASSERT_TRUE(same_counters(routed, direct))
            << die.name << ": " << to_string(source) << " -> " << to_string(sink);
      }
    }
  }
}

TEST(Traffic, InjectYxRejectsOutOfBoundsEndpoints) {
  TileGrid grid(3, 4);
  TrafficRecorder recorder(grid);
  EXPECT_THROW(recorder.inject_yx({-1, 0}, {0, 0}, 1), std::out_of_range);
  EXPECT_THROW(recorder.inject_yx({0, 0}, {3, 0}, 1), std::out_of_range);
  EXPECT_THROW(recorder.inject_yx({0, 4}, {0, 0}, 1), std::out_of_range);
  EXPECT_THROW(recorder.inject_yx({0, 0}, {0, -1}, 1), std::out_of_range);
  EXPECT_THROW(recorder.inject_yx({5, 5}, {5, 5}, 1), std::out_of_range);
  EXPECT_EQ(recorder.grand_total(), 0u);
}

}  // namespace
}  // namespace corelocate::mesh
