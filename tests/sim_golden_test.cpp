// Golden simulator trace: pins everything the simulator feeds the
// locating pipeline, byte for byte, on one fixed instance per SKU.
//
// For each case the test runs locate_cores() and FNV-1a-hashes the
// step-1 eviction sets, the OS-core -> CHA mapping, the measured
// observation set, the per-CHA LLC lookup tallies and every
// TrafficRecorder counter. The constants were recorded with the
// original eager cache layout (fully allocated sets, two-pass insert,
// bit-loop slice hash, heap-allocated routes, hash-map directory), so
// any change to the simulator's data layout or hot paths must reproduce
// exactly the same simulated events.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/pipeline.hpp"

namespace corelocate::core {
namespace {

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (value >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

struct TraceDigests {
  std::uint64_t eviction_sets = 0;
  std::uint64_t cha_mapping = 0;
  std::uint64_t observations = 0;
  std::uint64_t llc_lookups = 0;
  std::uint64_t traffic = 0;
};

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

TraceDigests run_trace(sim::XeonModel model, std::uint64_t seed,
                       sim::NoiseProfile noise = {}) {
  sim::InstanceFactory factory;
  util::Rng rng(seed);
  const sim::InstanceConfig config = factory.make_instance(model, rng);
  sim::VirtualXeon cpu(config, noise);
  util::Rng tool_rng(seed ^ 0xABCDEF);
  const LocateResult result =
      locate_cores(cpu, tool_rng, options_for(sim::spec_for(model)));
  EXPECT_TRUE(result.success) << result.message;

  TraceDigests d;
  Fnv sets;
  for (const auto& set : result.cha_mapping.eviction_sets) {
    sets.add(set.size());
    for (const cache::LineAddr line : set) sets.add(line);
  }
  d.eviction_sets = sets.value();

  Fnv mapping;
  for (const int cha : result.cha_mapping.os_core_to_cha) {
    mapping.add(static_cast<std::uint64_t>(cha));
  }
  mapping.add(~0ULL);
  for (const int cha : result.cha_mapping.llc_only_chas) {
    mapping.add(static_cast<std::uint64_t>(cha));
  }
  d.cha_mapping = mapping.value();

  Fnv obs;
  for (const PathObservation& o : result.observations) {
    obs.add(static_cast<std::uint64_t>(o.source_cha));
    obs.add(static_cast<std::uint64_t>(o.sink_cha));
    obs.add(o.activations.size());
    for (const ChannelActivation& a : o.activations) {
      obs.add(static_cast<std::uint64_t>(a.cha));
      obs.add(static_cast<std::uint64_t>(a.label));
      obs.add(a.cycles);
    }
  }
  d.observations = obs.value();

  Fnv lookups;
  for (int cha = 0; cha < cpu.cha_count(); ++cha) {
    lookups.add(cpu.event_total(cha, msr::ChaEvent::kLlcLookup, msr::kUmaskLlcLookupAny));
  }
  d.llc_lookups = lookups.value();

  Fnv traffic;
  const mesh::TrafficRecorder& recorder = cpu.traffic();
  for (int row = 0; row < recorder.rows(); ++row) {
    for (int col = 0; col < recorder.cols(); ++col) {
      for (int label = 0; label < mesh::kChannelCount; ++label) {
        traffic.add(recorder.cycles(mesh::Coord{row, col},
                                    static_cast<mesh::ChannelLabel>(label)));
      }
    }
  }
  d.traffic = traffic.value();
  return d;
}

void expect_digests(const TraceDigests& got, const TraceDigests& want) {
  EXPECT_EQ(hex(got.eviction_sets), hex(want.eviction_sets)) << "step-1 eviction sets";
  EXPECT_EQ(hex(got.cha_mapping), hex(want.cha_mapping)) << "OS core -> CHA mapping";
  EXPECT_EQ(hex(got.observations), hex(want.observations)) << "observation set";
  EXPECT_EQ(hex(got.llc_lookups), hex(want.llc_lookups)) << "per-CHA LLC lookups";
  EXPECT_EQ(hex(got.traffic), hex(want.traffic)) << "TrafficRecorder counters";
}

TEST(SimGolden, Xeon8124M) {
  expect_digests(run_trace(sim::XeonModel::k8124M, 101),
                 {0x0F6153F554997E72ULL, 0x28D0DEE5F81477BCULL,
                  0xA66C8A619F576A91ULL, 0x02D3D2D5B10BC851ULL,
                  0x9EC47CD7180D55C6ULL});
}

TEST(SimGolden, Xeon8175M) {
  expect_digests(run_trace(sim::XeonModel::k8175M, 102),
                 {0xE44EC1EA6F88BFE0ULL, 0xA0588B5ABC7061FDULL,
                  0xA1CEB03C68EB912DULL, 0xD169DDAE05D5FB4BULL,
                  0x24CA0D4A53E07C13ULL});
}

TEST(SimGolden, Xeon8259CL) {
  expect_digests(run_trace(sim::XeonModel::k8259CL, 103),
                 {0x0840DDB98B27F191ULL, 0x36C68D40F9E9354CULL,
                  0xBD68077EF825176EULL, 0xC7EC0E9B40F599A7ULL,
                  0x2A8C420F25E8F2A5ULL});
}

TEST(SimGolden, Xeon6354) {
  expect_digests(run_trace(sim::XeonModel::k6354, 104),
                 {0x3BCB078FDA597065ULL, 0x45ABB1E2E1202FACULL,
                  0x0469DC86C6C6AD3FULL, 0xE9ACAFE635FFEA9FULL,
                  0x03FA77A8096FDDBFULL});
}

TEST(SimGolden, Xeon8124MUnderNoise) {
  // Background packets and stray lookups draw from the noise RNG once per
  // memory op; this pins their draw order and the routes they take.
  sim::NoiseProfile noise;
  noise.mesh_event_rate = 0.05;
  noise.lookup_event_rate = 0.05;
  expect_digests(run_trace(sim::XeonModel::k8124M, 105, noise),
                 {0xF49A3ABF64D53711ULL, 0x28D0DEE5F81477BCULL,
                  0xF5B2E38ED8982681ULL, 0xFBFD765616F808D7ULL,
                  0x8AF32834B6218607ULL});
}

}  // namespace
}  // namespace corelocate::core
