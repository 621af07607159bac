#include "fleet/shard.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fleet/record_stream.hpp"
#include "recordio/reader.hpp"
#include "recordio/writer.hpp"
#include "util/rng.hpp"

namespace corelocate::fleet {
namespace {

namespace fs = std::filesystem;

class FleetShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fleet_shard_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

SurveyOptions base_options(int instances) {
  SurveyOptions options;
  options.instances = instances;
  options.base_seed = 0xC0FFEEULL;
  return options;
}

std::string read_bytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << file;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ShardRangeTest, TilesTheInstanceSpaceExactly) {
  for (const int instances : {0, 1, 7, 12, 100}) {
    for (const int shards : {1, 2, 3, 5, 8}) {
      int covered = 0;
      int expected_first = 0;
      for (int k = 0; k < shards; ++k) {
        const ShardRange range = shard_range(instances, k, shards);
        EXPECT_EQ(range.first, expected_first)
            << instances << " instances, shard " << k << "/" << shards;
        EXPECT_GE(range.count, 0);
        covered += range.count;
        expected_first = range.first + range.count;
      }
      EXPECT_EQ(covered, instances) << instances << " instances, " << shards
                                    << " shards";
    }
  }
  // Tile sizes differ by at most one.
  for (int k = 0; k < 3; ++k) {
    const ShardRange range = shard_range(10, k, 3);
    EXPECT_TRUE(range.count == 3 || range.count == 4);
  }
}

TEST(ShardRangeTest, RejectsBadArguments) {
  EXPECT_THROW(shard_range(10, -1, 3), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_range(-1, 0, 1), std::invalid_argument);
}

TEST_F(FleetShardTest, ShardsPlusMergeMatchSerialByteForByte) {
  constexpr int kInstances = 10;
  constexpr int kShards = 3;
  const sim::XeonModel model = sim::XeonModel::k8259CL;

  // Serial reference: one process, jobs 1, segment in index order.
  const std::string serial_rio = path("serial.rio");
  SurveyResult serial;
  {
    recordio::RecordWriter writer(serial_rio, survey_record_schema());
    SurveyOptions options = base_options(kInstances);
    options.jobs = 1;
    options.record_sink = [&writer](const InstanceRecord& record) {
      writer.append_row(encode_survey_record(record));
    };
    serial = run_survey(model, options);
    writer.close();
  }

  for (const int jobs : {1, 8}) {
    const std::string shard_dir = path("shards-jobs" + std::to_string(jobs));
    fs::create_directories(shard_dir);
    for (int k = 0; k < kShards; ++k) {
      ShardOptions shard_options;
      shard_options.survey = base_options(kInstances);
      shard_options.survey.jobs = jobs;
      shard_options.survey.keep_records = false;
      shard_options.shard_dir = shard_dir;
      shard_options.shard_index = k;
      shard_options.shard_of = kShards;
      const ShardResult shard = run_shard(model, shard_options);
      EXPECT_EQ(shard.range.first, shard_range(kInstances, k, kShards).first);
      EXPECT_TRUE(fs::exists(shard.paths.segment));
      EXPECT_TRUE(fs::exists(shard.paths.manifest));
    }

    const std::string merged_rio = path("merged-jobs" + std::to_string(jobs) + ".rio");
    SurveyResult merged;
    {
      recordio::RecordWriter writer(merged_rio, survey_record_schema());
      MergeOptions merge_options;
      merge_options.survey = base_options(kInstances);
      merge_options.survey.keep_records = false;
      merge_options.survey.record_sink = [&writer](const InstanceRecord& record) {
        writer.append_row(encode_survey_record(record));
      };
      merge_options.shard_dir = shard_dir;
      merge_options.shard_of = kShards;
      merged = merge_shards(model, merge_options);
      writer.close();
    }

    // The tentpole claim: shard fan-out at any --jobs, then merge,
    // equals the serial run byte for byte.
    EXPECT_EQ(read_bytes(serial_rio), read_bytes(merged_rio)) << "jobs " << jobs;

    // And the merged aggregates equal the serial aggregates exactly.
    EXPECT_EQ(merged.completed, serial.completed);
    EXPECT_EQ(merged.failed, serial.failed);
    EXPECT_EQ(merged.patterns.unique_patterns(), serial.patterns.unique_patterns());
    EXPECT_EQ(merged.id_mappings.unique_mappings(),
              serial.id_mappings.unique_mappings());
    ASSERT_EQ(merged.metric_totals.size(), serial.metric_totals.size());
    for (const auto& [key, value] : serial.metric_totals) {
      ASSERT_TRUE(merged.metric_totals.count(key)) << key;
      EXPECT_EQ(merged.metric_totals.at(key), value) << key;  // bit-exact
    }
  }
}

TEST_F(FleetShardTest, MergeRetainsRecordsWhenAsked) {
  constexpr int kInstances = 6;
  const sim::XeonModel model = sim::XeonModel::k8124M;
  const std::string shard_dir = path("shards");
  fs::create_directories(shard_dir);
  for (int k = 0; k < 2; ++k) {
    ShardOptions shard_options;
    shard_options.survey = base_options(kInstances);
    shard_options.shard_dir = shard_dir;
    shard_options.shard_index = k;
    shard_options.shard_of = 2;
    run_shard(model, shard_options);
  }
  MergeOptions merge_options;
  merge_options.survey = base_options(kInstances);
  merge_options.survey.keep_records = true;
  merge_options.shard_dir = shard_dir;
  merge_options.shard_of = 2;
  const SurveyResult merged = merge_shards(model, merge_options);
  ASSERT_EQ(merged.records.size(), 6u);
  for (int i = 0; i < kInstances; ++i) {
    EXPECT_EQ(merged.records[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(merged.records[static_cast<std::size_t>(i)].seed,
              0xC0FFEEULL + static_cast<std::uint64_t>(i));
  }
}

TEST_F(FleetShardTest, MergeRefusesAMissingShard) {
  const std::string shard_dir = path("missing");
  fs::create_directories(shard_dir);
  ShardOptions shard_options;
  shard_options.survey = base_options(6);
  shard_options.shard_dir = shard_dir;
  shard_options.shard_index = 0;
  shard_options.shard_of = 2;
  run_shard(sim::XeonModel::k8124M, shard_options);
  // Shard 1 of 2 never ran.
  MergeOptions merge_options;
  merge_options.survey = base_options(6);
  merge_options.shard_dir = shard_dir;
  merge_options.shard_of = 2;
  EXPECT_THROW(merge_shards(sim::XeonModel::k8124M, merge_options),
               std::runtime_error);
}

TEST_F(FleetShardTest, MergeRefusesAForeignSurvey) {
  const std::string shard_dir = path("foreign");
  fs::create_directories(shard_dir);
  ShardOptions shard_options;
  shard_options.survey = base_options(4);
  shard_options.shard_dir = shard_dir;
  shard_options.shard_index = 0;
  shard_options.shard_of = 1;
  run_shard(sim::XeonModel::k8124M, shard_options);

  MergeOptions merge_options;
  merge_options.survey = base_options(4);
  merge_options.survey.base_seed = 0xBADULL;  // different survey identity
  merge_options.shard_dir = shard_dir;
  merge_options.shard_of = 1;
  EXPECT_THROW(merge_shards(sim::XeonModel::k8124M, merge_options),
               std::runtime_error);
}

TEST_F(FleetShardTest, MergeRefusesACorruptedSegment) {
  const std::string shard_dir = path("corrupt");
  fs::create_directories(shard_dir);
  ShardOptions shard_options;
  shard_options.survey = base_options(4);
  shard_options.shard_dir = shard_dir;
  shard_options.shard_index = 0;
  shard_options.shard_of = 1;
  const ShardResult shard = run_shard(sim::XeonModel::k8124M, shard_options);

  std::string bytes = read_bytes(shard.paths.segment);
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(shard.paths.segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  MergeOptions merge_options;
  merge_options.survey = base_options(4);
  merge_options.shard_dir = shard_dir;
  merge_options.shard_of = 1;
  EXPECT_THROW(merge_shards(sim::XeonModel::k8124M, merge_options),
               std::runtime_error);
}

TEST_F(FleetShardTest, KilledShardResumesToTheSameBytes) {
  constexpr int kInstances = 9;
  const sim::XeonModel model = sim::XeonModel::k8124M;
  const auto options_for = [&](const std::string& shard_dir, bool resume) {
    ShardOptions shard_options;
    shard_options.survey = base_options(kInstances);
    shard_options.survey.resume = resume;
    shard_options.shard_dir = shard_dir;
    shard_options.shard_index = 1;
    shard_options.shard_of = 2;
    return shard_options;
  };
  const ShardResult whole = run_shard(model, options_for(path("whole"), false));

  // A shard killed after two of its records: those two blocks on disk and
  // a manifest that never got its commit lines.
  const ShardResult killed = run_shard(model, options_for(path("killed"), false));
  std::uint64_t two_rows = 0;
  {
    recordio::RecordReader reader(killed.paths.segment);
    recordio::Row row;
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(reader.next(&row));
    two_rows = reader.valid_prefix_bytes();
  }
  fs::resize_file(killed.paths.segment, two_rows);
  write_manifest(killed.paths.manifest,
                 SegmentManifest{sim::to_string(model), 0xC0FFEEULL,
                                 sim::InstanceFactory::kDefaultFleetSeed});

  MergeOptions merge_options;
  merge_options.survey = base_options(kInstances);
  merge_options.shard_dir = path("killed");
  merge_options.shard_of = 2;
  EXPECT_THROW(merge_shards(model, merge_options), std::runtime_error);

  const ShardResult resumed = run_shard(model, options_for(path("killed"), true));
  EXPECT_EQ(resumed.survey.resumed, 2);
  EXPECT_EQ(read_bytes(resumed.paths.segment), read_bytes(whole.paths.segment));
  EXPECT_EQ(read_bytes(resumed.paths.manifest), read_bytes(whole.paths.manifest));
}

TEST_F(FleetShardTest, CheckpointMergesAsShardZeroOfOne) {
  constexpr int kInstances = 5;
  const sim::XeonModel model = sim::XeonModel::k8124M;
  const std::string serial_rio = path("serial.rio");
  {
    recordio::RecordWriter writer(serial_rio, survey_record_schema());
    SurveyOptions options = base_options(kInstances);
    options.checkpoint_dir = shard_stem(path("ck"), 0, 1);
    options.record_sink = [&writer](const InstanceRecord& record) {
      writer.append_row(encode_survey_record(record));
    };
    run_survey(model, options);
  }
  const std::string merged_rio = path("merged.rio");
  {
    recordio::RecordWriter writer(merged_rio, survey_record_schema());
    MergeOptions merge_options;
    merge_options.survey = base_options(kInstances);
    merge_options.survey.record_sink = [&writer](const InstanceRecord& record) {
      writer.append_row(encode_survey_record(record));
    };
    merge_options.shard_dir = path("ck");
    merge_options.shard_of = 1;
    const SurveyResult merged = merge_shards(model, merge_options);
    EXPECT_EQ(merged.completed + merged.failed, kInstances);
  }
  EXPECT_EQ(read_bytes(serial_rio), read_bytes(merged_rio));
}

TEST_F(FleetShardTest, ManifestLoaderRefusesMutatedCards) {
  // Seeded mutation fuzz: a flipped, dropped or inserted byte either
  // makes read_manifest throw std::runtime_error or leaves a card that is
  // still exactly what write_manifest writes for the fields it returned.
  SegmentManifest card{"Xeon Platinum 8259CL", 0xF1EE7ULL, 0xDA7E2022ULL};
  card.committed = true;
  card.count = 60;
  card.completed = 59;
  card.failed = 1;
  const std::string file = path("fuzz.manifest");
  write_manifest(file, card);
  const std::string valid = read_bytes(file);
  util::Rng rng(0xF022ULL);
  int refused = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = valid;
    const std::size_t at = rng.below(bytes.size());
    switch (rng.below(3)) {
      case 0: bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8))); break;
      case 1: bytes.erase(at, 1); break;
      default: bytes.insert(at, 1, static_cast<char>(rng.below(256))); break;
    }
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    try {
      const SegmentManifest read = read_manifest(file, card);
      write_manifest(file, read);
      EXPECT_EQ(read_bytes(file), bytes) << "trial " << trial;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  // An edit inside the model name or one digit for another still makes a
  // well-formed card; most other edits must be refused.
  EXPECT_GT(refused, 250);
}

TEST_F(FleetShardTest, ShardRejectsACheckpointDir) {
  ShardOptions shard_options;
  shard_options.survey = base_options(4);
  shard_options.survey.checkpoint_dir = path("ck");  // the segment already is one
  shard_options.shard_dir = path("shards");
  EXPECT_THROW(run_shard(sim::XeonModel::k8124M, shard_options), std::invalid_argument);
}

TEST_F(FleetShardTest, ShardRejectsNonzeroFirstInstance) {
  ShardOptions shard_options;
  shard_options.survey = base_options(4);
  shard_options.survey.first_instance = 2;  // sharding owns the partition
  shard_options.shard_dir = path("bad");
  EXPECT_THROW(run_shard(sim::XeonModel::k8124M, shard_options),
               std::invalid_argument);
}

}  // namespace
}  // namespace corelocate::fleet
