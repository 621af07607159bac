// A checkpoint is a survey segment (fleet/record_stream.hpp): the
// `<stem>.rio` record segment plus its `<stem>.manifest`. These tests pin
// resume, byte identity with an uninterrupted run, torn-tail recovery and
// the loud refusals.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fleet/record_stream.hpp"
#include "fleet/survey.hpp"
#include "recordio/reader.hpp"
#include "recordio/writer.hpp"

namespace corelocate::fleet {
namespace {

namespace fs = std::filesystem;

class FleetCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fleet_ckpt_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Checkpoint stem `name` inside the test directory.
  std::string stem(const std::string& name = "ck") const {
    return (dir_ / name / "shard-0-of-1").string();
  }

  fs::path dir_;
};

SurveyOptions base_options(int instances) {
  SurveyOptions options;
  options.instances = instances;
  options.base_seed = 0xC0FFEEULL;
  return options;
}

SurveyOptions checkpointed(int instances, const std::string& stem, int jobs = 1,
                           bool resume = false) {
  SurveyOptions options = base_options(instances);
  options.jobs = jobs;
  options.checkpoint_dir = stem;
  options.resume = resume;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Expects `what` to throw std::runtime_error whose message holds `needle`.
template <typename Fn>
void expect_refusal(Fn what, const std::string& needle) {
  try {
    what();
    ADD_FAILURE() << "expected a refusal mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST_F(FleetCheckpointTest, RecordRoundTripsThroughManifest) {
  // Everything a record carries except its timings comes back from the
  // checkpoint on resume.
  SurveyOptions options = checkpointed(3, stem());
  options.analyze = [](const InstanceTask&, const LocatedInstance&,
                       InstanceRecord& record) { record.metrics["marker"] = 2.5; };
  const SurveyResult survey = run_survey(sim::XeonModel::k8124M, options);
  ASSERT_EQ(survey.completed, 3);

  options.resume = true;
  const SurveyResult loaded = run_survey(sim::XeonModel::k8124M, options);
  EXPECT_EQ(loaded.resumed, 3);
  ASSERT_EQ(loaded.records.size(), 3u);
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    const InstanceRecord& fresh = survey.records[i];
    const InstanceRecord& restored = loaded.records[i];
    EXPECT_TRUE(restored.from_checkpoint);
    EXPECT_EQ(restored.index, fresh.index);
    EXPECT_EQ(restored.seed, fresh.seed);
    EXPECT_EQ(restored.success, fresh.success);
    EXPECT_EQ(restored.message, fresh.message);
    EXPECT_EQ(restored.map.ppin, fresh.map.ppin);
    EXPECT_EQ(restored.map.pattern_key(), fresh.map.pattern_key());
    EXPECT_EQ(restored.map.os_core_to_cha, fresh.map.os_core_to_cha);
    EXPECT_EQ(restored.metrics, fresh.metrics);
    EXPECT_EQ(restored.wall_seconds, 0.0);  // timings are never stored
  }
}

TEST_F(FleetCheckpointTest, ResumeSkipsCompletedInstances) {
  // First run: 6 of 12 instances, checkpointed.
  const SurveyResult partial =
      run_survey(sim::XeonModel::k8259CL, checkpointed(6, stem()));
  ASSERT_EQ(partial.records.size(), 6u);

  // Second run: the full 12, resuming. The first six must come from the
  // checkpoint, not recomputation.
  const SurveyOptions second = checkpointed(12, stem(), 1, true);
  const SurveyResult resumed = run_survey(sim::XeonModel::k8259CL, second);
  EXPECT_EQ(resumed.resumed, 6);
  ASSERT_EQ(resumed.records.size(), 12u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(resumed.records[static_cast<std::size_t>(i)].from_checkpoint);
  }
  for (int i = 6; i < 12; ++i) {
    EXPECT_FALSE(resumed.records[static_cast<std::size_t>(i)].from_checkpoint);
  }

  // And the resumed survey equals an uninterrupted one.
  const SurveyResult fresh = run_survey(sim::XeonModel::k8259CL, base_options(12));
  ASSERT_EQ(fresh.records.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(resumed.records[i].map.pattern_key(), fresh.records[i].map.pattern_key());
    EXPECT_EQ(resumed.records[i].map.ppin, fresh.records[i].map.ppin);
  }
  ASSERT_EQ(resumed.patterns.entries.size(), fresh.patterns.entries.size());
  for (std::size_t i = 0; i < resumed.patterns.entries.size(); ++i) {
    EXPECT_EQ(resumed.patterns.entries[i].key, fresh.patterns.entries[i].key);
    EXPECT_EQ(resumed.patterns.entries[i].count, fresh.patterns.entries[i].count);
  }

  // The segment now holds all 12; a further resume computes nothing new.
  const SurveyResult third = run_survey(sim::XeonModel::k8259CL, second);
  EXPECT_EQ(third.resumed, 12);
}

TEST_F(FleetCheckpointTest, FreshRunClearsStaleCheckpoint) {
  const SurveyOptions options = checkpointed(4, stem());
  run_survey(sim::XeonModel::k8124M, options);

  // Same stem, resume off: the survey starts over.
  const SurveyResult again = run_survey(sim::XeonModel::k8124M, options);
  EXPECT_EQ(again.resumed, 0);
  for (const InstanceRecord& record : again.records) {
    EXPECT_FALSE(record.from_checkpoint);
  }
}

TEST_F(FleetCheckpointTest, ResumeRefusesMismatchedSurvey) {
  run_survey(sim::XeonModel::k8124M, checkpointed(2, stem()));

  SurveyOptions other_seed = checkpointed(2, stem(), 1, true);
  other_seed.base_seed = 0xBADULL;
  expect_refusal([&] { run_survey(sim::XeonModel::k8124M, other_seed); },
                 "different survey (base_seed");

  SurveyOptions other_fleet = checkpointed(2, stem(), 1, true);
  other_fleet.fleet_seed = 0xBADULL;
  expect_refusal([&] { run_survey(sim::XeonModel::k8124M, other_fleet); },
                 "different survey (fleet_seed");

  expect_refusal(
      [&] { run_survey(sim::XeonModel::k8259CL, checkpointed(2, stem(), 1, true)); },
      "different survey (model");

  // The refusals left the checkpoint usable.
  EXPECT_EQ(run_survey(sim::XeonModel::k8124M, checkpointed(2, stem(), 1, true)).resumed,
            2);
}

TEST_F(FleetCheckpointTest, ResumeRefusesRowsThatDoNotFitTheSurvey) {
  // Instances 2..5 where the survey starts at 0.
  SurveyOptions shifted = checkpointed(4, stem("shifted"));
  shifted.first_instance = 2;
  run_survey(sim::XeonModel::k8124M, shifted);
  expect_refusal(
      [&] {
        run_survey(sim::XeonModel::k8124M, checkpointed(6, stem("shifted"), 1, true));
      },
      "does not fit this survey");

  // More instances than the survey has.
  run_survey(sim::XeonModel::k8124M, checkpointed(4, stem("long")));
  expect_refusal(
      [&] { run_survey(sim::XeonModel::k8124M, checkpointed(3, stem("long"), 1, true)); },
      "holds more than the 3 instances");

  // The right index with a seed from another survey.
  run_survey(sim::XeonModel::k8124M, checkpointed(1, stem("seed")));
  {
    recordio::RecordWriter writer(stem("seed") + ".rio", survey_record_schema());
    InstanceRecord record;
    record.index = 0;
    record.seed = 0x5EEDULL;
    writer.append_row(encode_survey_record(record));
  }
  expect_refusal(
      [&] { run_survey(sim::XeonModel::k8124M, checkpointed(2, stem("seed"), 1, true)); },
      "does not fit this survey");
}

TEST_F(FleetCheckpointTest, V1ManifestGetsATargetedError) {
  // A directory from before checkpoints were survey segments.
  const std::string old_manifest = (dir_ / "ck" / "manifest.txt").string();
  write_file(old_manifest, "fleet-manifest v1\n");
  expect_refusal(
      [&] { run_survey(sim::XeonModel::k8124M, checkpointed(2, stem(), 1, true)); },
      old_manifest + " is an old checkpoint format, re-run without --resume");
  // Without --resume the survey simply starts a segment next to it.
  EXPECT_EQ(run_survey(sim::XeonModel::k8124M, checkpointed(2, stem())).completed, 2);
}

TEST_F(FleetCheckpointTest, V2ManifestGetsATargetedError) {
  // The v2 layout kept its records in maps.rio next to the text manifest.
  const std::string old_manifest = (dir_ / "ck" / "manifest.txt").string();
  write_file(old_manifest, "fleet-manifest v2\n");
  write_file((dir_ / "ck" / "maps.rio").string(), "");
  expect_refusal(
      [&] { run_survey(sim::XeonModel::k8124M, checkpointed(2, stem(), 1, true)); },
      old_manifest + " is an old checkpoint format, re-run without --resume");
}

TEST_F(FleetCheckpointTest, ResumeRefusesAMalformedManifest) {
  run_survey(sim::XeonModel::k8124M, checkpointed(2, stem()));
  const std::string manifest = read_file(stem() + ".manifest");
  for (const std::string& bad :
       {manifest + "extra\n", manifest.substr(0, manifest.size() - 4),
        std::string("fleet-shard v2\nmodel x\nbase_seed zz\nfleet_seed 1\n")}) {
    write_file(stem() + ".manifest", bad);
    EXPECT_THROW(run_survey(sim::XeonModel::k8124M, checkpointed(2, stem(), 1, true)),
                 std::runtime_error)
        << bad;
  }
}

TEST_F(FleetCheckpointTest, ManifestIsByteIdenticalAcrossFreshRuns) {
  // Two independent serial runs of the same survey must write the same
  // manifest and segment byte for byte: nothing wall-clock-dependent may
  // enter either file.
  run_survey(sim::XeonModel::k8124M, checkpointed(5, stem("a")));
  run_survey(sim::XeonModel::k8124M, checkpointed(5, stem("b")));

  EXPECT_EQ(read_file(stem("a") + ".manifest"), read_file(stem("b") + ".manifest"));
  EXPECT_EQ(read_file(stem("a") + ".rio"), read_file(stem("b") + ".rio"));
}

TEST_F(FleetCheckpointTest, ResumedRunMatchesFreshRunByteForByte) {
  // A run interrupted at 4/9 and resumed must leave exactly the files an
  // uninterrupted run leaves — resuming may not re-serialize, reorder,
  // or re-time anything that lands in checksummed state.
  for (const int jobs : {1, 8}) {
    const std::string tag = "-jobs" + std::to_string(jobs);
    run_survey(sim::XeonModel::k8259CL, checkpointed(9, stem("fresh" + tag), jobs));
    run_survey(sim::XeonModel::k8259CL, checkpointed(4, stem("resumed" + tag), jobs));
    const SurveyResult resumed = run_survey(
        sim::XeonModel::k8259CL, checkpointed(9, stem("resumed" + tag), jobs, true));
    EXPECT_EQ(resumed.resumed, 4);

    EXPECT_EQ(read_file(stem("fresh" + tag) + ".manifest"),
              read_file(stem("resumed" + tag) + ".manifest"))
        << "jobs " << jobs;
    EXPECT_EQ(read_file(stem("fresh" + tag) + ".rio"),
              read_file(stem("resumed" + tag) + ".rio"))
        << "jobs " << jobs;
  }
}

TEST_F(FleetCheckpointTest, TornSegmentTailResumesToFreshBytes) {
  // A killed writer can leave any prefix of its last block on disk.
  // Resuming must cut that tail away and reproduce the fresh bytes.
  run_survey(sim::XeonModel::k8124M, checkpointed(9, stem("fresh")));
  run_survey(sim::XeonModel::k8124M, checkpointed(4, stem("partial")));
  const std::string segment = read_file(stem("partial") + ".rio");
  const std::string manifest = read_file(stem("partial") + ".manifest");

  // One block per record: the last block starts where three rows end.
  std::uint64_t last_block = 0;
  {
    recordio::RecordReader reader(stem("partial") + ".rio");
    recordio::Row row;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(reader.next(&row));
    last_block = reader.valid_prefix_bytes();
  }
  ASSERT_LT(last_block + 2, segment.size());

  const std::uint64_t size = segment.size();
  for (const std::uint64_t cut :
       {last_block + 1, last_block + (size - last_block) / 2, size - 1}) {
    const std::string name = "cut" + std::to_string(cut);
    write_file(stem(name) + ".rio", segment.substr(0, cut));
    write_file(stem(name) + ".manifest", manifest);
    const SurveyResult resumed =
        run_survey(sim::XeonModel::k8124M, checkpointed(9, stem(name), 1, true));
    EXPECT_EQ(resumed.resumed, 3) << "cut at " << cut;
    EXPECT_EQ(read_file(stem(name) + ".rio"), read_file(stem("fresh") + ".rio"))
        << "cut at " << cut;
    EXPECT_EQ(read_file(stem(name) + ".manifest"), read_file(stem("fresh") + ".manifest"))
        << "cut at " << cut;
  }
}

TEST_F(FleetCheckpointTest, ResumedRecordsStayOutOfTimingStats) {
  run_survey(sim::XeonModel::k8124M, checkpointed(4, stem()));
  const SurveyResult resumed =
      run_survey(sim::XeonModel::k8124M, checkpointed(9, stem(), 1, true));
  ASSERT_EQ(resumed.resumed, 4);
  // Only the five computed instances were timed.
  for (const char* name : {"fleet.step1_seconds", "fleet.step2_seconds",
                           "fleet.step3_seconds", "fleet.instance_wall_seconds"}) {
    const obs::ExactStats* stat = resumed.registry.find_stat(name);
    ASSERT_NE(stat, nullptr) << name;
    EXPECT_EQ(stat->count(), 5u) << name;
  }
  const obs::Hist* hist = resumed.registry.find_histogram("fleet.instance_wall_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total(), 5u);
  // Outcome counters still cover the whole survey.
  ASSERT_NE(resumed.registry.find_counter("fleet.instances"), nullptr);
  EXPECT_EQ(resumed.registry.find_counter("fleet.instances")->value(), 9u);
}

TEST_F(FleetCheckpointTest, BadMetricKeyFailsWhenWritten) {
  InstanceRecord record;
  for (const std::string& key : {std::string(), std::string("a;b")}) {
    record.metrics = {{key, 1.0}};
    EXPECT_THROW(encode_survey_record(record), std::invalid_argument) << key;
  }
  // Spaces and '=' are fine in a segment.
  record.metrics = {{"a b=c", 1.5}, {"plain", 2.0}};
  EXPECT_EQ(decode_survey_record(encode_survey_record(record)).metrics, record.metrics);

  // A survey whose analyze hook writes a bad key fails at the write.
  SurveyOptions options = checkpointed(1, stem());
  options.analyze = [](const InstanceTask&, const LocatedInstance&,
                       InstanceRecord& bad) { bad.metrics["x;y"] = 1.0; };
  EXPECT_THROW(run_survey(sim::XeonModel::k8124M, options), std::invalid_argument);
}

TEST_F(FleetCheckpointTest, ResumeWithoutDirectoryIsAnError) {
  SurveyOptions options = base_options(1);
  options.resume = true;
  EXPECT_THROW(run_survey(sim::XeonModel::k8124M, options), std::invalid_argument);
}

}  // namespace
}  // namespace corelocate::fleet
