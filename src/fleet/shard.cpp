#include "fleet/shard.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "fleet/aggregator.hpp"
#include "fleet/record_stream.hpp"
#include "obs/trace.hpp"

namespace corelocate::fleet {

ShardRange shard_range(int instances, int shard_index, int shard_of) {
  if (instances < 0) throw std::invalid_argument("shard_range: instances < 0");
  if (shard_of < 1) throw std::invalid_argument("shard_range: shard_of < 1");
  if (shard_index < 0 || shard_index >= shard_of) {
    throw std::invalid_argument("shard_range: shard_index out of [0, shard_of)");
  }
  const auto lo = static_cast<int>(static_cast<std::int64_t>(instances) *
                                   shard_index / shard_of);
  const auto hi = static_cast<int>(static_cast<std::int64_t>(instances) *
                                   (shard_index + 1) / shard_of);
  return ShardRange{lo, hi - lo};
}

std::string shard_stem(const std::string& dir, int shard_index, int shard_of) {
  return dir + "/shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_of);
}

ShardResult run_shard(sim::XeonModel model, const ShardOptions& options) {
  if (options.shard_dir.empty()) {
    throw std::invalid_argument("run_shard: empty shard directory");
  }
  if (options.survey.first_instance != 0) {
    throw std::invalid_argument(
        "run_shard: first_instance is owned by the shard partition");
  }
  if (!options.survey.checkpoint_dir.empty()) {
    throw std::invalid_argument(
        "run_shard: the shard segment is the checkpoint; checkpoint_dir must be "
        "empty");
  }
  ShardResult result;
  result.range = shard_range(options.survey.instances, options.shard_index,
                             options.shard_of);
  SurveyOptions sub = options.survey;
  sub.first_instance = result.range.first;
  sub.instances = result.range.count;
  sub.checkpoint_dir = shard_stem(options.shard_dir, options.shard_index,
                                  options.shard_of);
  result.paths = segment_paths(sub.checkpoint_dir);
  sub.progress_label =
      "shard " + std::to_string(options.shard_index) + "/" +
      std::to_string(options.shard_of);
  result.survey = run_survey(model, sub);
  return result;
}

SurveyResult merge_shards(sim::XeonModel model, const MergeOptions& options) {
  if (options.shard_dir.empty()) {
    throw std::invalid_argument("merge_shards: empty shard directory");
  }
  if (options.shard_of < 1) {
    throw std::invalid_argument("merge_shards: shard_of < 1");
  }
  if (options.survey.first_instance != 0) {
    throw std::invalid_argument("merge_shards: first_instance must be 0");
  }
  obs::Span merge_span("merge_shards", "fleet");
  merge_span.arg("shards", obs::Json(options.shard_of));

  const SegmentManifest identity{sim::to_string(model), options.survey.base_seed,
                                 options.survey.fleet_seed};
  Aggregator aggregator(1, options.survey.keep_records);
  ProgressMeter meter(options.survey.instances, options.survey.progress, "merge");
  SurveyResult result;

  std::uint64_t crc_checks = 0, blocks = 0, bytes_read = 0;
  int manifest_completed = 0, manifest_failed = 0;
  for (int shard = 0; shard < options.shard_of; ++shard) {
    const SegmentPaths paths =
        segment_paths(shard_stem(options.shard_dir, shard, options.shard_of));
    if (!std::filesystem::exists(paths.manifest)) {
      throw std::runtime_error(
          "fleet merge: missing shard manifest (shard crashed or never ran?): " +
          paths.manifest);
    }
    const SegmentManifest manifest = read_manifest(paths.manifest, identity);
    if (!manifest.committed) {
      throw std::runtime_error(
          "fleet merge: uncommitted shard manifest (shard still running or "
          "killed; re-run it with --resume): " + paths.manifest);
    }
    const ShardRange range =
        shard_range(options.survey.instances, shard, options.shard_of);
    if (manifest.first != range.first || manifest.count != range.count) {
      throw std::runtime_error(
          "fleet merge: shard manifest " + paths.manifest +
          " does not tile this survey (wrong fleet size, shard count or range)");
    }
    manifest_completed += manifest.completed;
    manifest_failed += manifest.failed;

    recordio::RecordReader::Stats stats;
    const int rows = read_segment(
        paths.segment, range.first, range.count, options.survey.base_seed,
        [&](InstanceRecord record) {
          if (options.survey.record_sink) options.survey.record_sink(record);
          meter.instance_done(0.0);
          aggregator.add(0, std::move(record));
        },
        &stats);
    if (rows != range.count) {
      throw std::runtime_error("fleet merge: " + paths.segment + " holds " +
                               std::to_string(rows) + " records, manifest promises " +
                               std::to_string(range.count));
    }
    crc_checks += stats.crc_checks;
    blocks += stats.blocks_read;
    bytes_read += stats.bytes_read;
  }

  AggregateResult merged = aggregator.merge();
  if (merged.completed != manifest_completed || merged.failed != manifest_failed) {
    throw std::runtime_error(
        "fleet merge: segment outcomes disagree with the shard manifests");
  }
  result.records = std::move(merged.records);
  result.patterns = std::move(merged.patterns);
  result.id_mappings = std::move(merged.id_mappings);
  result.metric_totals = std::move(merged.metric_totals);
  result.completed = merged.completed;
  result.failed = merged.failed;
  result.timing = meter.summary();
  result.registry.counter("fleet.instances")
      .add(static_cast<std::uint64_t>(options.survey.instances));
  result.registry.counter("fleet.failures")
      .add(static_cast<std::uint64_t>(merged.failed));
  result.registry.counter("fleet.recordio.crc_checks").add(crc_checks);
  result.registry.counter("fleet.recordio.blocks").add(blocks);
  result.registry.counter("fleet.recordio.bytes_read").add(bytes_read);
  result.wall_seconds = merge_span.stop();  // corelint: non-deterministic
  return result;
}

}  // namespace corelocate::fleet
