#include "fleet/survey.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "fleet/aggregator.hpp"
#include "fleet/record_stream.hpp"
#include "fleet/thread_pool.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "recordio/writer.hpp"
#include "util/hotpath.hpp"
#include "util/log.hpp"

namespace corelocate::fleet {

namespace {

/// Tool-RNG tweak used by the serial bench loops since the seed commit;
/// part of the survey seeding contract (see survey.hpp).
constexpr std::uint64_t kToolSeedTweak = 0x700150EEDULL;

InstanceRecord run_instance(const InstanceTask& task, const AnalyzeFn& analyze,
                            ilp::SolutionCache* solution_cache) {
  CORELOCATE_HOT_LOOP;  // per-instance body: the survey's unit of work
  InstanceRecord record;
  record.index = task.index;
  record.seed = task.seed;
  obs::Span span("instance", "fleet");
  span.arg("index", obs::Json(task.index));
  try {
    const LocatedInstance located =
        locate_instance(task.model, task.seed, *task.factory, solution_cache);
    record.success = located.result.success;
    record.message = located.result.message;
    record.step1_seconds = located.result.step1_seconds;
    record.step2_seconds = located.result.step2_seconds;
    record.step3_seconds = located.result.step3_seconds;
    // Deterministic solver work counters; they round-trip through the
    // checkpoint segment on resume. A solution-cache hit replays the cold
    // solve's counters, so these stay partition-independent; the hit/miss
    // flag itself is deliberately NOT recorded (it depends on how work
    // was sharded).
    record.metrics["solver_nodes"] = static_cast<double>(located.result.solver_nodes);
    record.metrics["solver_lp_iterations"] =
        static_cast<double>(located.result.solver_lp_iterations);
    record.metrics["solver_nodes_pruned"] =
        static_cast<double>(located.result.solver_nodes_pruned);
    record.metrics["solver_lp_solves_avoided"] =
        static_cast<double>(located.result.solver_lp_solves_avoided);
    if (located.result.success) record.map = located.result.map;
    if (analyze) analyze(task, located, record);
  } catch (const std::exception& e) {
    record.success = false;
    record.message = std::string("exception: ") + e.what();
  }
  record.wall_seconds = span.stop();  // corelint: non-deterministic
  return record;
}

/// Folds one completed record into a worker's observability registry.
/// Counters/stats over deterministic record fields merge bit-identically
/// across any worker partition; the *_seconds stats are timing metadata
/// and, as in Aggregator::add, only count records computed by this run
/// (a resumed record has no timings).
void observe_record(obs::Registry& registry, const InstanceRecord& record) {
  registry.counter("fleet.instances").add(1);
  registry.counter("fleet.failures").add(record.success ? 0u : 1u);
  const auto metric = [&record](const char* key) {
    const auto it = record.metrics.find(key);
    return it == record.metrics.end() ? 0.0 : it->second;
  };
  registry.counter("fleet.solver_nodes")
      .add(static_cast<std::uint64_t>(metric("solver_nodes")));
  registry.counter("fleet.solver_lp_iterations")
      .add(static_cast<std::uint64_t>(metric("solver_lp_iterations")));
  registry.counter("fleet.solver_nodes_pruned")
      .add(static_cast<std::uint64_t>(metric("solver_nodes_pruned")));
  registry.counter("fleet.solver_lp_solves_avoided")
      .add(static_cast<std::uint64_t>(metric("solver_lp_solves_avoided")));
  if (record.from_checkpoint) return;
  registry.stat("fleet.step1_seconds").add(record.step1_seconds);
  registry.stat("fleet.step2_seconds").add(record.step2_seconds);
  registry.stat("fleet.step3_seconds").add(record.step3_seconds);
  registry.stat("fleet.instance_wall_seconds").add(record.wall_seconds);
  registry.histogram("fleet.instance_wall_hist", 0.0, 10.0, 1000)
      .add(record.wall_seconds);
}

/// Whether `stem` holds a segment of this survey to resume. Throws
/// std::runtime_error for another survey's segment, and for a directory
/// that holds only a checkpoint written before checkpoints became survey
/// segments (manifest.txt + maps.rio + timings.txt).
bool can_resume(const std::string& stem, const SegmentManifest& identity) {
  const std::string path = segment_paths(stem).manifest;
  if (!std::filesystem::exists(path)) {
    const std::filesystem::path old = std::filesystem::path(stem).parent_path() /
                                      "manifest.txt";
    if (std::filesystem::exists(old)) {
      throw std::runtime_error("fleet: " + old.string() +
                               " is an old checkpoint format, re-run without --resume");
    }
    return false;
  }
  read_manifest(path, identity);
  return true;
}

}  // namespace

LocatedInstance locate_instance(sim::XeonModel model, std::uint64_t seed,
                                const sim::InstanceFactory& factory,
                                ilp::SolutionCache* solution_cache) {
  util::Rng machine_rng(seed);
  LocatedInstance located{factory.make_instance(model, machine_rng), {}};
  sim::VirtualXeon cpu(located.config);
  util::Rng tool_rng(seed ^ kToolSeedTweak);
  core::LocateOptions options = core::options_for(sim::spec_for(model));
  options.solution_cache = solution_cache;
  located.result = core::locate_cores(cpu, tool_rng, options);
  return located;
}

SurveyResult run_survey(sim::XeonModel model, const SurveyOptions& options) {
  if (options.instances < 0) throw std::invalid_argument("run_survey: instances < 0");
  if (options.first_instance < 0) {
    throw std::invalid_argument("run_survey: first_instance < 0");
  }
  if (options.jobs < 1) throw std::invalid_argument("run_survey: jobs < 1");
  if (options.resume && options.checkpoint_dir.empty()) {
    throw std::invalid_argument("run_survey: --resume needs a checkpoint directory");
  }
  obs::Span survey_span("run_survey", "fleet");
  survey_span.arg("instances", obs::Json(options.instances));
  survey_span.arg("jobs", obs::Json(options.jobs));

  const sim::InstanceFactory factory(options.fleet_seed);
  const int first = options.first_instance;
  const int end = options.first_instance + options.instances;
  const int jobs = options.jobs;
  Aggregator aggregator(static_cast<std::size_t>(jobs), options.keep_records);
  ProgressMeter meter(options.instances, options.progress, options.progress_label);
  // One registry per worker: a worker only ever touches its own slot
  // (same exclusion argument as the aggregator buckets), merged below.
  std::vector<obs::Registry> registries(static_cast<std::size_t>(jobs));

  // The checkpoint is a survey segment (record_stream.hpp): one CRC
  // block per record in `<stem>.rio`, so a record is durable once the
  // sink has passed it on, and the survey's identity in the manifest.
  const std::string& stem = options.checkpoint_dir;
  const SegmentPaths paths = segment_paths(stem);
  SegmentManifest manifest{sim::to_string(model), options.base_seed, options.fleet_seed};
  std::optional<recordio::RecordWriter> segment;
  const bool resuming = options.resume && can_resume(stem, manifest);
  if (!stem.empty()) {
    const std::filesystem::path parent = std::filesystem::path(stem).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    // Uncommit before any segment byte changes: from here until the
    // commit below, a killed run leaves a manifest without `end`.
    write_manifest(paths.manifest, manifest);
    recordio::WriterOptions writer_options;
    writer_options.append = resuming;  // append mode truncates a torn tail
    segment.emplace(paths.segment, survey_record_schema(), writer_options);
    segment->flush();  // puts the header on disk before a resume reads it
  }

  // Every record — resumed or computed, whatever the completion order —
  // drains through one index-ordered sink, so the segment and the
  // caller's record stream are byte-for-byte independent of jobs.
  std::optional<OrderedSink> sink;
  if (segment || options.record_sink) {
    sink.emplace(first, [&](const InstanceRecord& record) {
      if (segment && !record.from_checkpoint) {
        segment->append_row(encode_survey_record(record));
        segment->flush();
      }
      if (options.record_sink) options.record_sink(record);
    });
  }
  int resumed = 0;
  if (resuming) {
    // The segment's rows are a contiguous index-ordered prefix of this
    // survey; they fold into worker 0's slots, and only the rest runs.
    resumed = read_segment(paths.segment, first, options.instances, options.base_seed,
                           [&](InstanceRecord record) {
                             record.from_checkpoint = true;
                             observe_record(registries[0], record);
                             sink->deliver(record);
                             aggregator.add(0, std::move(record));
                           });
    meter.note_resumed(resumed);
    util::log_info() << "fleet: resumed " << resumed << "/" << options.instances
                     << " instances from " << paths.segment;
  }

  std::vector<int> todo;
  todo.reserve(static_cast<std::size_t>(end - first - resumed));
  for (int i = first + resumed; i < end; ++i) todo.push_back(i);

  // Per-worker solution caches, seeded from the caller's cache. A worker
  // only ever touches its own copy (the exclusion argument of the
  // aggregator buckets again); the copies merge back after the join.
  std::vector<ilp::SolutionCache> worker_caches;
  if (options.solution_cache != nullptr) {
    worker_caches.assign(static_cast<std::size_t>(jobs), *options.solution_cache);
  }

  const auto run_one = [&](int index, std::size_t worker) {
    const InstanceTask task{index, options.base_seed + static_cast<std::uint64_t>(index),
                            model, &factory};
    InstanceRecord record =
        run_instance(task, options.analyze,
                     worker_caches.empty() ? nullptr : &worker_caches[worker]);
    if (sink) sink->deliver(record);
    meter.instance_done(record.step1_seconds, record.step2_seconds,
                        record.step3_seconds, record.wall_seconds);
    observe_record(registries[worker], record);
    aggregator.add(worker, std::move(record));
  };

  if (jobs == 1) {
    // Serial reference path: index order, no threads.
    for (int index : todo) run_one(index, 0);
  } else {
    ThreadPool pool(static_cast<std::size_t>(jobs));
    // Shard round-robin across worker deques; stealing rebalances tails.
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const int index = todo[i];
      pool.submit_on(i % pool.worker_count(), [&run_one, index] {
        run_one(index, static_cast<std::size_t>(ThreadPool::current_worker()));
      });
    }
    pool.wait_idle();
  }

  // Merge-at-aggregation: worker caches fold back into the caller's
  // cache in worker order. Insert-if-absent plus byte-identical cold
  // solves per key make the merged contents partition-independent.
  if (options.solution_cache != nullptr) {
    for (const ilp::SolutionCache& cache : worker_caches) {
      options.solution_cache->merge(cache);
    }
  }

  if (sink) {
    // Every index in [first, end) was pushed exactly once, so a drained
    // pool means a drained sink; anything left is an engine bug.
    if (sink->pending() != 0) {
      throw std::runtime_error("run_survey: record sink still holds " +
                               std::to_string(sink->pending()) +
                               " records after the pool drained");
    }
    // Scheduling metadata, like the wall-clock stats: how far completion
    // order ran ahead of index order, never part of deterministic output.
    registries[0]
        .counter("fleet.record_sink_max_buffered")
        .add(static_cast<std::uint64_t>(sink->max_buffered()));
  }

  AggregateResult merged = aggregator.merge();
  SurveyResult result;
  if (segment) {
    // Every record is durable: commit the segment.
    segment->close();
    manifest.committed = true;
    manifest.first = first;
    manifest.count = options.instances;
    manifest.completed = merged.completed;
    manifest.failed = merged.failed;
    write_manifest(paths.manifest, manifest);
    result.registry.counter("fleet.recordio.bytes_written")
        .add(segment->stats().bytes_written);
    result.registry.counter("fleet.recordio.blocks").add(segment->stats().blocks);
  }
  result.records = std::move(merged.records);
  result.patterns = std::move(merged.patterns);
  result.id_mappings = std::move(merged.id_mappings);
  result.metric_totals = std::move(merged.metric_totals);
  result.completed = merged.completed;
  result.failed = merged.failed;
  result.resumed = resumed;
  result.timing = meter.summary();
  result.timing.step1 = merged.step1;
  result.timing.step2 = merged.step2;
  result.timing.step3 = merged.step3;
  result.timing.wall = merged.wall;
  // Worker registries merge in worker order; every fold is exact, so the
  // merged registry is a pure function of the record set.
  for (const obs::Registry& registry : registries) result.registry.merge(registry);
  result.wall_seconds = survey_span.stop();  // corelint: non-deterministic
  return result;
}

}  // namespace corelocate::fleet
