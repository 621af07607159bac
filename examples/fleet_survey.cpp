// Fleet survey: map many cloud instances of one CPU model and study the
// population — how many distinct physical core layouts exist, how often
// each occurs, and whether the OS<->CHA id mapping varies (the paper's
// Sec. III measurement campaign in miniature).
//
// Runs on the fleet engine (src/fleet/): instances are sharded across a
// work-stealing pool, results merge deterministically, and a checkpoint
// directory makes the survey resumable after an interruption.
//
// Three modes (first positional argument; default `survey`):
//
//   survey   run the whole fleet in this process; --checkpoint DIR
//            writes DIR/shard-0-of-1.rio + .manifest as it goes
//   shard    run shard K of N (--shard-index/--shard-of/--shard-dir):
//            writes shard-K-of-N.rio + .manifest under the shard dir;
//            --resume continues a killed shard
//   merge    combine the N shard outputs back into one survey result
//            (a finished --checkpoint DIR merges as shard 0 of 1)
//
// The shard partition is deterministic and seeds are a function of the
// global instance index, so `merge` reproduces the serial run exactly:
// with --rio (and --out) the merged files are byte-identical to the
// files a `survey --jobs 1` run writes — CI holds us to `cmp`.
//
//   $ ./fleet_survey [--model 8259CL] [--instances 30] [--render-top 2]
//                    [--jobs N] [--checkpoint DIR] [--resume] [--progress]
//   $ ./fleet_survey shard --shard-index 0 --shard-of 3 --shard-dir DIR
//                          [--resume] ...
//   $ ./fleet_survey merge --shard-of 3 --shard-dir DIR ...

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>

#include "fleet/record_stream.hpp"
#include "fleet/shard.hpp"
#include "fleet/survey.hpp"
#include "recordio/writer.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace corelocate;

namespace {

sim::XeonModel parse_model(const std::string& name) {
  if (name == "8124M") return sim::XeonModel::k8124M;
  if (name == "8175M") return sim::XeonModel::k8175M;
  if (name == "8259CL") return sim::XeonModel::k8259CL;
  if (name == "6354") return sim::XeonModel::k6354;
  throw std::invalid_argument("unknown model: " + name);
}

std::string fmt_metric(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The deterministic report: everything the survey *measured*, nothing
/// it *timed*. A pure function of the merged aggregates, so a sharded
/// run's --out file is byte-identical to the serial run's — the
/// wall-clock summary stays on stdout, outside the comparison.
void write_report(std::ostream& out, sim::XeonModel model,
                  const fleet::SurveyResult& survey, int render_top) {
  out << "=== survey of " << survey.completed + survey.failed << " "
      << sim::to_string(model) << " instances ===\n"
      << "completed: " << survey.completed << "\n"
      << "failed:    " << survey.failed << "\n"
      << "unique physical layouts:  " << survey.patterns.unique_patterns() << "\n"
      << "unique OS<->CHA mappings: " << survey.id_mappings.unique_mappings() << "\n";
  out << "metric totals:\n";
  for (const auto& [key, value] : survey.metric_totals) {
    out << "  " << key << " " << fmt_metric(value) << "\n";
  }
  util::TablePrinter table({"rank", "instances", "share"});
  int rank = 1;
  for (const auto& entry : survey.patterns.top(8)) {
    table.add_row({std::to_string(rank++), std::to_string(entry.count),
                   util::fmt_pct(static_cast<double>(entry.count) /
                                 static_cast<double>(survey.completed))});
  }
  table.print(out);
  rank = 1;
  for (const auto& entry : survey.patterns.top(render_top)) {
    out << "\nlayout #" << rank++ << " (" << entry.count << " instances):\n"
        << entry.representative.canonical().render();
  }
}

/// Streams every survey record into a recordio segment at `path`, in
/// global index order. Used by both the serial reference run and merge,
/// so their segments can be compared byte for byte.
class SegmentWriter {
 public:
  explicit SegmentWriter(const std::string& path)
      : writer_(path, fleet::survey_record_schema()) {}

  void operator()(const fleet::InstanceRecord& record) {
    writer_.append_row(fleet::encode_survey_record(record));
  }

  void close() { writer_.close(); }
  const recordio::RecordWriter::Stats& stats() const noexcept {
    return writer_.stats();
  }

 private:
  recordio::RecordWriter writer_;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec(
      "fleet_survey",
      "Map many cloud instances of one CPU model and study the population "
      "of physical core layouts.\n\nModes (first positional argument): "
      "`survey` (default) runs the whole fleet in one process; `shard` "
      "runs shard K of N and writes shard-K-of-N.{rio,manifest} under "
      "--shard-dir; `merge` combines the N shard outputs into the result "
      "(and, with --rio/--out, the bytes) of a serial run.");
  spec.add("model", "SKU", "CPU model: 8124M, 8175M, 8259CL or 6354")
      .add("instances", "N", "total fleet size (all modes)")
      .add("render-top", "N", "most common layouts to render")
      .add("jobs", "N", "worker threads (1 = serial reference)")
      .add("checkpoint", "DIR",
           "persist completed instances as the segment DIR/shard-0-of-1 "
           "(survey mode)")
      .add("resume", "",
           "skip instances already in the checkpoint (survey mode) or in "
           "the shard's own segment (shard mode)")
      .add("progress", "", "emit instances/sec + ETA lines on stderr")
      .add("stream", "",
           "do not retain per-instance records: aggregate in bounded "
           "memory (skips the per-instance stdout lines)")
      .add("rio", "FILE",
           "write every record to a recordio segment at FILE, in global "
           "index order (survey and merge modes)")
      .add("out", "FILE",
           "write the deterministic report (no wall-clock fields) to FILE")
      .add("shard-index", "K", "this shard's index, 0-based (shard mode)")
      .add("shard-of", "N", "total shard count (shard and merge modes)")
      .add("shard-dir", "DIR", "directory for shard segments + manifests")
      .add("solution-cache", "0|1",
           "share a cross-instance solver solution cache (per-worker "
           "copies, merged at aggregation; results stay jobs-N == jobs-1 "
           "identical; default 0)")
      .add("solution-cache-file", "FILE",
           "persist the solution cache: load FILE if it exists, save it "
           "back after the survey (implies --solution-cache 1; shard "
           "mode only loads — concurrent shards must not race on the "
           "write)");
  const util::CliFlags flags(argc, argv, spec);
  if (flags.handle_help(spec, std::cout)) return 0;

  std::string mode = "survey";
  if (!flags.positional().empty()) {
    mode = flags.positional().front();
    if (flags.positional().size() > 1 ||
        (mode != "survey" && mode != "shard" && mode != "merge")) {
      std::cerr << "fleet_survey: expected one mode: survey, shard or merge\n";
      return 2;
    }
  }

  const sim::XeonModel model = parse_model(flags.get("model", "8259CL"));
  const int render_top = static_cast<int>(flags.get_int("render-top", 2));
  const std::string rio_path = flags.get("rio", "");
  const std::string out_path = flags.get("out", "");
  const std::string cache_path = flags.get("solution-cache-file", "");
  // A shard's segment is already its checkpoint, and merge only reads:
  // flags that would do nothing there are errors.
  const bool stray_checkpoint = flags.has("checkpoint") && mode != "survey";
  const bool stray_resume = flags.has("resume") && mode == "merge";
  if (stray_checkpoint || stray_resume) {
    std::cerr << "fleet_survey " << mode << ": --"
              << (stray_checkpoint ? "checkpoint" : "resume")
              << " does nothing in this mode\n";
    return 2;
  }

  fleet::SurveyOptions options;
  options.instances = static_cast<int>(flags.get_int("instances", 30));
  options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  options.base_seed = 0xF1EE7ULL;
  const std::string checkpoint = flags.get("checkpoint", "");
  if (!checkpoint.empty()) options.checkpoint_dir = fleet::shard_stem(checkpoint, 0, 1);
  options.resume = flags.get_bool("resume");
  options.progress = flags.get_bool("progress");
  options.keep_records = !flags.get_bool("stream");
  ilp::SolutionCache solution_cache;
  if (flags.get_bool("solution-cache", false) || !cache_path.empty()) {
    options.solution_cache = &solution_cache;
  }
  if (!cache_path.empty()) {
    const std::size_t warmed = solution_cache.load(cache_path);
    if (warmed != 0) {
      util::log_info() << "fleet: warmed " << warmed
                       << " solution-cache entries from " << cache_path;
    }
  }
  if (options.progress && util::log_level() > util::LogLevel::kInfo) {
    util::set_log_level(util::LogLevel::kInfo);
  }

  if (mode == "shard") {
    fleet::ShardOptions shard_options;
    shard_options.survey = options;
    shard_options.survey.keep_records = false;  // the segment is the output
    shard_options.shard_dir = flags.get("shard-dir", "");
    shard_options.shard_index = static_cast<int>(flags.get_int("shard-index", 0));
    shard_options.shard_of = static_cast<int>(flags.get_int("shard-of", 1));
    if (shard_options.shard_dir.empty()) {
      std::cerr << "fleet_survey shard: --shard-dir is required\n";
      return 2;
    }
    const fleet::ShardResult shard = fleet::run_shard(model, shard_options);
    std::cout << "shard " << shard_options.shard_index << "/"
              << shard_options.shard_of << ": instances [" << shard.range.first
              << ", " << shard.range.first + shard.range.count << ") -> "
              << shard.paths.segment << " (" << shard.survey.completed
              << " ok, " << shard.survey.failed << " failed, " << std::fixed
              << std::setprecision(2) << shard.survey.wall_seconds << " s)\n";
    return 0;
  }

  std::optional<SegmentWriter> segment;
  if (!rio_path.empty()) segment.emplace(rio_path);
  if (segment) {
    options.record_sink = [&segment](const fleet::InstanceRecord& record) {
      (*segment)(record);
    };
  }

  fleet::SurveyResult survey;
  if (mode == "merge") {
    fleet::MergeOptions merge_options;
    merge_options.survey = options;
    merge_options.shard_dir = flags.get("shard-dir", "");
    merge_options.shard_of = static_cast<int>(flags.get_int("shard-of", 1));
    if (merge_options.shard_dir.empty()) {
      std::cerr << "fleet_survey merge: --shard-dir is required\n";
      return 2;
    }
    survey = fleet::merge_shards(model, merge_options);
  } else {
    survey = fleet::run_survey(model, options);
  }
  if (segment) {
    segment->close();
    std::cout << "wrote " << segment->stats().rows << " records ("
              << segment->stats().blocks << " blocks, "
              << segment->stats().bytes_written << " bytes) to " << rio_path
              << "\n";
  }
  if (!cache_path.empty()) {
    solution_cache.save(cache_path);
    util::log_info() << "fleet: saved " << solution_cache.size()
                     << " solution-cache entries to " << cache_path;
  }

  for (const fleet::InstanceRecord& record : survey.records) {
    if (!record.success) {
      std::cout << "instance " << record.index << " failed: " << record.message << "\n";
      continue;
    }
    std::cout << "instance " << record.index << ": PPIN 0x" << std::hex
              << record.map.ppin << std::dec << ", pattern "
              << record.map.pattern_key().substr(0, 24) << "..."
              << (record.from_checkpoint ? " (resumed)" : "") << "\n";
  }

  std::cout << "\n=== survey of " << survey.completed << " " << sim::to_string(model)
            << " instances ===\n"
            << "unique physical layouts:  " << survey.patterns.unique_patterns() << "\n"
            << "unique OS<->CHA mappings: " << survey.id_mappings.unique_mappings()
            << "\n"
            << "survey wall clock:        " << std::fixed << std::setprecision(2)
            << survey.wall_seconds << " s ("
            << survey.timing.instances_per_second << " inst/s, jobs=" << options.jobs
            << ")\n";
  if (options.solution_cache != nullptr) {
    std::cout << "solution cache entries:   " << solution_cache.size() << "\n";
  }
  std::cout << "\n";

  util::TablePrinter table({"rank", "instances", "share"});
  int rank = 1;
  for (const auto& entry : survey.patterns.top(8)) {
    table.add_row({std::to_string(rank++), std::to_string(entry.count),
                   util::fmt_pct(static_cast<double>(entry.count) /
                                 static_cast<double>(survey.completed))});
  }
  table.print(std::cout);

  rank = 1;
  for (const auto& entry : survey.patterns.top(render_top)) {
    std::cout << "\nlayout #" << rank++ << " (" << entry.count << " instances):\n"
              << entry.representative.canonical().render();
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "fleet_survey: cannot open --out file: " << out_path << "\n";
      return 1;
    }
    write_report(out, model, survey, render_top);
    if (!out.good()) {
      std::cerr << "fleet_survey: write failed: " << out_path << "\n";
      return 1;
    }
  }
  return 0;
}
