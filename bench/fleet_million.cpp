// Fleet write-path bench: streams a synthetic million-instance survey
// record stream through the recordio segment writer, and reports
// ns/record plus the peak-RSS ceiling of the streaming run.
//
// Records are synthesized, not located — the locating pipeline costs
// milliseconds per instance and would drown the nanoseconds-per-record
// write costs this bench isolates. The synthesized records carry a
// realistic 28-CHA core map and the usual metric keys, and cycle
// through distinct seeds/ppins so the delta coder sees real deltas.
//
// The flat-memory contract: the writer buffers at most one block, so a
// million-record stream must not grow RSS beyond the block policy. The
// bench measures ru_maxrss before and after the streaming write and
// exits nonzero when the growth crosses --rss-budget-mib — the same
// keep_records=false guarantee the fleet shard runner relies on.
//
//   $ ./fleet_million [--instances 1000000] [--rss-budget-mib 128]
//                     [--keep-output DIR]
//                     [--report=json] [--report-file PATH] [--trace PATH]

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "fleet/record_stream.hpp"
#include "fleet/survey_record.hpp"
#include "recordio/reader.hpp"
#include "recordio/writer.hpp"

using namespace corelocate;

namespace {

/// Peak RSS of the process so far, in KiB (ru_maxrss unit on Linux).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// A realistic located-instance record: 28 CHAs on a 6x5 grid, 26 OS
/// cores, two LLC-only tiles, and the metric keys the real survey
/// emits. Identity fields are filled per append by the caller.
fleet::InstanceRecord template_record() {
  fleet::InstanceRecord record;
  record.success = true;
  record.map.rows = 6;
  record.map.cols = 5;
  constexpr int kChas = 28;
  for (int cha = 0; cha < kChas; ++cha) {
    record.map.cha_position.push_back(
        mesh::Coord{cha / 5, cha % 5});
  }
  record.map.llc_only_chas = {13, 27};
  for (int cha = 0; cha < kChas; ++cha) {
    if (cha == 13 || cha == 27) continue;
    record.map.os_core_to_cha.push_back(cha);
  }
  record.metrics["exact"] = 1.0;
  record.metrics["all_cores"] = 1.0;
  record.metrics["solver_nodes"] = 412.0;
  record.metrics["patterns"] = 3.0;
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec("fleet_million",
                      "Stream a synthetic million-instance record stream through "
                      "the recordio segment writer, gating write throughput and "
                      "peak RSS.");
  spec.add("instances", "N", "records to stream (default 1000000)")
      .add("rss-budget-mib", "N",
           "exit nonzero when the streaming write grows peak RSS past N MiB "
           "(default 128)")
      .add("keep-output", "DIR", "write segments under DIR and keep them");
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv, spec);
  if (flags.handle_help(spec, std::cout)) return 0;

  bench::BenchReporter reporter("fleet_million", flags);
  bench::print_header("fleet survey write path at one million instances",
                      "the Sec. III fleet scaled to cloud-survey size");

  const auto instances =
      static_cast<std::uint64_t>(flags.get_int("instances", 1'000'000));
  const auto rss_budget_mib =
      static_cast<std::uint64_t>(flags.get_int("rss-budget-mib", 128));

  std::string out_dir = flags.get("keep-output", "");
  const bool keep_output = !out_dir.empty();
  if (!keep_output) {
    out_dir = (std::filesystem::temp_directory_path() /
               ("fleet_million." + std::to_string(::getpid())))
                  .string();
  }
  std::filesystem::create_directories(out_dir);
  const std::string rio_path = out_dir + "/records.rio";

  const fleet::InstanceRecord base = template_record();

  // --- recordio streaming write: the current fleet hot write path. ---
  const long rss_before_kib = peak_rss_kib();
  const obs::Clock::Time rio_start = obs::Clock::now();
  recordio::RecordWriter::Stats rio_stats;
  {
    recordio::RecordWriter writer(rio_path, fleet::survey_record_schema());
    fleet::InstanceRecord record = base;
    for (std::uint64_t i = 0; i < instances; ++i) {
      record.index = static_cast<int>(i);
      record.seed = 0xF1EE7ULL + i;
      record.map.ppin = 0x9900000000000000ULL + i;
      writer.append_row(fleet::encode_survey_record(record));
    }
    writer.close();
    rio_stats = writer.stats();
  }
  const double rio_seconds = obs::Clock::seconds_since(rio_start);
  const long rss_after_kib = peak_rss_kib();
  reporter.add_stage("rio_write", rio_seconds);

  // --- read-back verification: every block CRC re-checked. ---
  const obs::Clock::Time read_start = obs::Clock::now();
  std::uint64_t rows_read = 0;
  recordio::RecordReader::Stats read_stats;
  {
    recordio::RecordReader reader(rio_path);
    reader.require_schema(fleet::survey_record_schema());
    recordio::Row row;
    while (reader.next(&row)) ++rows_read;
    read_stats = reader.stats();
  }
  reporter.add_stage("rio_read", obs::Clock::seconds_since(read_start));

  const double rio_ns = rio_seconds * 1e9 / static_cast<double>(instances);
  const auto rss_growth_kib =
      static_cast<std::uint64_t>(rss_after_kib > rss_before_kib
                                     ? rss_after_kib - rss_before_kib
                                     : 0);

  std::cout << "instances:        " << instances << "\n"
            << "rio write:        " << rio_ns << " ns/record, "
            << rio_stats.bytes_written << " bytes, " << rio_stats.blocks
            << " blocks\n"
            << "rio bytes/record: "
            << static_cast<double>(rio_stats.bytes_written) /
                   static_cast<double>(instances)
            << "\n"
            << "peak RSS:         " << rss_after_kib << " KiB ("
            << rss_growth_kib << " KiB growth across the streaming write)\n";

  // Counters the CI gate compares against bench/baselines (integer
  // folds, so benchreport compare --metric can budget them):
  //   fleet.bench.rio_ns_per_record  write throughput (lower is better)
  //   fleet.bench.peak_rss_kib       flat-memory ceiling of the run
  obs::Registry registry;
  registry.counter("fleet.bench.rio_ns_per_record")
      .add(static_cast<std::uint64_t>(rio_ns));
  registry.counter("fleet.bench.peak_rss_kib")
      .add(static_cast<std::uint64_t>(rss_after_kib));
  registry.counter("fleet.bench.rss_growth_kib").add(rss_growth_kib);
  registry.counter("fleet.recordio.bytes_written").add(rio_stats.bytes_written);
  registry.counter("fleet.recordio.blocks").add(rio_stats.blocks);
  registry.counter("fleet.recordio.crc_checks").add(read_stats.crc_checks);
  reporter.merge_registry(registry);

  bench::ExpectedActual comparison;
  comparison.add("rows_round_tripped", static_cast<double>(instances),
                 static_cast<double>(rows_read))
      .add("rss_growth_under_budget", 1.0,
           rss_growth_kib <= rss_budget_mib * 1024 ? 1.0 : 0.0);
  reporter.finish(comparison);

  if (!keep_output) std::filesystem::remove_all(out_dir);

  if (rows_read != instances) {
    std::cerr << "fleet_million: read back " << rows_read << " of " << instances
              << " rows\n";
    return 1;
  }
  if (rss_growth_kib > rss_budget_mib * 1024) {
    std::cerr << "fleet_million: streaming write grew peak RSS by "
              << rss_growth_kib << " KiB (budget " << rss_budget_mib
              << " MiB) — the write path is no longer flat in memory\n";
    return 1;
  }
  return 0;
}
