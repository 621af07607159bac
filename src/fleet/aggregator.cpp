#include "fleet/aggregator.hpp"

#include <algorithm>
#include <utility>

namespace corelocate::fleet {

Aggregator::Aggregator(std::size_t workers, bool keep_records)
    : buckets_(workers == 0 ? 1 : workers), keep_records_(keep_records) {}

void Aggregator::add(std::size_t worker, InstanceRecord record) {
  Bucket& bucket = buckets_[worker % buckets_.size()];
  util::ReentryGuard::Scope scope(bucket.entry_guard, "Aggregator bucket");
  if (record.success) {
    bucket.patterns.add(record.map);
    bucket.id_mappings.add(record.map.os_core_to_cha);
    ++bucket.completed;
  } else {
    ++bucket.failed;
  }
  for (const auto& [key, value] : record.metrics) {
    bucket.metric_totals[key].add(value);
  }
  if (keep_records_) bucket.records.push_back(std::move(record));
}

AggregateResult Aggregator::merge() CORELOCATE_SERIAL_PHASE {
  AggregateResult result;
  std::map<std::string, util::ExactSum> totals;
  for (Bucket& bucket : buckets_) {
    util::ReentryGuard::Scope scope(bucket.entry_guard, "Aggregator merge");
    result.patterns.merge(bucket.patterns);
    result.id_mappings.merge(bucket.id_mappings);
    result.completed += bucket.completed;
    result.failed += bucket.failed;
    for (const auto& [key, sum] : bucket.metric_totals) {
      totals[key].merge(sum);
    }
    std::move(bucket.records.begin(), bucket.records.end(),
              std::back_inserter(result.records));
    bucket = Bucket{};
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const InstanceRecord& a, const InstanceRecord& b) {
              return a.index < b.index;
            });
  for (const auto& [key, sum] : totals) {
    result.metric_totals[key] = sum.value();
  }
  return result;
}

}  // namespace corelocate::fleet
