// Service end-to-end: statuses, endpoints and the determinism contract
// (byte-identical response log at any worker count).

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "serve/fingerprint.hpp"
#include "serve/loadgen.hpp"
#include "sim/instance_factory.hpp"

namespace corelocate::serve {
namespace {

MappingRequest client(sim::XeonModel model, std::uint64_t seed) {
  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  return synthesize_client(model, seed, factory);
}

TEST(ServiceTest, RejectsBadOptions) {
  ServiceOptions options;
  options.jobs = 0;
  EXPECT_THROW(Service{options}, std::invalid_argument);
  options.jobs = 1;
  options.batch_max = 0;
  EXPECT_THROW(Service{options}, std::invalid_argument);
}

TEST(ServiceTest, FirstRequestSolvesReplayHits) {
  ServiceOptions options;
  std::vector<Status> statuses;
  options.on_response = [&](const Response& r) { statuses.push_back(r.status); };
  Service observed(options);

  const MappingRequest request = client(sim::XeonModel::k8124M, 11);
  observed.submit(Request{request});
  observed.drain();  // first batch: cold solve
  observed.submit(Request{request});
  observed.drain();  // second batch: cache hit
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], Status::kSolved);
  EXPECT_EQ(statuses[1], Status::kHit);
  EXPECT_EQ(observed.cache().stats().hits, 1u);
  EXPECT_EQ(observed.cache().stats().misses, 1u);
}

TEST(ServiceTest, PermutedReplayIsACacheHit) {
  // The satellite property at the service level: a second request whose
  // observations arrive in a different order returns the same map from
  // the cache and records a hit.
  std::vector<Response> responses;
  ServiceOptions options;
  options.on_response = [&](const Response& r) { responses.push_back(r); };
  Service service(options);

  const MappingRequest request = client(sim::XeonModel::k8175M, 5);
  service.submit(Request{request});
  service.drain();
  MappingRequest permuted = request;
  permuted.observations = permute_observations(*request.observations, 99);
  service.submit(Request{permuted});
  service.drain();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].status, Status::kHit);
  EXPECT_EQ(responses[0].fingerprint, responses[1].fingerprint);
  ASSERT_NE(responses[0].map, nullptr);
  ASSERT_NE(responses[1].map, nullptr);
  // The hit aliases the cached map object rather than copying it.
  EXPECT_EQ(responses[0].map.get(), responses[1].map.get());
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST(ServiceTest, SameSignatureMissesCoalesceWithinABatch) {
  std::vector<Status> statuses;
  ServiceOptions options;
  options.on_response = [&](const Response& r) { statuses.push_back(r.status); };
  Service service(options);

  const MappingRequest first = client(sim::XeonModel::k8124M, 11);
  MappingRequest twin = first;  // same observations, different identity
  twin.ppin ^= 0x1234ULL;
  service.submit(Request{first});
  service.submit(Request{twin});
  service.drain();  // one batch, one solve

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], Status::kSolved);
  EXPECT_EQ(statuses[1], Status::kCoalesced);
  const obs::Registry& registry = service.registry();
  ASSERT_NE(registry.find_counter("serve.batch.solves"), nullptr);
  EXPECT_EQ(registry.find_counter("serve.batch.solves")->value(), 1u);
  ASSERT_NE(registry.find_counter("serve.batch.coalesced"), nullptr);
  EXPECT_EQ(registry.find_counter("serve.batch.coalesced")->value(), 1u);
  // Both identities were cached despite the single solve.
  EXPECT_EQ(service.cache().stats().size, 2u);
}

TEST(ServiceTest, CovertPlanRidesTheMappingCache) {
  std::vector<Response> responses;
  ServiceOptions options;
  options.on_response = [&](const Response& r) { responses.push_back(r); };
  Service service(options);

  const MappingRequest instance = client(sim::XeonModel::k8259CL, 7);
  service.submit(Request{instance});
  service.drain();
  CovertPlanRequest plan;
  plan.instance = instance;
  plan.kind = PlanKind::kDisjointPairs;
  plan.count = 2;
  service.submit(Request{plan});
  service.drain();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].endpoint, Endpoint::kCovertPlan);
  EXPECT_EQ(responses[1].status, Status::kHit);
  EXPECT_NE(responses[1].body.find("pairs=["), std::string::npos);
}

TEST(ServiceTest, SurveyEndpointComputesSummaries) {
  std::vector<Response> responses;
  ServiceOptions options;
  options.on_response = [&](const Response& r) { responses.push_back(r); };
  Service service(options);

  SurveyRequest survey;
  survey.model = sim::XeonModel::k8124M;
  survey.instances = 2;
  survey.base_seed = 77;
  service.submit(Request{survey});
  service.drain();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].endpoint, Endpoint::kSurvey);
  EXPECT_EQ(responses[0].status, Status::kComputed);
  EXPECT_NE(responses[0].body.find("completed=2"), std::string::npos);
  EXPECT_EQ(responses[0].fingerprint, 0u);
}

TEST(ServiceTest, UnsolvableRequestFailsWithoutPoisoningTheCache) {
  std::vector<Response> responses;
  ServiceOptions options;
  options.on_response = [&](const Response& r) { responses.push_back(r); };
  Service service(options);

  MappingRequest broken = client(sim::XeonModel::k8124M, 11);
  // Self-contradictory observations: a path from a CHA to itself with
  // traffic cannot be routed on any placement.
  auto observations = std::make_shared<core::ObservationSet>(*broken.observations);
  for (auto& observation : *observations) observation.sink_cha = observation.source_cha;
  broken.observations = std::move(observations);
  service.submit(Request{broken});
  service.drain();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Status::kFailed);
  EXPECT_FALSE(responses[0].message.empty());
  EXPECT_EQ(service.cache().stats().size, 0u);
  ASSERT_NE(service.registry().find_counter("serve.failures"), nullptr);
  EXPECT_EQ(service.registry().find_counter("serve.failures")->value(), 1u);
}

TEST(ServiceTest, ResponseLogIsByteIdenticalAcrossWorkerCounts) {
  // The tentpole contract: jobs=1, jobs=4 and jobs=8 produce the same
  // response log bytes for the same stream (batch_max fixed).
  LoadgenOptions load;
  load.requests = 60;
  load.distinct_per_sku = 2;
  load.plan_fraction = 0.2;
  load.survey_fraction = 0.05;
  const Loadgen loadgen(load);

  std::string reference;
  std::uint64_t reference_checksum = 0;
  for (const int jobs : {1, 4, 8}) {
    std::ostringstream log;
    ServiceOptions options;
    options.jobs = jobs;
    options.batch_max = 16;
    options.log_stream = &log;
    Service service(options);
    for (std::uint64_t i = 0; i < load.requests; ++i) {
      service.submit(loadgen.make_request(i));
      if (service.pending() >= 16) service.pump();
    }
    service.drain();
    EXPECT_EQ(service.response_log().lines(), load.requests);
    if (jobs == 1) {
      reference = log.str();
      reference_checksum = service.response_log().checksum();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(log.str(), reference) << "jobs=" << jobs;
      EXPECT_EQ(service.response_log().checksum(), reference_checksum);
    }
  }
}

TEST(ServiceTest, RefineTrialsCounterIsEqualAcrossWorkerCounts) {
  // serve.refine.trials counts the refinement trials of cold solves: a
  // deterministic work counter, so jobs=1, 4 and 8 must agree.
  LoadgenOptions load;
  load.requests = 60;
  load.distinct_per_sku = 4;
  const Loadgen loadgen(load);
  std::uint64_t reference = 0;
  for (const int jobs : {1, 4, 8}) {
    ServiceOptions options;
    options.jobs = jobs;
    options.batch_max = 16;
    options.engine = core::SolverEngine::kRefined;
    Service service(options);
    for (std::uint64_t i = 0; i < load.requests; ++i) {
      service.submit(loadgen.make_request(i));
      if (service.pending() >= 16) service.pump();
    }
    service.drain();
    const obs::Counter* trials = service.registry().find_counter("serve.refine.trials");
    ASSERT_NE(trials, nullptr);
    if (jobs == 1) {
      reference = trials->value();
      EXPECT_GT(reference, 0u);  // some client needs refinement
    } else {
      EXPECT_EQ(trials->value(), reference) << "jobs=" << jobs;
    }
  }
}

TEST(ServiceTest, QueueDepthGaugeAndBatchStatsAreRecorded) {
  ServiceOptions options;
  options.batch_max = 8;
  Service service(options);
  const MappingRequest request = client(sim::XeonModel::k8124M, 11);
  for (int i = 0; i < 20; ++i) service.submit(Request{request});
  EXPECT_EQ(service.pending(), 20u);
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  const obs::Registry& registry = service.registry();
  ASSERT_NE(registry.find_gauge("serve.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("serve.queue_depth")->value(), 20.0);
  ASSERT_NE(registry.find_counter("serve.batches"), nullptr);
  EXPECT_EQ(registry.find_counter("serve.batches")->value(), 3u);  // 8+8+4
  ASSERT_NE(registry.find_counter("serve.responses"), nullptr);
  EXPECT_EQ(registry.find_counter("serve.responses")->value(), 20u);
}

TEST(ResponseLogTest, FormatsStableLinesAndRejectsOutOfOrderSeq) {
  Response response;
  response.seq = 3;
  response.endpoint = Endpoint::kMapping;
  response.status = Status::kHit;
  response.fingerprint = 0xABCDULL;
  response.body = "map=0000000000001234 chas=18";
  EXPECT_EQ(ResponseLog::format_line(response),
            "seq=3 endpoint=mapping status=hit fp=000000000000abcd "
            "map=0000000000001234 chas=18\n");

  ResponseLog log;
  Response first;
  first.seq = 0;
  log.append_response(first);
  Response backwards;
  backwards.seq = 0;
  EXPECT_THROW(log.append_response(backwards), std::logic_error);
}

}  // namespace
}  // namespace corelocate::serve
