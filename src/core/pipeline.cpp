#include "core/pipeline.hpp"

#include "obs/trace.hpp"

namespace corelocate::core {

LocateOptions options_for(const sim::ModelSpec& spec) {
  LocateOptions options;
  options.grid_rows = spec.die.rows;
  options.grid_cols = spec.die.cols;
  return options;
}

LocateResult locate_cores(sim::VirtualXeon& cpu, util::Rng& rng,
                          const LocateOptions& options) {
  LocateResult result;

  // Wall-clock timing (obs::Span over obs::Clock) feeds step_*_seconds
  // metadata and the tracer only, never the reconstructed map.
  obs::Span pipeline_span("locate_cores", "core");

  {
    obs::Span span("cha_mapping", "core");
    ChaMapper mapper(cpu, rng, options.mapper);
    result.cha_mapping = mapper.map();
    span.arg("chas", obs::Json(result.cha_mapping.os_core_to_cha.size()));
    result.step1_seconds = span.stop();
  }

  {
    obs::Span span("traffic_probe", "core");
    TrafficProber prober(cpu, options.probe);
    result.observations = prober.probe_all(result.cha_mapping);
    span.arg("observations", obs::Json(result.observations.size()));
    result.step2_seconds = span.stop();
  }

  MapSolveResult solved;
  {
    obs::Span span("map_solve", "core");
    solved = MapSolver(options.engine, options.grid_rows, options.grid_cols,
                       options.ilp, options.decomposed)
                 .solve(result.observations, cpu.cha_count(), options.solution_cache);
    span.arg("nodes", obs::Json(solved.nodes));
    span.arg("lp_iterations", obs::Json(solved.lp_iterations));
    result.step3_seconds = span.stop();
  }
  result.solver_nodes = solved.nodes;
  result.solver_lp_iterations = solved.lp_iterations;
  result.solver_nodes_pruned = solved.nodes_pruned;
  result.solver_lp_solves_avoided = solved.lp_solves_avoided;
  result.cache_hit = solved.cache_hit;

  if (!solved.success) {
    result.message = "solver failed: " + solved.message;
    return result;
  }

  result.map.rows = options.grid_rows;
  result.map.cols = options.grid_cols;
  result.map.cha_position = std::move(solved.cha_position);
  result.map.os_core_to_cha = result.cha_mapping.os_core_to_cha;
  result.map.llc_only_chas = result.cha_mapping.llc_only_chas;
  result.map.ppin = msr::PmonDriver(cpu.msr()).read_ppin();
  result.success = true;
  result.message = solved.message;
  return result;
}

}  // namespace corelocate::core
