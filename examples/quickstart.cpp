// Quickstart: rent a (simulated) bare-metal Xeon, physically locate its
// cores, and print the recovered tile map.
//
//   $ ./quickstart [--model 8124M|8175M|8259CL|6354] [--seed N]
//                  [--engine decomposed|ilp|refined]
//
// The example also peeks at the simulator's ground truth — something a
// real attacker cannot do — to show that the recovered map is right.

#include <iostream>

#include "core/pipeline.hpp"
#include "serve/loadgen.hpp"
#include "util/cli.hpp"

using namespace corelocate;

int main(int argc, char** argv) {
  util::FlagSpec spec("quickstart",
                      "Locate the cores of one simulated instance end to end "
                      "(probe, solve, render the recovered map).");
  spec.add("model", "SKU", "CPU model: 8124M, 8175M, 8259CL or 6354")
      .add("seed", "N", "instance seed")
      .add("engine", "NAME",
           "solver engine: " + core::engine_tokens() + " (default decomposed)");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  sim::XeonModel model{};
  const std::string model_name = flags.get("model", "8259CL");
  if (!serve::parse_model_token(model_name, model)) {
    std::cerr << "quickstart: unknown model: " << model_name << "\n";
    return 1;
  }
  core::SolverEngine engine{};
  const std::string engine_name = flags.get("engine", "decomposed");
  if (!core::parse_engine_token(engine_name, engine)) {
    std::cerr << "quickstart: unknown engine: " << engine_name << " (expected "
              << core::engine_tokens() << ")\n";
    return 1;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  // --- "rent" a machine -------------------------------------------------
  sim::InstanceFactory factory;
  util::Rng rng(seed);
  const sim::InstanceConfig machine = factory.make_instance(model, rng);
  sim::VirtualXeon cpu(machine);
  std::cout << "booted a " << sim::to_string(model) << " with "
            << cpu.os_core_count() << " cores and " << cpu.cha_count()
            << " CHAs\n";

  // --- run the three-step locating pipeline ------------------------------
  util::Rng tool_rng(seed ^ 0xD15C0ULL);
  core::LocateOptions options = core::options_for(sim::spec_for(model));
  options.engine = engine;
  // Keep the faithful ILP interactive; the other engines ignore these.
  options.ilp.objective = core::IlpObjective::kCompactSum;
  options.ilp.max_observations = 40;
  const core::LocateResult result = core::locate_cores(cpu, tool_rng, options);
  if (!result.success) {
    std::cout << "locating failed: " << result.message << "\n";
    return 1;
  }

  std::cout << "\nPPIN (unique chip id):    0x" << std::hex << result.map.ppin
            << std::dec << "\n";
  std::cout << "step 1 (OS<->CHA map):    " << result.step1_seconds << " s\n"
            << "step 2 (traffic probes):  " << result.step2_seconds << " s ("
            << result.observations.size() << " probes)\n"
            << "step 3 (map solve):       " << result.step3_seconds << " s\n";

  std::cout << "\nrecovered core map (os-core-id / cha-id, '-' = LLC-only):\n"
            << result.map.render();

  // --- cheat: compare against the simulator's ground truth ---------------
  const core::MapAccuracy acc = core::score_against_truth(result.map, machine);
  std::cout << "\nground-truth check: " << acc.core_tiles_correct << "/"
            << acc.core_tiles_total << " core tiles exact"
            << (acc.mirrored ? " (up to the inherent horizontal mirror)" : "") << "\n";
  return 0;
}
