// corelocate_tool — the command-line face of the library, mirroring how
// the paper's released artifact is used in practice.
//
//   corelocate_tool map      --db maps.rio [--model 8259CL] [--seed N]
//                            [--engine decomposed|ilp|refined]
//       locate a machine's cores (root phase) and store the map by PPIN
//   corelocate_tool list     --db maps.rio
//       list every mapped machine
//   corelocate_tool show     --db maps.rio --ppin HEX
//       render a stored map
//   corelocate_tool verify   --db maps.rio [--seed N]
//       re-map the machine and check the stored map still matches
//       (maps are permanent per physical CPU)
//
// The database is a recordio segment of core maps keyed by PPIN
// (core::MapStore). A missing file is an empty database; a damaged one
// fails every command with exit 1, so `map` never replaces it.
//
// In this reproduction the "machine" is the simulator; on hardware the
// same flow would run against /dev/cpu/*/msr.

#include <charconv>
#include <iostream>

#include "core/map_store.hpp"
#include "core/pipeline.hpp"
#include "serve/loadgen.hpp"
#include "util/cli.hpp"

using namespace corelocate;

namespace {

/// The --model flag as a SKU; throws on an unknown token.
sim::XeonModel model_flag(const util::CliFlags& flags) {
  const std::string name = flags.get("model", "8259CL");
  sim::XeonModel model{};
  if (!serve::parse_model_token(name, model)) {
    throw std::invalid_argument("unknown model: " + name);
  }
  return model;
}

/// The whole --ppin token as hex, with an optional 0x prefix; signs,
/// stray bytes and values past 64 bits are refused, never truncated.
bool parse_ppin(const std::string& text, std::uint64_t& ppin) {
  const bool prefixed = text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0;
  const char* const begin = text.data() + (prefixed ? 2 : 0);
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(begin, end, ppin, 16);
  return begin != end && error == std::errc{} && stop == end;
}

int cmd_map(const util::CliFlags& flags) {
  const std::string db = flags.get("db", "corelocate-maps.db");
  const sim::XeonModel model = model_flag(flags);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string engine_name = flags.get("engine", "refined");
  core::SolverEngine engine{};
  if (!core::parse_engine_token(engine_name, engine)) {
    throw std::invalid_argument("unknown engine: " + engine_name);
  }

  core::MapStore store = core::MapStore::load_file(db);

  sim::InstanceFactory factory;
  util::Rng rng(seed);
  const sim::InstanceConfig machine = factory.make_instance(model, rng);
  sim::VirtualXeon cpu(machine);
  util::Rng tool_rng(seed ^ 0x70011ULL);
  core::LocateOptions options = core::options_for(sim::spec_for(model));
  options.engine = engine;
  const core::LocateResult result = core::locate_cores(cpu, tool_rng, options);
  if (!result.success) {
    std::cerr << "mapping failed: " << result.message << "\n";
    return 1;
  }
  store.put(result.map);
  store.save_file(db);
  std::cout << "mapped " << sim::to_string(model) << " (PPIN 0x" << std::hex
            << result.map.ppin << std::dec << ", " << result.message << ")\n"
            << result.map.render() << "stored in " << db << " ("
            << store.size() << " machines)\n";
  return 0;
}

int cmd_list(const util::CliFlags& flags) {
  const core::MapStore store =
      core::MapStore::load_file(flags.get("db", "corelocate-maps.db"));
  if (store.size() == 0) {
    std::cout << "(no machines mapped yet)\n";
    return 0;
  }
  for (std::uint64_t ppin : store.ppins()) {
    const core::CoreMap map = *store.get(ppin);
    std::cout << "0x" << std::hex << ppin << std::dec << "  "
              << map.os_core_to_cha.size() << " cores, " << map.cha_count()
              << " CHAs, grid " << map.rows << "x" << map.cols << "\n";
  }
  return 0;
}

int cmd_show(const util::CliFlags& flags) {
  if (!flags.has("ppin")) {
    std::cerr << "show requires --ppin HEX\n";
    return 1;
  }
  const std::string ppin_hex = flags.get("ppin", "");
  std::uint64_t ppin = 0;
  if (!parse_ppin(ppin_hex, ppin)) {
    std::cerr << "bad --ppin '" << ppin_hex << "': expected a 64-bit hex number\n";
    return 1;
  }
  const core::MapStore store =
      core::MapStore::load_file(flags.get("db", "corelocate-maps.db"));
  const auto map = store.get(ppin);
  if (!map.has_value()) {
    std::cerr << "no map stored for PPIN 0x" << std::hex << ppin << std::dec << "\n";
    return 1;
  }
  std::cout << map->render();
  return 0;
}

int cmd_verify(const util::CliFlags& flags) {
  const std::string db = flags.get("db", "corelocate-maps.db");
  const sim::XeonModel model = model_flag(flags);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  sim::InstanceFactory factory;
  util::Rng rng(seed);
  const sim::InstanceConfig machine = factory.make_instance(model, rng);
  sim::VirtualXeon cpu(machine);
  const std::uint64_t ppin = msr::PmonDriver(cpu.msr()).read_ppin();
  const core::MapStore store = core::MapStore::load_file(db);
  const auto stored = store.get(ppin);
  if (!stored.has_value()) {
    std::cerr << "machine 0x" << std::hex << ppin << std::dec
              << " not in the database — run `map` first\n";
    return 1;
  }
  util::Rng tool_rng(seed ^ 0x7E21F1ULL);
  core::LocateOptions options = core::options_for(sim::spec_for(model));
  options.engine = core::SolverEngine::kRefined;
  const core::LocateResult fresh = core::locate_cores(cpu, tool_rng, options);
  if (!fresh.success) {
    std::cerr << "re-mapping failed: " << fresh.message << "\n";
    return 1;
  }
  const bool match = fresh.map.pattern_key() == stored->pattern_key();
  std::cout << "machine 0x" << std::hex << ppin << std::dec << ": stored map "
            << (match ? "CONFIRMED" : "DIFFERS") << "\n";
  return match ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::FlagSpec spec("corelocate_tool map|list|show|verify",
                        "Manage a map-store DB of solved core maps: map an "
                        "instance, list/show stored maps, verify one.");
    spec.add("db", "FILE", "map-store database file")
        .add("model", "SKU", "CPU model: 8124M, 8175M, 8259CL or 6354")
        .add("seed", "N", "instance seed (map command)")
        .add("engine", "NAME",
             "solver engine: " + core::engine_tokens() + " (default refined)")
        .add("ppin", "HEX", "instance PPIN (show/verify commands)");
    const util::CliFlags flags(argc, argv);
    if (flags.handle_help(spec, std::cout)) return 0;
    if (flags.positional().empty()) {
      std::cerr << spec.usage();
      return 1;
    }
    const std::string& command = flags.positional().front();
    if (command == "map") return cmd_map(flags);
    if (command == "list") return cmd_list(flags);
    if (command == "show") return cmd_show(flags);
    if (command == "verify") return cmd_verify(flags);
    std::cerr << "unknown command: " << command << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
