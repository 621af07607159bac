#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <regex>

namespace corelint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

void add_finding(std::vector<Finding>& findings, const SourceFile& file,
                 std::size_t line, const std::string& rule,
                 const std::string& message) {
  if (file.suppressed(rule, line)) return;
  findings.push_back(
      Finding{file.path, line + 1, rule, message, file.lines[line].code});
}

// ---------------------------------------------------------------- det-wallclock

void rule_det_wallclock(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "det-wallclock";
  // Sanctioned wall-clock homes: the progress meter (whole job is
  // wall-clock) and the obs layer (obs::Clock is *the* sanctioned source;
  // everything else reads time through it, so ambient-clock tokens only
  // legitimately appear in its implementation).
  if (path_contains(file.effective_path, "src/fleet/progress.")) return;
  if (path_contains(file.effective_path, "src/obs/")) return;

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (line.non_deterministic) continue;
    const char* token = ambient_source_token(line.code);
    if (token == nullptr) continue;
    const std::string name(token);
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "()") == 0) {
      add_finding(findings, file, i, rule,
                  "call to '" + name +
                      "' — ambient time/randomness is outside the "
                      "determinism contract");
    } else {
      add_finding(findings, file, i, rule,
                  "ambient time/entropy source '" + name +
                      "' — results must be a pure function of the seed; tag "
                      "the line `corelint: non-deterministic` if it feeds "
                      "only timing metadata");
    }
  }
}

// --------------------------------------------------------------- det-std-random

void rule_det_std_random(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "det-std-random";
  static const char* kTokens[] = {
      "mt19937",      "mt19937_64",         "minstd_rand",
      "minstd_rand0", "default_random_engine", "knuth_b",
      "ranlux24",     "ranlux48",           "uniform_int_distribution",
      "uniform_real_distribution",          "normal_distribution",
      "bernoulli_distribution",             "discrete_distribution",
      "poisson_distribution",               "exponential_distribution",
  };
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    for (const char* token : kTokens) {
      if (contains_token(line.code, token)) {
        add_finding(findings, file, i, rule,
                    std::string("'std::") + token +
                        "' — <random> engines/distributions vary across "
                        "standard libraries; use util::Rng");
        break;
      }
    }
    if (contains_token(line.code, "shuffle") &&
        line.code.find("std::shuffle") != std::string::npos) {
      add_finding(findings, file, i, rule,
                  "'std::shuffle' ties results to the stdlib's algorithm; use "
                  "util::shuffle (Fisher–Yates over util::Rng)");
    }
  }
}

// ----------------------------------------------------------- det-rng-default-seed

void rule_det_rng_default_seed(const SourceFile& file,
                               std::vector<Finding>& findings) {
  const std::string rule = "det-rng-default-seed";
  // The definition site itself (util/rng.hpp) declares the default.
  if (path_contains(file.effective_path, "util/rng.hpp")) return;
  static const std::regex kDefaultCtor(
      R"(\bRng\s+\w+\s*(?:;|\{\s*\})|\bRng\s*\(\s*\)|\bRng\s*\{\s*\})");
  // Class-member declarations (`util::Rng rng_;`) are seeded in the
  // constructor init list, so the declaration never consumes the default
  // seed. Whether the init list actually seeds it is beyond this lint.
  auto is_member_decl = [&](std::size_t line) {
    return std::any_of(file.classes.begin(), file.classes.end(),
                       [&](const ClassSpan& klass) {
                         return std::find(klass.member_lines.begin(),
                                          klass.member_lines.end(),
                                          line) != klass.member_lines.end();
                       });
  };
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (line.code.find("Rng") == std::string::npos) continue;
    if (is_member_decl(i)) continue;
    if (std::regex_search(line.code, kDefaultCtor)) {
      add_finding(findings, file, i, rule,
                  "default-seeded util::Rng — every RNG consumer takes an "
                  "explicit seed or a util::Rng& parameter");
    }
  }
}

// ------------------------------------------------------------- det-unordered-iter

void rule_det_unordered_iter(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "det-unordered-iter";
  static const char* kSinks[] = {"MapStore", "Aggregator",   "TablePrinter",
                                 "add_row",  "print_csv",    "serialize_map",
                                 "manifest", "RecordWriter", "append_row"};
  const std::vector<std::string> idents = unordered_idents(file);

  auto span_has_sink = [&](const BodySpan& span) {
    for (std::size_t i = span.begin_line; i <= span.end_line; ++i) {
      for (const char* sink : kSinks) {
        if (contains_token(file.lines[i].code, sink)) return true;
      }
    }
    return false;
  };
  auto enclosing_sink = [&](std::size_t line) {
    return std::any_of(file.bodies.begin(), file.bodies.end(),
                       [&](const BodySpan& span) {
                         return span.begin_line <= line && line <= span.end_line &&
                                span_has_sink(span);
                       });
  };

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    // Range-for over an unordered identifier or unordered temporary.
    static const std::regex kRangeFor(R"(\bfor\s*\([^;:)]*:\s*([^)]*)\))");
    std::smatch match;
    bool hit = false;
    std::string culprit;
    if (std::regex_search(code, match, kRangeFor)) {
      const std::string range = match[1].str();
      if (range.find("unordered_") != std::string::npos) {
        hit = true;
        culprit = "an unordered container";
      } else {
        for (const std::string& ident : idents) {
          if (contains_token(range, ident)) {
            hit = true;
            culprit = "'" + ident + "'";
            break;
          }
        }
      }
    }
    if (!hit) {
      // Iterator-based loops: ident.begin() on an unordered identifier.
      for (const std::string& ident : idents) {
        if (code.find(ident + ".begin()") != std::string::npos ||
            code.find(ident + ".cbegin()") != std::string::npos) {
          hit = true;
          culprit = "'" + ident + "'";
          break;
        }
      }
    }
    if (hit && enclosing_sink(i)) {
      add_finding(findings, file, i, rule,
                  "iteration over " + culprit +
                      " (unordered) in a function that feeds a result sink — "
                      "hash order leaks into output; use std::map/std::set or "
                      "sort first");
    }
  }
}

// ------------------------------------------------------------- conc-guarded-field

void rule_conc_guarded_field(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "conc-guarded-field";
  // Scope: headers of the concurrent fleet layer. Value structs (struct
  // keyword) are exempt; see docs/ANALYSIS.md.
  if (!path_contains(file.effective_path, "src/fleet/")) return;
  const std::string& path = file.effective_path;
  if (path.size() < 4 || path.compare(path.size() - 4, 4, ".hpp") != 0) return;

  for (const ClassSpan& klass : file.classes) {
    if (klass.has_sync_member) continue;  // explicit synchronization story
    for (std::size_t line : klass.member_lines) {
      const SourceLine& source_line = file.lines[line];
      if (source_line.owned_by) continue;
      // const members are immutable after construction.
      const std::string& code = source_line.code;
      const std::size_t first = code.find_first_not_of(" \t");
      if (first != std::string::npos &&
          (code.compare(first, 6, "const ") == 0 ||
           code.compare(first, 10, "constexpr ") == 0)) {
        continue;
      }
      add_finding(findings, file, line, rule,
                  "mutable field of fleet class '" + klass.name +
                      "' has no synchronization story — guard it with a "
                      "mutex/atomic or annotate `corelint: owned-by(<owner>)`");
    }
  }
}

// ----------------------------------------------------------------- hyg-naked-new

void rule_hyg_naked_new(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "hyg-naked-new";
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    std::size_t pos = 0;
    while ((pos = find_token(code, "new", pos)) != std::string::npos) {
      // `= new X`, `(new X`, `return new X` — any expression use. Skip
      // placement-like `new (` only when suppressed explicitly; the
      // codebase has no placement new.
      add_finding(findings, file, i, rule,
                  "naked `new` — own allocations with std::make_unique or a "
                  "container");
      break;
    }
  }
}

// ------------------------------------------------------------ hyg-narrowing-cast

void rule_hyg_narrowing_cast(const SourceFile& file, std::vector<Finding>& findings) {
  const std::string rule = "hyg-narrowing-cast";
  if (!path_contains(file.effective_path, "src/ilp/")) return;
  static const std::regex kCStyle(
      R"(\((?:int|short|long|float|unsigned|char|std::u?int(?:8|16|32|64)_t)\s*\)\s*[\w(])");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (std::regex_search(code, kCStyle)) {
      add_finding(findings, file, i, rule,
                  "C-style arithmetic cast in ILP hot path — use an explicit "
                  "width-preserving static_cast (and justify any narrowing)");
      continue;
    }
    if (code.find("static_cast<float>") != std::string::npos) {
      add_finding(findings, file, i, rule,
                  "cast to float in ILP hot path — the solver's tolerances "
                  "assume double precision throughout");
    }
  }
}

}  // namespace

const char* ambient_source_token(const std::string& code) {
  static const char* kTokens[] = {
      "random_device", "system_clock",  "high_resolution_clock",
      "steady_clock",  "gettimeofday",  "localtime",
      "gmtime",        "srand",
  };
  for (const char* token : kTokens) {
    if (contains_token(code, token)) return token;
  }
  // Calls of ::time(...) / std::time(...) / rand() / clock(): a bare
  // token directly followed by '(' that is neither a member access nor
  // a declaration of a same-named method (`double time() const`, which
  // is preceded by its return type).
  static const char* kCallNames[] = {"time", "clock", "rand"};
  static const char* kCallLabels[] = {"time()", "clock()", "rand()"};
  for (std::size_t c = 0; c < 3; ++c) {
    const char* call = kCallNames[c];
    std::size_t pos = 0;
    while ((pos = find_token(code, call, pos)) != std::string::npos) {
      const std::size_t end = pos + std::string(call).size();
      const bool is_call = end < code.size() && code[end] == '(';
      const bool member =
          pos > 0 && (code[pos - 1] == '.' ||
                      (pos > 1 && code[pos - 1] == '>' && code[pos - 2] == '-'));
      const bool qualified_other =
          pos >= 2 && code.compare(pos - 2, 2, "::") == 0 &&
          !(pos >= 5 && code.compare(pos - 5, 5, "std::") == 0);
      std::size_t before = pos;
      while (before > 0 && (code[before - 1] == ' ' || code[before - 1] == '\t')) {
        --before;
      }
      const bool declaration = before > 0 && ident_char(code[before - 1]) &&
                               pos > before;  // `type time(`: token after a type
      if (is_call && !member && !qualified_other && !declaration) {
        return kCallLabels[c];
      }
      pos = end;
    }
  }
  return nullptr;
}

std::vector<std::string> unordered_idents(const SourceFile& file) {
  std::vector<std::string> idents;
  static const std::regex kDecl(
      R"(unordered_(?:map|set|multimap|multiset)\b[^;={]*[>\s&*]\s*(\w+)\s*[;={(])");
  for (const SourceLine& line : file.lines) {
    if (line.code.find("unordered_") == std::string::npos) continue;
    std::smatch match;
    std::string rest = line.code;
    while (std::regex_search(rest, match, kDecl)) {
      idents.push_back(match[1].str());
      rest = match.suffix().str();
    }
  }
  return idents;
}

std::string report_path(const std::string& path) {
  static const char* kMarkers[] = {"src/", "bench/", "examples/", "tests/", "tools/"};
  std::size_t best = std::string::npos;
  for (const char* marker : kMarkers) {
    const std::size_t pos = path.rfind(marker);
    if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) {
      if (best == std::string::npos || pos < best) best = pos;
    }
  }
  return best == std::string::npos ? path : path.substr(best);
}

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"det-wallclock",
       "ambient time/randomness source outside the determinism contract"},
      {"det-std-random",
       "<random> engine/distribution or std::shuffle — use util::Rng"},
      {"det-rng-default-seed",
       "util::Rng constructed without an explicit seed in library code"},
      {"det-unordered-iter",
       "iteration over std::unordered_{map,set} near a result sink"},
      {"det-taint-flow",
       "nondeterministic value reaches a result sink, possibly cross-TU"},
      {"conc-guarded-field",
       "fleet class data member with no synchronization story"},
      {"conc-rank-inversion",
       "static path acquires a lock rank not above every held rank"},
      {"conc-unguarded-access",
       "CORELOCATE_GUARDED_BY field touched without its mutex held"},
      {"conc-phase-escape",
       "CORELOCATE_SERIAL_PHASE function reachable from a pool task"},
      {"conc-ref-capture",
       "pool task captures stack locals by reference without a join"},
      {"hyg-naked-new",
       "naked `new` — use std::make_unique or a container"},
      {"hyg-narrowing-cast",
       "C-style arithmetic cast or float cast in ILP solver code"},
      {"perf-alloc-in-hot-loop",
       "allocation (new/make_*/push_back sans reserve/string concat) in a "
       "hot loop"},
      {"perf-copy-in-hot-path",
       "heavy parameter or range-for element copied by value on a hot path"},
      {"perf-lock-in-hot-loop",
       "lock acquired inside a hot loop body — hoist or restructure"},
      {"perf-span-missing",
       "CORELOCATE_HOT_LOOP function publishes no obs::Span"},
      {"arch-layering",
       "#include violates subsystem layering or forms an include cycle"},
  };
  return kRules;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(rule_table().size());
    for (const RuleInfo& rule : rule_table()) names.emplace_back(rule.name);
    return names;
  }();
  return kNames;
}

std::vector<Finding> run_rules(const SourceFile& file) {
  std::vector<Finding> findings;
  rule_det_wallclock(file, findings);
  rule_det_std_random(file, findings);
  rule_det_rng_default_seed(file, findings);
  rule_det_unordered_iter(file, findings);
  rule_conc_guarded_field(file, findings);
  rule_hyg_naked_new(file, findings);
  rule_hyg_narrowing_cast(file, findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

}  // namespace corelint
