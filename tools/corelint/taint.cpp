#include "taint.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>

namespace corelint {

namespace {

// ------------------------------------------------------------------ taint bits
//
// A taint mask answers "where could this value have come from": bit 0 is
// an ambient nondeterminism source, bit 1+i is parameter i of the
// function under analysis. Parameters past 61 share the last bit — a
// conservative merge nobody in this codebase gets near.

constexpr std::uint64_t kSourceBit = 1ULL;

std::uint64_t param_bit(std::size_t i) {
  return 1ULL << (1 + (i > 61 ? std::size_t{61} : i));
}

/// What a function does with taint, as seen from a call site.
struct Summary {
  std::uint64_t returns_from = 0;            ///< masks flowing into `return`
  std::uint64_t sink_from = 0;               ///< masks reaching a sink inside
  std::vector<std::uint64_t> param_out = {}; ///< masks written through out-params

  bool operator==(const Summary& other) const {
    return returns_from == other.returns_from && sink_from == other.sink_from &&
           param_out == other.param_out;
  }
};

/// Rewrites a callee-relative mask into the caller's frame: the source
/// bit survives as-is, parameter bits become the taint of the matching
/// argument expressions.
std::uint64_t translate(std::uint64_t mask, const std::vector<std::uint64_t>& args) {
  std::uint64_t out = mask & kSourceBit;
  for (std::size_t j = 0; j < args.size(); ++j) {
    if (mask & param_bit(j)) out |= args[j];
  }
  return out;
}

// ------------------------------------------------------------------- sinks

const char* kSinkTypes[] = {"SurveyRecord", "InstanceRecord", "MapStore",
                            "Aggregator",   "TablePrinter",   "ResponseLog",
                            "RecordWriter"};
const char* kSinkCalls[] = {"add_row", "print_csv", "serialize_map", "manifest",
                            "append_manifest", "append_response", "append_row"};

bool sink_type_name(const std::string& word) {
  for (const char* type : kSinkTypes) {
    if (word == type) return true;
  }
  return false;
}

bool sink_call_name(const std::string& word) {
  for (const char* call : kSinkCalls) {
    if (word == call) return true;
  }
  return false;
}

// ------------------------------------------------------- per-unit precompute

struct UnitInfo {
  const TranslationUnit* unit = nullptr;
  bool source_exempt = false;  ///< src/fleet/progress.* — wall-clock is its job
  /// Token index range [begin, end) of each source line.
  std::vector<std::pair<std::size_t, std::size_t>> line_tokens;
  /// Ambient source description per line, or nullptr (tags not applied).
  std::vector<const char*> line_source;
  /// Extra identifier the line's source taints directly (default-seeded
  /// Rng declarations, where no `=` carries the flow).
  std::vector<std::string> line_decl;
  /// Line mentions a sink type / sink call / sink-typed variable.
  std::vector<bool> line_sink;
  /// Sink-typed variables are terminal: taint is reported where it
  /// reaches them, never propagated onward through them.
  std::set<std::string> sink_vars;
  /// Call sites of each function body.
  std::vector<std::vector<CallSite>> fn_calls;
};

/// Variables declared with a sink type: the next identifier after the
/// type name, allowing `&`, `*` and template closers in between
/// (`std::vector<InstanceRecord>& out`). `::` is deliberately excluded
/// so `Aggregator::merge` does not turn `merge` into a sink name.
std::set<std::string> find_sink_vars(const std::vector<Token>& tokens) {
  std::set<std::string> vars;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent || !sink_type_name(tokens[t].text)) {
      continue;
    }
    std::size_t u = t + 1;
    while (u < tokens.size() &&
           (tokens[u].is(">") || tokens[u].is(">>") || tokens[u].is("&") ||
            tokens[u].is("*"))) {
      ++u;
    }
    if (u < tokens.size() && tokens[u].kind == Token::Kind::kIdent &&
        !is_control_keyword(tokens[u].text)) {
      vars.insert(tokens[u].text);
    }
  }
  return vars;
}

UnitInfo make_info(const TranslationUnit& unit) {
  UnitInfo info;
  info.unit = &unit;
  const SourceFile& file = unit.file;
  // Files whose whole job is wall-clock: their internals are not treated
  // as ambient sources (the obs layer / progress meter *define* the
  // sanctioned clock), but values they hand out still taint callers via
  // the obs::Clock detection below.
  info.source_exempt =
      file.effective_path.find("src/fleet/progress.") != std::string::npos ||
      file.effective_path.find("src/obs/") != std::string::npos;

  // Token ranges per line (tokens are emitted in line order).
  info.line_tokens.assign(file.lines.size(), {0, 0});
  for (std::size_t t = 0; t < unit.tokens.size();) {
    const std::size_t line = unit.tokens[t].line;
    std::size_t end = t;
    while (end < unit.tokens.size() && unit.tokens[end].line == line) ++end;
    if (line < info.line_tokens.size()) info.line_tokens[line] = {t, end};
    t = end;
  }

  // Ambient sources.
  info.line_source.assign(file.lines.size(), nullptr);
  info.line_decl.assign(file.lines.size(), std::string());
  static const std::regex kDefaultRng(
      R"(\bRng\s+(\w+)\s*(?:;|\{\s*\})|\bRng\s*\(\s*\)|\bRng\s*\{\s*\})");
  static const std::regex kRangeFor(R"(\bfor\s*\([^;:)]*:\s*([^)]*)\))");
  const std::vector<std::string> unordered = unordered_idents(file);
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (const char* token = ambient_source_token(code)) {
      info.line_source[i] = token;
      continue;
    }
    // obs::Clock is the sanctioned wall-clock: its call sites never fire
    // det-wallclock, but the values it returns ARE wall-clock and taint
    // like any other ambient source — flows into result sinks are still
    // findings unless tagged as pure timing metadata. obs::Span and
    // obs::Registry are deliberately neither sources nor sinks: they are
    // observability channels (timing may flow *into* them and on into
    // perf reports), so mentioning them taints nothing. The same holds
    // for ilp::SolutionCache lookups: cache contents are deterministic
    // solver results keyed on canonical observation signatures (a hit
    // replays a cold solve byte for byte), so a lookup introduces no
    // nondeterminism and a store publishes nothing — but taint carried
    // by OTHER operands of a cache-adjacent expression still propagates
    // (good/bad_taint_solution_cache.cpp pin both directions).
    if (contains_token(code, "Clock")) {
      info.line_source[i] = "obs::Clock wall-clock";
      continue;
    }
    if (contains_token(code, "get_id") || contains_token(code, "this_thread")) {
      info.line_source[i] = "thread id";
      continue;
    }
    std::smatch match;
    if (code.find("Rng") != std::string::npos &&
        std::regex_search(code, match, kDefaultRng)) {
      info.line_source[i] = "default-seeded util::Rng";
      if (match[1].matched) info.line_decl[i] = match[1].str();
      continue;
    }
    if (std::regex_search(code, match, kRangeFor)) {
      const std::string range = match[1].str();
      bool unordered_range = range.find("unordered_") != std::string::npos;
      for (const std::string& ident : unordered) {
        if (unordered_range) break;
        unordered_range = contains_token(range, ident);
      }
      if (unordered_range) info.line_source[i] = "unordered-container iteration order";
    }
  }

  // Sink lines.
  info.sink_vars = find_sink_vars(unit.tokens);
  info.line_sink.assign(file.lines.size(), false);
  for (const Token& tok : unit.tokens) {
    if (tok.kind != Token::Kind::kIdent || tok.line >= info.line_sink.size()) continue;
    if (sink_type_name(tok.text) || sink_call_name(tok.text) ||
        info.sink_vars.count(tok.text) != 0) {
      info.line_sink[tok.line] = true;
    }
  }

  // Call sites per function body.
  info.fn_calls.reserve(unit.functions.size());
  for (const FunctionDef& fn : unit.functions) {
    info.fn_calls.push_back(find_calls(unit.tokens, fn.body_begin + 1, fn.body_end));
  }
  return info;
}

// --------------------------------------------------------------- call graph

using FnKey = std::pair<std::string, int>;
using FnRef = std::pair<std::size_t, std::size_t>;  ///< (unit index, fn index)

struct Corpus {
  std::vector<UnitInfo> infos;
  std::map<FnKey, std::vector<FnRef>> index;  ///< overloads resolve by arity
  std::vector<std::vector<Summary>> summaries;
};

// ------------------------------------------------------------ per-function IR

bool assignment_op(const Token& tok) {
  if (tok.kind != Token::Kind::kPunct) return false;
  static const char* kOps[] = {"=",  "+=", "-=", "*=", "/=",
                               "%=", "&=", "|=", "^="};
  for (const char* op : kOps) {
    if (tok.text == op) return true;
  }
  return false;
}

/// Base identifier of the lvalue chain ending just before `op_index`:
/// `rec.field` → rec, `m[k]` → m, `*out` → out.
std::string chain_base(const std::vector<Token>& tokens, std::size_t line_begin,
                       std::size_t op_index) {
  std::string base;
  std::size_t pos = op_index;
  while (pos > line_begin) {
    const Token& tok = tokens[pos - 1];
    if (tok.is("]")) {
      // Scan back to the matching '['.
      int depth = 0;
      std::size_t scan = pos - 1;
      while (scan > line_begin) {
        if (tokens[scan].is("]")) ++depth;
        if (tokens[scan].is("[")) {
          --depth;
          if (depth == 0) break;
        }
        --scan;
      }
      if (depth != 0) return base;
      pos = scan;
      continue;
    }
    if (tok.kind == Token::Kind::kIdent) {
      base = tok.text;
      if (pos - 1 > line_begin && (tokens[pos - 2].is(".") ||
                                   tokens[pos - 2].is("->") ||
                                   tokens[pos - 2].is("::"))) {
        pos -= 2;
        continue;
      }
      break;
    }
    break;
  }
  return base;
}

/// First identifier in the token range — the object an out-argument like
/// `&ms` or `rec.field` names.
std::string first_ident(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t end) {
  for (std::size_t t = begin; t < end; ++t) {
    if (tokens[t].kind == Token::Kind::kIdent && !is_control_keyword(tokens[t].text)) {
      return tokens[t].text;
    }
  }
  return std::string();
}

/// Loop variable of a range-for on this line: the identifier right
/// before the ':' inside the for parens.
std::string range_for_var(const std::vector<Token>& tokens, std::size_t begin,
                          std::size_t end) {
  for (std::size_t t = begin; t + 1 < end; ++t) {
    if (!tokens[t].is_ident("for") || !tokens[t + 1].is("(")) continue;
    const std::size_t close = match_group(tokens, t + 1);
    std::string last_ident;
    for (std::size_t u = t + 2; u < close && u < end; ++u) {
      if (tokens[u].is(":")) return last_ident;
      if (tokens[u].kind == Token::Kind::kIdent) last_ident = tokens[u].text;
    }
  }
  return std::string();
}

struct AnalyzeContext {
  std::vector<Finding>* report = nullptr;  ///< non-null only on the final pass
  std::set<std::pair<const SourceFile*, std::size_t>>* reported = nullptr;
};

void emit(const AnalyzeContext& ctx, const SourceFile& file, std::size_t line,
          const std::string& message) {
  if (ctx.report == nullptr) return;
  if (!ctx.reported->insert({&file, line}).second) return;
  if (file.suppressed("det-taint-flow", line)) return;
  ctx.report->push_back(
      Finding{file.path, line + 1, "det-taint-flow", message, file.lines[line].code});
}

/// One analysis of a function body given the current callee summaries.
/// Local flow is line-granular: a line's taint is the union of its
/// ambient sources, the taint of every identifier it mentions, and the
/// translated return taint of every call it makes; assignments store the
/// line taint into the lvalue's base identifier. The body is re-walked
/// until the variable map stops changing (loops carry taint backward).
Summary analyze(const Corpus& corpus, std::size_t unit_index, std::size_t fn_index,
                const AnalyzeContext& ctx) {
  const UnitInfo& info = corpus.infos[unit_index];
  const TranslationUnit& unit = *info.unit;
  const SourceFile& file = unit.file;
  const FunctionDef& fn = unit.functions[fn_index];
  const std::vector<Token>& tokens = unit.tokens;

  Summary summary;
  summary.param_out.assign(fn.params.size(), 0);

  std::map<std::string, std::uint64_t> vars;
  for (std::size_t p = 0; p < fn.params.size(); ++p) {
    if (!fn.params[p].name.empty()) vars[fn.params[p].name] |= param_bit(p);
  }

  auto param_index = [&](const std::string& name) -> int {
    for (std::size_t p = 0; p < fn.params.size(); ++p) {
      if (fn.params[p].name == name) return static_cast<int>(p);
    }
    return -1;
  };

  const int kMaxPasses = 8;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    const bool last_pass = pass == kMaxPasses - 1;
    auto taint_var = [&](const std::string& name, std::uint64_t mask) {
      if (name.empty() || mask == 0) return;
      if (info.sink_vars.count(name) != 0) return;  // terminal: reported, not carried
      std::uint64_t& slot = vars[name];
      if ((slot | mask) != slot) {
        slot |= mask;
        changed = true;
      }
      const int p = param_index(name);
      if (p >= 0 && fn.params[static_cast<std::size_t>(p)].is_out) {
        summary.param_out[static_cast<std::size_t>(p)] |= mask;
      }
    };

    for (std::size_t line = fn.begin_line;
         line <= fn.end_line && line < file.lines.size(); ++line) {
      const auto [tb, te] = info.line_tokens[line];
      if (tb == te) continue;
      const SourceLine& source_line = file.lines[line];

      const bool sourced = !info.source_exempt && !source_line.non_deterministic &&
                           info.line_source[line] != nullptr;
      std::uint64_t mask = sourced ? kSourceBit : 0;
      for (std::size_t t = tb; t < te; ++t) {
        if (tokens[t].kind != Token::Kind::kIdent) continue;
        const auto it = vars.find(tokens[t].text);
        if (it != vars.end()) mask |= it->second;
      }
      if (sourced && !info.line_decl[line].empty()) {
        taint_var(info.line_decl[line], kSourceBit);
      }

      // Calls whose name token sits on this line.
      for (const CallSite& call : info.fn_calls[fn_index]) {
        if (call.line != line) continue;
        const auto callees = corpus.index.find({call.name, call.arity});
        if (callees == corpus.index.end()) continue;
        std::vector<std::uint64_t> arg_masks(call.args.size(), 0);
        for (std::size_t j = 0; j < call.args.size(); ++j) {
          for (std::size_t t = call.args[j].first; t < call.args[j].second; ++t) {
            if (tokens[t].kind != Token::Kind::kIdent) continue;
            const auto it = vars.find(tokens[t].text);
            if (it != vars.end()) arg_masks[j] |= it->second;
          }
          // An inline source expression (`f(rand())`) taints every
          // argument of the line's calls — over-approximate but safe.
          if (sourced) arg_masks[j] |= kSourceBit;
        }
        for (const FnRef& ref : callees->second) {
          const Summary& callee = corpus.summaries[ref.first][ref.second];
          mask |= translate(callee.returns_from, arg_masks);
          const std::size_t argc =
              std::min(arg_masks.size(), callee.param_out.size());
          for (std::size_t j = 0; j < argc; ++j) {
            const std::uint64_t out = translate(callee.param_out[j], arg_masks);
            if (out != 0) {
              taint_var(first_ident(tokens, call.args[j].first, call.args[j].second),
                        out);
            }
          }
          const std::uint64_t sunk = translate(callee.sink_from, arg_masks);
          if (sunk & kSourceBit) {
            emit(ctx, file, line,
                 "nondeterministic value flows into a result sink inside '" +
                     call.name +
                     "' — results must be a pure function of the seed (tag the "
                     "source line `corelint: non-deterministic` if it is pure "
                     "timing metadata)");
          }
          summary.sink_from |= sunk & ~kSourceBit;
        }
      }

      // Assignment: taint the lvalue chain's base with the line taint.
      int depth = 0;
      for (std::size_t t = tb; t < te; ++t) {
        const Token& tok = tokens[t];
        if (tok.is("(") || tok.is("[") || tok.is("{")) ++depth;
        if (tok.is(")") || tok.is("]") || tok.is("}")) --depth;
        if (depth == 0 && assignment_op(tok)) {
          taint_var(chain_base(tokens, tb, t), mask);
          break;
        }
      }
      // Range-for declares its loop variable with the range's taint.
      taint_var(range_for_var(tokens, tb, te), mask);

      if (info.line_sink[line]) {
        if (mask & kSourceBit) {
          emit(ctx, file, line,
               "nondeterministic value reaches a result sink (source: " +
                   std::string(sourced ? info.line_source[line]
                                       : "upstream call or variable") +
                   " flows here) — results must be a pure function of the seed");
        }
        summary.sink_from |= mask & ~kSourceBit;
      }
      for (std::size_t t = tb; t < te; ++t) {
        if (tokens[t].is_ident("return") || tokens[t].is_ident("co_return")) {
          summary.returns_from |= mask;
          break;
        }
      }
    }
    if (!changed || last_pass) break;
  }
  return summary;
}

}  // namespace

std::vector<Finding> run_taint(const std::vector<TranslationUnit>& units) {
  Corpus corpus;
  corpus.infos.reserve(units.size());
  for (const TranslationUnit& unit : units) corpus.infos.push_back(make_info(unit));

  corpus.summaries.resize(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    corpus.summaries[u].assign(units[u].functions.size(), Summary{});
    for (std::size_t f = 0; f < units[u].functions.size(); ++f) {
      corpus.summaries[u][f].param_out.assign(units[u].functions[f].params.size(), 0);
      corpus.index[{units[u].functions[f].name, units[u].functions[f].arity}]
          .push_back({u, f});
    }
  }

  // Kleene iteration from bottom: summaries only grow, masks are 64-bit,
  // so the fixed point exists; the cap is a safety net for pathological
  // call graphs.
  const AnalyzeContext quiet;
  for (int iter = 0; iter < 24; ++iter) {
    bool changed = false;
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (std::size_t f = 0; f < units[u].functions.size(); ++f) {
        Summary next = analyze(corpus, u, f, quiet);
        if (!(next == corpus.summaries[u][f])) {
          corpus.summaries[u][f] = std::move(next);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Reporting pass over the stable summaries.
  std::vector<Finding> findings;
  std::set<std::pair<const SourceFile*, std::size_t>> reported;
  AnalyzeContext ctx;
  ctx.report = &findings;
  ctx.reported = &reported;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t f = 0; f < units[u].functions.size(); ++f) {
      analyze(corpus, u, f, ctx);
    }
  }
  return findings;
}

}  // namespace corelint
