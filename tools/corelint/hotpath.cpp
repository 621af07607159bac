#include "hotpath.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "conc.hpp"

namespace corelint {

namespace {

// ------------------------------------------------------------- small helpers

constexpr const char* kMarker = "CORELOCATE_HOT_LOOP";

bool loop_keyword(const std::string& word) {
  return word == "for" || word == "while" || word == "do";
}

/// Types whose by-value copy is O(elements): the std containers the repo
/// uses, std::string, and type-erased std::function (heap + virtual
/// dispatch per copy).
bool heavy_type_name(const std::string& word) {
  static const std::set<std::string> kHeavy = {
      "string",        "basic_string", "vector",   "map",      "multimap",
      "set",           "multiset",     "deque",    "list",     "function",
      "unordered_map", "unordered_set"};
  return kHeavy.count(word) != 0;
}

/// Token range [begin, end): a loop (from its keyword past its body) or
/// a marked brace scope (from '{' past the matching '}').
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool contains(std::size_t t) const { return begin <= t && t < end; }
};

/// Span of the loop whose keyword sits at `t`, or {0,0} when the tokens
/// do not form a loop. A brace body ends at its '}'; a single-statement
/// body at its ';'. A do-loop's span is its brace body (allocations in
/// the trailing `while (...)` condition are not worth the bookkeeping).
Span loop_span(const std::vector<Token>& tokens, std::size_t t) {
  if (tokens[t].is_ident("do")) {
    if (t + 1 >= tokens.size() || !tokens[t + 1].is("{")) return {};
    const std::size_t close = match_group(tokens, t + 1);
    if (close >= tokens.size()) return {};
    return {t, close + 1};
  }
  if (t + 1 >= tokens.size() || !tokens[t + 1].is("(")) return {};
  const std::size_t head_close = match_group(tokens, t + 1);
  if (head_close + 1 >= tokens.size()) return {};
  if (tokens[head_close + 1].is("{")) {
    const std::size_t close = match_group(tokens, head_close + 1);
    if (close >= tokens.size()) return {};
    return {t, close + 1};
  }
  int depth = 0;
  for (std::size_t u = head_close + 1; u < tokens.size(); ++u) {
    if (tokens[u].is("(") || tokens[u].is("{") || tokens[u].is("[")) ++depth;
    if (tokens[u].is(")") || tokens[u].is("}") || tokens[u].is("]")) --depth;
    if (depth == 0 && tokens[u].is(";")) return {t, u + 1};
  }
  return {};
}

/// Innermost brace scope inside `fn` that contains token `t`: a lambda
/// or compound-statement body, falling back to the whole function body.
Span enclosing_scope(const std::vector<Token>& tokens, const FunctionDef& fn,
                     std::size_t t) {
  Span best{fn.body_begin, fn.body_end + 1};
  for (std::size_t u = fn.body_begin + 1; u < t; ++u) {
    if (!tokens[u].is("{")) continue;
    const std::size_t close = match_group(tokens, u);
    if (close >= tokens.size()) continue;
    if (u < t && t < close && close + 1 - u < best.end - best.begin) {
      best = Span{u, close + 1};
    }
    if (close < t) u = close;  // closed before the marker: skip the subtree
  }
  return best;
}

// ------------------------------------------------------------------- corpus

struct UnitHot {
  /// CORELOCATE_HOT_LOOP regions in this unit, with the index of the
  /// function each marker sits in (for perf-span-missing).
  std::vector<Span> marked;
  std::vector<std::pair<std::size_t, std::size_t>> markers;  ///< (token, fn)
};

struct HotState {
  const Corpus& corpus;
  std::vector<UnitHot> infos;
  std::vector<std::vector<bool>> hot;  ///< per unit, per function
};

/// Index of the function whose body contains token `t`, or -1. Function
/// bodies never nest (symbols.cpp records no lambdas), so containment is
/// unambiguous.
int containing_function(const TranslationUnit& unit, std::size_t t) {
  for (std::size_t f = 0; f < unit.functions.size(); ++f) {
    const FunctionDef& fn = unit.functions[f];
    if (fn.body_begin < t && t < fn.body_end) return static_cast<int>(f);
  }
  return -1;
}

/// A bare mention of a defined function's name — the way callables are
/// handed to std::function members, callback parameters and the pool —
/// makes that function hot. Calls, qualified names and member accesses
/// are excluded (calls are resolved by (name, arity) separately).
bool name_mention(const std::vector<Token>& tokens, std::size_t t) {
  if (tokens[t].kind != Token::Kind::kIdent) return false;
  if (is_control_keyword(tokens[t].text)) return false;
  if (t + 1 < tokens.size() &&
      (tokens[t + 1].is("(") || tokens[t + 1].is("::"))) {
    return false;
  }
  if (t > 0 && (tokens[t - 1].is(".") || tokens[t - 1].is("->") ||
                tokens[t - 1].is("::"))) {
    return false;
  }
  return true;
}

/// Collects CORELOCATE_HOT_LOOP markers in one unit: a marker directly
/// before a for/while/do marks that loop, anywhere else it marks its
/// innermost enclosing brace scope.
void find_markers(const TranslationUnit& unit, UnitHot& info) {
  const std::vector<Token>& tokens = unit.tokens;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (!tokens[t].is_ident(kMarker)) continue;
    const int f = containing_function(unit, t);
    if (f < 0) continue;  // file-scope marker: nothing to mark
    info.markers.emplace_back(t, static_cast<std::size_t>(f));
    std::size_t after = t + 1;
    if (after < tokens.size() && tokens[after].is(";")) ++after;
    Span span;
    if (after < tokens.size() && tokens[after].kind == Token::Kind::kIdent &&
        loop_keyword(tokens[after].text)) {
      span = loop_span(tokens, after);
    }
    if (span.end == 0) {
      span = enclosing_scope(tokens, unit.functions[f], t);
    }
    info.marked.push_back(span);
  }
}

/// Resolves the functions reachable from the token range [begin, end)
/// of `tokens`, whose call sites are `calls`: call targets by
/// (name, arity), bare mentions by name at any arity.
void seed_range(const Corpus& corpus, const std::vector<Token>& tokens,
                const std::vector<CallSite>& calls, std::size_t begin,
                std::size_t end, std::vector<FnRef>& out) {
  for (const CallSite& call : calls) {
    const std::vector<FnRef>& callees = corpus.callees(call);
    out.insert(out.end(), callees.begin(), callees.end());
  }
  for (std::size_t t = begin; t < end && t < tokens.size(); ++t) {
    if (!name_mention(tokens, t)) continue;
    const std::vector<FnRef>& named = corpus.named(tokens[t].text);
    out.insert(out.end(), named.begin(), named.end());
  }
}

/// Kleene fixpoint over the hot set: seeds are every function reachable
/// from a marked region; each newly hot function contributes everything
/// reachable from its own body. Hotness only grows, so the worklist
/// drains.
void propagate_hotness(HotState& state) {
  const Corpus& corpus = state.corpus;
  std::vector<FnRef> worklist;
  for (std::size_t u = 0; u < corpus.units.size(); ++u) {
    const std::vector<Token>& tokens = corpus.units[u].tokens;
    for (const Span& span : state.infos[u].marked) {
      seed_range(corpus, tokens,
                 find_calls(tokens, span.begin + 1, std::min(span.end, tokens.size())),
                 span.begin + 1, span.end, worklist);
    }
  }
  while (!worklist.empty()) {
    const FnRef ref = worklist.back();
    worklist.pop_back();
    if (state.hot[ref.first][ref.second]) continue;
    state.hot[ref.first][ref.second] = true;
    const TranslationUnit& unit = corpus.units[ref.first];
    const FunctionDef& fn = unit.functions[ref.second];
    seed_range(corpus, unit.tokens, corpus.calls[ref.first][ref.second],
               fn.body_begin + 1, fn.body_end, worklist);
  }
}

// -------------------------------------------------------------- loop finding

/// One hot loop: its span and the function it sits in.
struct HotLoop {
  Span span;
  std::size_t fn = 0;
};

/// Loops that run hot in one unit: every loop inside a marked region
/// (including the marked loop itself) and every loop in the body of a
/// hot function.
std::vector<HotLoop> hot_loops(const HotState& state, std::size_t u) {
  const UnitHot& info = state.infos[u];
  const TranslationUnit& unit = state.corpus.units[u];
  const std::vector<Token>& tokens = unit.tokens;
  std::vector<HotLoop> loops;
  for (std::size_t f = 0; f < unit.functions.size(); ++f) {
    const FunctionDef& fn = unit.functions[f];
    for (std::size_t t = fn.body_begin + 1; t < fn.body_end; ++t) {
      if (tokens[t].kind != Token::Kind::kIdent) continue;
      if (!loop_keyword(tokens[t].text)) continue;
      bool is_hot = state.hot[u][f];
      for (const Span& span : info.marked) {
        if (is_hot) break;
        is_hot = span.contains(t);
      }
      if (!is_hot) continue;
      const Span span = loop_span(tokens, t);
      if (span.end == 0) continue;
      loops.push_back(HotLoop{span, f});
    }
  }
  return loops;
}

// -------------------------------------------------------------------- rules

/// Identifiers declared with a (std::)string type anywhere in `fn`,
/// including parameters — the operands that make `+=` a reallocation.
std::set<std::string> string_idents(const std::vector<Token>& tokens,
                                    const FunctionDef& fn) {
  std::set<std::string> idents;
  auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t + 1 < end; ++t) {
      if (!tokens[t].is_ident("string")) continue;
      std::size_t v = t + 1;
      if (v < end && tokens[v].is("&")) ++v;
      if (v < end && tokens[v].kind == Token::Kind::kIdent &&
          !is_control_keyword(tokens[v].text)) {
        idents.insert(tokens[v].text);
      }
    }
  };
  scan(fn.params_begin, fn.params_end);
  scan(fn.body_begin + 1, fn.body_end);
  return idents;
}

/// True when the function body contains `base.reserve(` / `base->reserve(`
/// anywhere — the push_back below it amortizes into one allocation.
bool has_reserve(const std::vector<Token>& tokens, const FunctionDef& fn,
                 const std::string& base) {
  for (std::size_t t = fn.body_begin + 1; t + 3 < fn.body_end; ++t) {
    if (tokens[t].kind == Token::Kind::kIdent && tokens[t].text == base &&
        (tokens[t + 1].is(".") || tokens[t + 1].is("->")) &&
        tokens[t + 2].is_ident("reserve") && tokens[t + 3].is("(")) {
      return true;
    }
  }
  return false;
}

void report_alloc_in_hot_loop(const TranslationUnit& unit,
                              const std::vector<HotLoop>& loops, Reporter& report) {
  const SourceFile& file = unit.file;
  const std::vector<Token>& tokens = unit.tokens;
  const std::string rule = "perf-alloc-in-hot-loop";

  for (const HotLoop& loop : loops) {
    const FunctionDef& fn = unit.functions[loop.fn];
    const std::set<std::string> strings = string_idents(tokens, fn);
    for (std::size_t t = loop.span.begin; t < loop.span.end; ++t) {
      const Token& tok = tokens[t];
      if (tok.is_ident("new")) {
        report.emit(file, tok.line, rule,
                    "`new` runs every iteration of a hot loop — allocate once "
                    "outside the loop or use a pooled buffer");
        continue;
      }
      if ((tok.is_ident("make_unique") || tok.is_ident("make_shared")) &&
          t + 1 < loop.span.end &&
          (tokens[t + 1].is("<") || tokens[t + 1].is("("))) {
        report.emit(file, tok.line, rule,
                    "std::" + tok.text +
                        " allocates every iteration of a hot loop — hoist the "
                        "allocation or reuse one object");
        continue;
      }
      if ((tok.is_ident("push_back") || tok.is_ident("emplace_back")) &&
          t >= 2 && (tokens[t - 1].is(".") || tokens[t - 1].is("->")) &&
          tokens[t - 2].kind == Token::Kind::kIdent) {
        const std::string& base = tokens[t - 2].text;
        if (!has_reserve(tokens, fn, base)) {
          report.emit(file, tok.line, rule,
                      "'" + base + "." + tok.text +
                          "' grows inside a hot loop with no visible '" + base +
                          ".reserve(...)' in this function — reserve the capacity "
                          "up front");
        }
        continue;
      }
      // `s += ...` accumulation: the classic quadratic pattern. Binary
      // `+` builds one bounded temporary and is left alone, and a visible
      // `s.reserve(...)` amortizes the appends just like push_back.
      if (tok.is("+=") && t > loop.span.begin) {
        const bool ident_lhs = tokens[t - 1].kind == Token::Kind::kIdent;
        const bool string_lhs =
            ident_lhs && strings.count(tokens[t - 1].text) != 0;
        const bool literal_rhs = t + 1 < loop.span.end &&
                                 tokens[t + 1].kind == Token::Kind::kString;
        if ((string_lhs || literal_rhs) &&
            !(ident_lhs && has_reserve(tokens, fn, tokens[t - 1].text))) {
          report.emit(file, tok.line, rule,
                      "string += inside a hot loop reallocates the accumulator "
                      "every iteration — reserve its capacity, or build the pieces "
                      "outside the loop");
        }
      }
    }
  }
}

void report_copy_in_hot_path(const HotState& state, std::size_t u,
                             const std::vector<HotLoop>& loops, Reporter& report) {
  const TranslationUnit& unit = state.corpus.units[u];
  const SourceFile& file = unit.file;
  const std::vector<Token>& tokens = unit.tokens;
  const std::string rule = "perf-copy-in-hot-path";

  auto heavy_by_value = [&](std::size_t begin,
                            std::size_t end) -> const Token* {
    const Token* heavy = nullptr;
    for (std::size_t t = begin; t < end; ++t) {
      if (tokens[t].is("&") || tokens[t].is("*") || tokens[t].is("&&")) {
        return nullptr;
      }
      if (tokens[t].kind == Token::Kind::kIdent &&
          heavy_type_name(tokens[t].text)) {
        heavy = &tokens[t];
      }
    }
    return heavy;
  };

  // True when the body consumes `name` via std::move — the by-value-then-
  // move sink idiom, which is the recommended way to take ownership.
  // The scan starts at the parameter list's end so constructor member-
  // initializer lists (`: field_(std::move(s))`) count as well.
  auto moved_in_body = [&](const FunctionDef& fn, const std::string& name) {
    for (std::size_t t = fn.params_end; t + 2 < fn.body_end; ++t) {
      if (tokens[t].is_ident("move") && tokens[t + 1].is("(") &&
          tokens[t + 2].kind == Token::Kind::kIdent &&
          tokens[t + 2].text == name) {
        return true;
      }
    }
    return false;
  };

  // Heavy parameters of hot functions, taken by value.
  for (std::size_t f = 0; f < unit.functions.size(); ++f) {
    if (!state.hot[u][f]) continue;
    const FunctionDef& fn = unit.functions[f];
    if (fn.params_begin >= fn.params_end) continue;
    for (const auto& [part_begin, part_end] :
         split_top_level(tokens, fn.params_begin, fn.params_end)) {
      const Token* heavy = heavy_by_value(part_begin, part_end);
      if (heavy == nullptr) continue;
      // The declarator name is the part's final identifier; a heavy-sounding
      // *name* (e.g. a parameter called `map`) is not a heavy *type*.
      const Token* last_ident = nullptr;
      for (std::size_t t = part_begin; t < part_end; ++t) {
        if (tokens[t].kind == Token::Kind::kIdent &&
            !is_control_keyword(tokens[t].text)) {
          last_ident = &tokens[t];
        }
      }
      if (heavy == last_ident) continue;
      if (last_ident != nullptr && moved_in_body(fn, last_ident->text)) {
        continue;
      }
      report.emit(file, heavy->line, rule,
                  "hot function '" + fn.name + "' copies a " + heavy->text +
                      " parameter by value on every call — take it by const "
                      "reference, or std::move it into its destination");
    }
  }

  // By-value range-for over heavy elements inside a hot loop.
  for (const HotLoop& loop : loops) {
    const std::size_t t = loop.span.begin;
    if (!tokens[t].is_ident("for") || !tokens[t + 1].is("(")) continue;
    const std::size_t head_close = match_group(tokens, t + 1);
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t v = t + 2; v < head_close; ++v) {
      if (tokens[v].is("(") || tokens[v].is("{") || tokens[v].is("[")) ++depth;
      if (tokens[v].is(")") || tokens[v].is("}") || tokens[v].is("]")) --depth;
      if (depth == 0 && tokens[v].is(":")) {
        colon = v;
        break;
      }
    }
    if (colon == 0) continue;  // classic three-clause for
    const Token* heavy = heavy_by_value(t + 2, colon);
    if (heavy == nullptr) continue;
    // The loop variable is the final identifier before the ':' — a heavy
    // *name* is not a heavy *type*.
    const Token* last_ident = nullptr;
    for (std::size_t v = t + 2; v < colon; ++v) {
      if (tokens[v].kind == Token::Kind::kIdent &&
          !is_control_keyword(tokens[v].text)) {
        last_ident = &tokens[v];
      }
    }
    if (heavy == last_ident) continue;
    report.emit(file, tokens[t].line, rule,
                "range-for in a hot loop copies each " + heavy->text +
                    " element by value — bind `const auto&`");
  }
}

void report_lock_in_hot_loop(const Corpus& corpus, std::size_t u,
                             const std::vector<HotLoop>& loops, Reporter& report) {
  const TranslationUnit& unit = corpus.units[u];
  const SourceFile& file = unit.file;

  std::set<std::size_t> fns;
  for (const HotLoop& loop : loops) fns.insert(loop.fn);
  for (std::size_t f : fns) {
    const FunctionDef& fn = unit.functions[f];
    const std::vector<LockRegion> regions =
        find_lock_regions(corpus.decls, corpus.stems[u], unit, fn);
    for (const LockRegion& region : regions) {
      if (region.entry) continue;
      for (const HotLoop& loop : loops) {
        if (loop.fn != f) continue;
        if (loop.span.begin < region.begin && region.begin < loop.span.end) {
          report.emit(file, region.line, "perf-lock-in-hot-loop",
                      "acquires '" + region.mutex +
                          "' inside a hot loop — every iteration pays the lock; "
                          "hoist the acquisition or batch the critical section");
          break;
        }
      }
    }
  }
}

void report_span_missing(const TranslationUnit& unit, const UnitHot& info,
                         Reporter& report) {
  const SourceFile& file = unit.file;
  const std::vector<Token>& tokens = unit.tokens;
  for (const auto& [marker, f] : info.markers) {
    const FunctionDef& fn = unit.functions[f];
    bool has_span = false;
    for (std::size_t t = fn.body_begin + 1; t < fn.body_end && !has_span; ++t) {
      has_span = tokens[t].is_ident("Span");
    }
    if (has_span) continue;
    report.emit(file, tokens[marker].line, "perf-span-missing",
                "'" + fn.name +
                    "' marks a hot loop but opens no obs::Span — wrap the work in "
                    "a span so perf reports can attribute its cost");
  }
}

// ----------------------------------------------------------- arch layering

/// The subsystem DAG: an #include may target the same subsystem or a
/// strictly lower layer. Unknown directories (-1) are exempt.
int subsystem_layer(const std::string& name) {
  static const std::map<std::string, int> kLayers = {
      {"util", 0},  {"obs", 1},     {"mesh", 1},  {"msr", 1},
      {"recordio", 1}, {"thermal", 2}, {"cache", 2}, {"ilp", 2},
      {"sim", 3},   {"core", 4},  {"covert", 5},  {"fleet", 5},
      {"serve", 6}, {"corelocate", 7}};
  const auto it = kLayers.find(name);
  return it == kLayers.end() ? -1 : it->second;
}

/// Subsystem of a src/ file ("src/ilp/simplex.cpp" → "ilp"), or "" for
/// anything outside src/ (tests, tools and bench are not layered).
std::string src_subsystem(const std::string& path) {
  const std::string tail = report_path(path);
  if (tail.rfind("src/", 0) != 0) return "";
  const std::size_t slash = tail.find('/', 4);
  if (slash == std::string::npos) return "";
  return tail.substr(4, slash - 4);
}

void report_layering(const std::vector<TranslationUnit>& units, Reporter& report) {
  const std::string rule = "arch-layering";
  for (const TranslationUnit& unit : units) {
    const std::string from = src_subsystem(unit.file.effective_path);
    const int from_layer = subsystem_layer(from);
    if (from.empty() || from_layer < 0) continue;
    for (const IncludeDirective& include : unit.file.includes) {
      if (include.angled) continue;
      const std::size_t slash = include.path.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string to = include.path.substr(0, slash);
      const int to_layer = subsystem_layer(to);
      if (to_layer < 0 || to == from) continue;
      if (to_layer < from_layer) continue;
      report.emit(unit.file, include.line, rule,
                  "'" + from + "' (layer " + std::to_string(from_layer) +
                      ") includes \"" + include.path + "\" from '" + to + "' (layer " +
                      std::to_string(to_layer) +
                      ") — subsystems may only include strictly lower layers "
                      "(util -> obs/mesh/msr/recordio -> thermal/cache/ilp -> "
                      "sim -> core -> covert/fleet -> serve)");
    }
  }

  // Include cycles anywhere in the scanned corpus, via iterative DFS
  // over the resolved include graph. The finding lands on the edge that
  // closes the cycle.
  const IncludeGraph graph = build_include_graph(units);
  std::vector<int> color(units.size(), 0);  // 0 white, 1 gray, 2 black
  for (std::size_t root = 0; root < units.size(); ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack;  // (node, edge)
    stack.emplace_back(root, 0);
    color[root] = 1;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge >= graph.deps[node].size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      const auto [target, line] = graph.deps[node][edge];
      ++edge;
      if (color[target] == 1) {
        // The cycle is the gray stack from `target` down to `node`.
        std::string chain;
        bool in_cycle = false;
        for (const auto& [n, e] : stack) {
          (void)e;
          if (n == target) in_cycle = true;
          if (in_cycle) {
            chain += (chain.empty() ? "" : " -> ") +
                     report_path(units[n].file.effective_path);
          }
        }
        report.emit(units[node].file, line, rule,
                    "#include completes an include cycle (" + chain + " -> " +
                        report_path(units[target].file.effective_path) +
                        ") — break the cycle with a forward declaration or by "
                        "moving the shared piece down a layer");
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        stack.emplace_back(target, 0);
      }
    }
  }
}

}  // namespace

void run_hotpath(const Corpus& corpus, Reporter& report) {
  const std::vector<TranslationUnit>& units = corpus.units;
  HotState state{corpus, std::vector<UnitHot>(units.size()), {}};
  state.hot.resize(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    state.hot[u].assign(units[u].functions.size(), false);
    find_markers(units[u], state.infos[u]);
  }

  propagate_hotness(state);

  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::vector<HotLoop> loops = hot_loops(state, u);
    report_alloc_in_hot_loop(units[u], loops, report);
    report_copy_in_hot_path(state, u, loops, report);
    report_lock_in_hot_loop(corpus, u, loops, report);
    report_span_missing(units[u], state.infos[u], report);
  }
  report_layering(units, report);
}

}  // namespace corelint
