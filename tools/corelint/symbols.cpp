#include "symbols.hpp"

#include <cstdlib>
#include <set>
#include <utility>

namespace corelint {

namespace {

/// Keywords that may directly precede '(' in places that are neither
/// calls nor definitions (beyond the shared control keywords).
bool non_function_word(const std::string& word) {
  static const std::set<std::string> kWords = {"constexpr", "alignas", "requires"};
  return is_control_keyword(word) || kWords.count(word) != 0;
}

bool qualifier_word(const std::string& word) {
  static const std::set<std::string> kWords = {"const", "noexcept", "override",
                                               "final", "mutable"};
  return kWords.count(word) != 0;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> split_top_level(
    const std::vector<Token>& tokens, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  if (begin >= end) return parts;
  int depth = 0;
  int angle = 0;
  std::size_t part_begin = begin;
  for (std::size_t t = begin; t < end; ++t) {
    const Token& tok = tokens[t];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
      if (tok.text == ")" || tok.text == "]" || tok.text == "}") --depth;
      if (tok.text == "<") ++angle;
      if (tok.text == ">" && angle > 0) --angle;
      if (tok.text == ">>" && angle > 0) angle = angle >= 2 ? angle - 2 : 0;
      if (tok.text == "," && depth == 0 && angle == 0) {
        parts.emplace_back(part_begin, t);
        part_begin = t + 1;
      }
    }
  }
  parts.emplace_back(part_begin, end);
  return parts;
}

namespace {

Param parse_param(const std::vector<Token>& tokens, std::size_t begin,
                  std::size_t end) {
  Param param;
  // Cut at the first top-level '=' (default argument).
  std::size_t cut = end;
  int depth = 0;
  for (std::size_t t = begin; t < end; ++t) {
    const Token& tok = tokens[t];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
      if (tok.text == ")" || tok.text == "]" || tok.text == "}") --depth;
      if (tok.text == "=" && depth == 0) {
        cut = t;
        break;
      }
    }
  }
  bool has_const = false;
  bool has_indirection = false;
  for (std::size_t t = begin; t < cut; ++t) {
    const Token& tok = tokens[t];
    if (tok.is_ident("const")) has_const = true;
    if (tok.is("&") || tok.is("*")) has_indirection = true;
    if (tok.kind == Token::Kind::kIdent && !qualifier_word(tok.text)) {
      param.name = tok.text;  // last identifier wins (the declarator)
    }
  }
  param.is_out = has_indirection && !has_const;
  return param;
}

}  // namespace

std::size_t match_group(const std::vector<Token>& tokens, std::size_t open) {
  if (open >= tokens.size()) return tokens.size();
  const std::string& open_text = tokens[open].text;
  const std::string close_text =
      open_text == "(" ? ")" : open_text == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t t = open; t < tokens.size(); ++t) {
    if (tokens[t].is(open_text.c_str())) ++depth;
    if (tokens[t].is(close_text.c_str())) {
      --depth;
      if (depth == 0) return t;
    }
  }
  return tokens.size();
}

std::vector<CallSite> find_calls(const std::vector<Token>& tokens, std::size_t begin,
                                 std::size_t end) {
  std::vector<CallSite> calls;
  for (std::size_t t = begin; t + 1 < end; ++t) {
    if (tokens[t].kind != Token::Kind::kIdent) continue;
    if (!tokens[t + 1].is("(")) continue;
    if (non_function_word(tokens[t].text)) continue;
    const std::size_t close = match_group(tokens, t + 1);
    if (close >= tokens.size()) continue;
    CallSite call;
    call.name = tokens[t].text;
    call.line = tokens[t].line;
    call.name_index = t;
    if (close > t + 2) {
      call.args = split_top_level(tokens, t + 2, close);
    }
    call.arity = static_cast<int>(call.args.size());
    calls.push_back(std::move(call));
  }
  return calls;
}

TranslationUnit make_unit(SourceFile file) {
  TranslationUnit unit;
  unit.file = std::move(file);
  unit.tokens = tokenize(unit.file);
  const std::vector<Token>& tokens = unit.tokens;

  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent) continue;
    if (!tokens[t + 1].is("(")) continue;
    if (non_function_word(tokens[t].text)) continue;
    // Annotation macros carry argument lists but are never definitions.
    if (tokens[t].text.rfind("CORELOCATE_", 0) == 0) continue;
    const std::size_t params_close = match_group(tokens, t + 1);
    if (params_close >= tokens.size()) continue;

    // Walk past qualifiers, annotation macros, a trailing return type and
    // a constructor init list; a function definition is confirmed by a '{'.
    std::size_t u = params_close + 1;
    bool rejected = false;
    std::vector<std::string> requires_locks;
    bool serial_phase = false;
    while (u < tokens.size()) {
      const Token& tok = tokens[u];
      if (tok.kind == Token::Kind::kIdent && qualifier_word(tok.text)) {
        ++u;
        continue;
      }
      // CORELOCATE_* annotation macros (util/lockcheck.hpp) sit between
      // the parameter list and the body; REQUIRES carries the lockset
      // the function is entered with, SERIAL_PHASE marks serial-only
      // functions. Other annotations (and their argument groups) skip.
      if (tok.kind == Token::Kind::kIdent &&
          tok.text.rfind("CORELOCATE_", 0) == 0) {
        if (tok.text == "CORELOCATE_SERIAL_PHASE") serial_phase = true;
        ++u;
        if (u < tokens.size() && tokens[u].is("(")) {
          const std::size_t group_close = match_group(tokens, u);
          if (tok.text == "CORELOCATE_REQUIRES") {
            // The final identifier of each argument path names the mutex
            // (`util::lockcheck::m` → m, `this->m_` → m_).
            for (const auto& [part_begin, part_end] :
                 split_top_level(tokens, u + 1, group_close)) {
              std::string last;
              for (std::size_t a = part_begin; a < part_end; ++a) {
                if (tokens[a].kind == Token::Kind::kIdent) last = tokens[a].text;
              }
              if (!last.empty()) requires_locks.push_back(std::move(last));
            }
          }
          u = group_close + 1;
        }
        continue;
      }
      if (tok.is_ident("noexcept") && u + 1 < tokens.size() && tokens[u + 1].is("(")) {
        u = match_group(tokens, u + 1) + 1;
        continue;
      }
      if (tok.is("->")) {
        // Trailing return type: consume until the body '{' or a ';'.
        ++u;
        int depth = 0;
        while (u < tokens.size()) {
          const Token& trail = tokens[u];
          if (trail.is("(") || trail.is("[")) ++depth;
          if (trail.is(")") || trail.is("]")) --depth;
          if (depth == 0 && (trail.is("{") || trail.is(";"))) break;
          ++u;
        }
        continue;
      }
      if (tok.is(":")) {
        // Constructor init list: `name(args)` / `name{args}` items
        // separated by commas, then the body brace.
        ++u;
        while (u < tokens.size()) {
          while (u < tokens.size() && !tokens[u].is("(") && !tokens[u].is("{") &&
                 !tokens[u].is(";")) {
            ++u;
          }
          if (u >= tokens.size() || tokens[u].is(";")) {
            rejected = true;
            break;
          }
          u = match_group(tokens, u) + 1;
          if (u < tokens.size() && tokens[u].is(",")) {
            ++u;
            continue;
          }
          break;
        }
        continue;
      }
      break;
    }
    if (rejected || u >= tokens.size() || !tokens[u].is("{")) continue;
    const std::size_t body_close = match_group(tokens, u);
    if (body_close >= tokens.size()) continue;

    FunctionDef fn;
    fn.name = tokens[t].text;
    fn.requires_locks = std::move(requires_locks);
    fn.serial_phase = serial_phase;
    fn.begin_line = tokens[u].line;
    fn.end_line = tokens[body_close].line;
    fn.body_begin = u;
    fn.body_end = body_close;
    fn.params_begin = t + 2;
    fn.params_end = params_close;
    if (params_close > t + 2) {
      for (const auto& [part_begin, part_end] :
           split_top_level(tokens, t + 2, params_close)) {
        if (part_begin >= part_end) continue;
        if (part_end - part_begin == 1 && tokens[part_begin].is_ident("void")) {
          continue;
        }
        if (part_end - part_begin == 1 && tokens[part_begin].is("...")) continue;
        fn.params.push_back(parse_param(tokens, part_begin, part_end));
      }
    }
    fn.arity = static_cast<int>(fn.params.size());
    unit.functions.push_back(std::move(fn));
    // Resume past this body: `member(init)` items of a constructor init
    // list and call-looking tokens inside the body would otherwise be
    // recorded as bogus sibling "functions" sharing the same '{'.
    // Nothing definable nests inside a function body except lambdas,
    // which this layer never records anyway.
    t = body_close;
  }
  return unit;
}

IncludeGraph build_include_graph(const std::vector<TranslationUnit>& units) {
  IncludeGraph graph;
  graph.deps.resize(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const IncludeDirective& include : units[u].file.includes) {
      if (include.angled || include.path.empty()) continue;
      for (std::size_t v = 0; v < units.size(); ++v) {
        const std::string& target = units[v].file.effective_path;
        if (target.size() < include.path.size()) continue;
        const std::size_t tail = target.size() - include.path.size();
        if (target.compare(tail, include.path.size(), include.path) != 0) continue;
        if (tail != 0 && target[tail - 1] != '/') continue;
        graph.deps[u].emplace_back(v, include.line);
      }
    }
  }
  return graph;
}

/// Index one past the '>' matching the '<' at `open`; tokens.size() when
/// the statement ends before it balances (then it was not a template-id).
std::size_t skip_angles(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t t = open; t < tokens.size(); ++t) {
    const Token& tok = tokens[t];
    if (tok.is("<")) {
      ++depth;
    } else if (tok.is(">")) {
      if (--depth <= 0) return t + 1;
    } else if (tok.is(">>")) {
      depth -= 2;
      if (depth <= 0) return t + 1;
    } else if (tok.is("(")) {
      t = match_group(tokens, t);
      if (t >= tokens.size()) break;
    } else if (tok.is(";") || tok.is("{")) {
      break;
    }
  }
  return tokens.size();
}

std::string last_ident(const std::vector<Token>& tokens, std::size_t begin,
                       std::size_t end) {
  std::string last;
  for (std::size_t t = begin; t < end && t < tokens.size(); ++t) {
    if (tokens[t].kind == Token::Kind::kIdent && !is_control_keyword(tokens[t].text)) {
      last = tokens[t].text;
    }
  }
  return last;
}

int lock_rank_of(const LockDecls& decls, const std::string& stem,
                 const std::string& name) {
  const auto it = decls.mutex_by_stem.find({stem, name});
  if (it != decls.mutex_by_stem.end()) return it->second;
  const auto global = decls.mutex_global.find(name);
  if (global != decls.mutex_global.end() && global->second.size() == 1) {
    return *global->second.begin();
  }
  return -1;
}

namespace {

std::string path_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.resize(dot);
  return name;
}

/// Rank named by the token range of a CheckedMutex<...> argument: a
/// literal, or a named constant from the corpus-wide table.
int resolve_rank(const LockDecls& decls, const std::vector<Token>& tokens,
                 std::size_t begin, std::size_t end) {
  std::string ident;
  std::string number;
  for (std::size_t t = begin; t < end && t < tokens.size(); ++t) {
    if (tokens[t].kind == Token::Kind::kIdent) ident = tokens[t].text;
    if (tokens[t].kind == Token::Kind::kNumber) number = tokens[t].text;
  }
  if (!ident.empty()) {
    const auto it = decls.constants.find(ident);
    return it == decls.constants.end() ? -1 : static_cast<int>(it->second);
  }
  if (!number.empty()) {
    char* rest = nullptr;
    const long value = std::strtol(number.c_str(), &rest, 0);
    if (rest != nullptr && *rest == '\0') return static_cast<int>(value);
  }
  return -1;
}

void record_mutex(LockDecls& decls, const std::string& stem, const std::string& var,
                  int rank) {
  const auto key = std::make_pair(stem, var);
  const auto it = decls.mutex_by_stem.find(key);
  if (it == decls.mutex_by_stem.end()) {
    decls.mutex_by_stem.emplace(key, rank);
  } else if (it->second != rank) {
    it->second = -1;  // two declarations in one file pair: ambiguous
  }
  decls.mutex_global[var].insert(rank);
}

/// Declaration scan: constants, CheckedMutex aliases and variables,
/// GUARDED_BY fields and class/struct names, across the whole corpus.
void scan_declarations(LockDecls& decls, const std::vector<TranslationUnit>& units,
                       const std::vector<std::string>& stems) {
  // Constants first — mutex declarations in any unit may name a constant
  // from another (src/util/lockranks.hpp is the registry).
  for (const TranslationUnit& unit : units) {
    const std::vector<Token>& tokens = unit.tokens;
    for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
      if (!tokens[t].is_ident("constexpr")) continue;
      for (std::size_t u = t + 1; u + 2 < tokens.size(); ++u) {
        if (tokens[u].is(";") || tokens[u].is("{") || tokens[u].is("(")) break;
        if (tokens[u].is("=") && u > t + 1 &&
            tokens[u - 1].kind == Token::Kind::kIdent &&
            tokens[u + 1].kind == Token::Kind::kNumber && tokens[u + 2].is(";")) {
          char* rest = nullptr;
          const long value = std::strtol(tokens[u + 1].text.c_str(), &rest, 0);
          if (rest != nullptr && *rest == '\0') {
            decls.constants[tokens[u - 1].text] = value;
          }
          break;
        }
      }
    }
  }

  for (const TranslationUnit& unit : units) {
    const std::vector<Token>& tokens = unit.tokens;
    for (std::size_t t = 0; t + 2 < tokens.size(); ++t) {
      if (tokens[t].is_ident("using") && tokens[t + 1].kind == Token::Kind::kIdent &&
          tokens[t + 2].is("=")) {
        for (std::size_t u = t + 3; u + 1 < tokens.size(); ++u) {
          if (tokens[u].is(";")) break;
          if (tokens[u].is_ident("CheckedMutex") && tokens[u + 1].is("<")) {
            const std::size_t after = skip_angles(tokens, u + 1);
            decls.alias_rank[tokens[t + 1].text] =
                resolve_rank(decls, tokens, u + 2, after - 1);
            break;
          }
        }
      }
    }
  }

  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::vector<Token>& tokens = units[u].tokens;
    const std::string& stem = stems[u];
    for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
      const Token& tok = tokens[t];
      if (tok.kind != Token::Kind::kIdent) continue;
      if (tok.text == "CheckedMutex" && tokens[t + 1].is("<")) {
        const std::size_t after = skip_angles(tokens, t + 1);
        if (after >= tokens.size()) continue;
        const int rank = resolve_rank(decls, tokens, t + 2, after - 1);
        if (tokens[after].kind == Token::Kind::kIdent &&
            !is_control_keyword(tokens[after].text)) {
          record_mutex(decls, stem, tokens[after].text, rank);
        }
      } else if (decls.alias_rank.count(tok.text) != 0 &&
                 tokens[t + 1].kind == Token::Kind::kIdent &&
                 !is_control_keyword(tokens[t + 1].text)) {
        record_mutex(decls, stem, tokens[t + 1].text, decls.alias_rank[tok.text]);
      } else if (tok.text == "CORELOCATE_GUARDED_BY" && tokens[t + 1].is("(")) {
        const std::size_t close = match_group(tokens, t + 1);
        const std::string guard = last_ident(tokens, t + 2, close);
        if (!guard.empty() && t > 0 && tokens[t - 1].kind == Token::Kind::kIdent) {
          const std::string& field = tokens[t - 1].text;
          decls.guard_by_stem[{stem, field}] = guard;
          decls.guard_global[field].insert(guard);
        }
      } else if (tok.text == "class" || tok.text == "struct") {
        std::size_t v = t + 1;
        if (v < tokens.size() && tokens[v].kind == Token::Kind::kIdent &&
            tokens[v].text.rfind("CORELOCATE_", 0) == 0) {
          ++v;
          if (v < tokens.size() && tokens[v].is("(")) {
            v = match_group(tokens, v) + 1;
          }
        }
        if (v < tokens.size() && tokens[v].kind == Token::Kind::kIdent) {
          decls.type_names.insert(tokens[v].text);
        }
      }
    }
  }
}

const std::vector<FnRef>& no_refs() {
  static const std::vector<FnRef> kNone;
  return kNone;
}

}  // namespace

const std::vector<FnRef>& Corpus::callees(const CallSite& call) const {
  const auto it = index.find({call.name, call.arity});
  return it == index.end() ? no_refs() : it->second;
}

const std::vector<FnRef>& Corpus::named(const std::string& name) const {
  const auto it = name_index.find(name);
  return it == name_index.end() ? no_refs() : it->second;
}

Corpus build_corpus(std::vector<TranslationUnit> units) {
  Corpus corpus;
  corpus.units = std::move(units);
  for (const TranslationUnit& unit : corpus.units) {
    corpus.stems.push_back(path_stem(unit.file.effective_path));
  }
  scan_declarations(corpus.decls, corpus.units, corpus.stems);
  for (std::size_t u = 0; u < corpus.units.size(); ++u) {
    const TranslationUnit& unit = corpus.units[u];
    std::vector<std::vector<CallSite>>& calls = corpus.calls.emplace_back();
    calls.reserve(unit.functions.size());
    for (std::size_t f = 0; f < unit.functions.size(); ++f) {
      const FunctionDef& fn = unit.functions[f];
      calls.push_back(find_calls(unit.tokens, fn.body_begin + 1, fn.body_end));
      corpus.index[{fn.name, fn.arity}].push_back({u, f});
      corpus.name_index[fn.name].push_back({u, f});
    }
  }
  return corpus;
}

void Reporter::emit(const SourceFile& file, std::size_t line, const std::string& rule,
                    const std::string& message) {
  if (line >= file.lines.size()) return;
  if (!reported_.insert({&file, line, rule}).second) return;
  if (file.suppressed(rule, line)) return;
  findings_.push_back(Finding{file.path, line + 1, rule, message});
}

}  // namespace corelint
