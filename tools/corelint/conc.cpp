#include "conc.hpp"

#include <map>
#include <set>
#include <string>
#include <utility>

namespace corelint {

namespace {

// ------------------------------------------------------------- small helpers

bool guard_type_name(const std::string& word) {
  return word == "lock_guard" || word == "unique_lock" || word == "scoped_lock" ||
         word == "LockGuard";
}

bool submit_name(const std::string& word) {
  return word == "submit" || word == "submit_on";
}

/// Calls that join submitted work back into the submitting frame:
/// by-reference captures of stack locals are safe only behind one.
bool barrier_name(const std::string& word) {
  return word == "get" || word == "wait" || word == "wait_idle" || word == "join";
}

/// `std::scoped_lock(m, std::adopt_lock)`-style tag arguments are not
/// mutexes.
bool lock_tag_name(const std::string& word) {
  return word == "adopt_lock" || word == "defer_lock" || word == "try_to_lock";
}

// --------------------------------------------------------------- lock graph

struct UnitInfo {
  std::vector<std::vector<LockRegion>> fn_regions;
  /// Guarded fields visible to this unit: field → guarding mutex name.
  std::map<std::string, std::string> guards;
};

/// What a function does to the concurrency state, as seen from a call
/// site. Monotone (sets only grow), so the Kleene iteration converges.
struct ConcSummary {
  /// Ranks this function (transitively) acquires → an example mutex name
  /// at that rank, for the report text.
  std::map<int, std::string> acquires;
  /// Reaches a CORELOCATE_SERIAL_PHASE function (possibly itself).
  bool reaches_serial = false;
  std::string serial_witness;  ///< not part of the fixpoint comparison
  /// Parameter indices whose value is handed to ThreadPool::submit /
  /// submit_on (possibly through further helpers).
  std::set<std::size_t> escaping;

  bool operator==(const ConcSummary& other) const {
    return acquires == other.acquires && reaches_serial == other.reaches_serial &&
           escaping == other.escaping;
  }
};

struct ConcState {
  const Corpus& corpus;
  std::vector<UnitInfo> infos;
  std::vector<std::vector<ConcSummary>> summaries;
};

// ------------------------------------------------------------- lock regions

/// First token index of the '}' closing the scope the declaration at
/// `from` lives in, or `body_end`.
std::size_t scope_end(const std::vector<Token>& tokens, std::size_t from,
                      std::size_t body_end) {
  int depth = 0;
  for (std::size_t t = from; t < body_end; ++t) {
    if (tokens[t].is("{")) {
      ++depth;
    } else if (tokens[t].is("}")) {
      if (depth == 0) return t;
      --depth;
    }
  }
  return body_end;
}

// find_lock_regions is defined below, after the namespace closes: it is
// exported (conc.hpp) so the hot-path pass can reuse it, but still leans
// on the helpers above, which remain visible for the rest of this TU.

// ---------------------------------------------------------------- summaries

ConcSummary direct_summary(const ConcState& state, std::size_t u,
                           std::size_t fn_index) {
  const TranslationUnit& unit = state.corpus.units[u];
  const FunctionDef& fn = unit.functions[fn_index];
  const std::vector<Token>& tokens = unit.tokens;
  ConcSummary summary;
  for (const LockRegion& region : state.infos[u].fn_regions[fn_index]) {
    if (!region.entry && region.rank >= 0) {
      summary.acquires.emplace(region.rank, region.mutex);
    }
  }
  if (fn.serial_phase) {
    summary.reaches_serial = true;
    summary.serial_witness = fn.name;
  }
  for (const CallSite& call : state.corpus.calls[u][fn_index]) {
    if (!submit_name(call.name)) continue;
    for (const auto& [arg_begin, arg_end] : call.args) {
      for (std::size_t t = arg_begin; t < arg_end; ++t) {
        if (tokens[t].kind != Token::Kind::kIdent) continue;
        for (std::size_t p = 0; p < fn.params.size(); ++p) {
          if (!fn.params[p].name.empty() && fn.params[p].name == tokens[t].text) {
            summary.escaping.insert(p);
          }
        }
      }
    }
  }
  return summary;
}

/// One fixpoint step: merge the current summaries of every resolved
/// callee into `base` (the direct summary).
ConcSummary flow_step(const ConcState& state, std::size_t u, std::size_t fn_index,
                      ConcSummary base) {
  const TranslationUnit& unit = state.corpus.units[u];
  const FunctionDef& fn = unit.functions[fn_index];
  const std::vector<Token>& tokens = unit.tokens;
  for (const CallSite& call : state.corpus.calls[u][fn_index]) {
    for (const FnRef& ref : state.corpus.callees(call)) {
      const ConcSummary& callee = state.summaries[ref.first][ref.second];
      base.acquires.insert(callee.acquires.begin(), callee.acquires.end());
      if (callee.reaches_serial && !base.reaches_serial) {
        base.reaches_serial = true;
        base.serial_witness =
            callee.serial_witness.empty() ? call.name : callee.serial_witness;
      }
      for (std::size_t j : callee.escaping) {
        if (j >= call.args.size()) continue;
        for (std::size_t t = call.args[j].first; t < call.args[j].second; ++t) {
          if (tokens[t].kind != Token::Kind::kIdent) continue;
          for (std::size_t p = 0; p < fn.params.size(); ++p) {
            if (!fn.params[p].name.empty() && fn.params[p].name == tokens[t].text) {
              base.escaping.insert(p);
            }
          }
        }
      }
    }
  }
  return base;
}

// ---------------------------------------------------------------- reporting

/// Regions (including entry locks) held at token index `t`, excluding
/// region `self`.
std::vector<const LockRegion*> held_at(const std::vector<LockRegion>& regions,
                                       std::size_t t, const LockRegion* self) {
  std::vector<const LockRegion*> held;
  for (const LockRegion& region : regions) {
    if (&region == self) continue;
    if (region.begin < t && t < region.end) held.push_back(&region);
  }
  return held;
}

void report_rank_inversion(const ConcState& state, std::size_t u,
                           std::size_t fn_index, Reporter& report) {
  const SourceFile& file = state.corpus.units[u].file;
  const std::vector<LockRegion>& regions = state.infos[u].fn_regions[fn_index];
  const std::string rule = "conc-rank-inversion";

  for (const LockRegion& region : regions) {
    if (region.entry) continue;
    const std::vector<const LockRegion*> held =
        held_at(regions, region.begin, &region);
    bool fired = false;
    for (const LockRegion* h : held) {
      if (h->mutex == region.mutex) {
        report.emit(file, region.line, rule,
                    "acquires mutex '" + region.mutex +
                        "' while already holding it — self-deadlock on any schedule "
                        "that runs this path");
        fired = true;
        break;
      }
    }
    if (fired || region.rank < 0) continue;
    for (const LockRegion* h : held) {
      if (h->rank >= 0 && h->rank >= region.rank) {
        report.emit(file, region.line, rule,
                    "acquires '" + region.mutex + "' (rank " +
                        std::to_string(region.rank) + ") while '" + h->mutex +
                        "' (rank " + std::to_string(h->rank) +
                        ") is held — lock ranks must strictly increase along every "
                        "acquisition path");
        break;
      }
    }
  }

  // Interprocedural: a call made under a held lock must not reach an
  // acquisition of an equal-or-lower rank.
  for (const CallSite& call : state.corpus.calls[u][fn_index]) {
    const std::vector<FnRef>& callees = state.corpus.callees(call);
    if (callees.empty()) continue;
    const std::vector<const LockRegion*> held =
        held_at(regions, call.name_index, nullptr);
    int held_rank = -1;
    const LockRegion* held_region = nullptr;
    for (const LockRegion* h : held) {
      if (h->rank > held_rank) {
        held_rank = h->rank;
        held_region = h;
      }
    }
    if (held_region == nullptr || held_rank < 0) continue;
    for (const FnRef& ref : callees) {
      const ConcSummary& callee = state.summaries[ref.first][ref.second];
      bool fired = false;
      for (const auto& [rank, mutex] : callee.acquires) {
        if (rank <= held_rank) {
          report.emit(file, call.line, rule,
                      "call to '" + call.name + "' may acquire '" + mutex + "' (rank " +
                          std::to_string(rank) + ") while '" + held_region->mutex +
                          "' (rank " + std::to_string(held_rank) +
                          ") is held — lock ranks must strictly increase along every "
                          "acquisition path");
          fired = true;
          break;
        }
      }
      if (fired) break;
    }
  }
}

void report_unguarded_access(const ConcState& state, std::size_t u,
                             std::size_t fn_index, Reporter& report) {
  const UnitInfo& info = state.infos[u];
  if (info.guards.empty()) return;
  const TranslationUnit& unit = state.corpus.units[u];
  const SourceFile& file = unit.file;
  const FunctionDef& fn = unit.functions[fn_index];
  const std::vector<Token>& tokens = unit.tokens;
  // Constructors and destructors run before/after any sharing is
  // possible (Clang's analysis makes the same exemption).
  if (state.corpus.decls.type_names.count(fn.name) != 0) return;

  for (std::size_t t = fn.body_begin + 1; t < fn.body_end; ++t) {
    const Token& tok = tokens[t];
    if (tok.kind != Token::Kind::kIdent) continue;
    const auto guard_it = info.guards.find(tok.text);
    if (guard_it == info.guards.end()) continue;
    const std::string& guard = guard_it->second;
    // A field access is `expr.field`, `expr->field`, or a bare member
    // whose trailing underscore marks it as a data member. A plain local
    // identifier that happens to share the name is neither.
    const bool member_syntax =
        t > 0 && (tokens[t - 1].is(".") || tokens[t - 1].is("->"));
    const bool member_name = !tok.text.empty() && tok.text.back() == '_';
    if (!member_syntax && !member_name) continue;
    if (t > 0 && tokens[t - 1].is("::")) continue;  // qualified name, not access

    bool covered = false;
    for (const LockRegion& region : info.fn_regions[fn_index]) {
      if (region.mutex == guard && region.begin < t && t < region.end) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    report.emit(file, tok.line, "conc-unguarded-access",
                "field '" + tok.text + "' is CORELOCATE_GUARDED_BY(" + guard +
                    ") but no static path here holds '" + guard +
                    "' — take util::LockGuard(" + guard +
                    ") or annotate the function CORELOCATE_REQUIRES(" + guard + ")");
  }
}

/// Lambda body token range starting at the '[' at `intro`, or
/// (0, 0) when no body brace follows before `limit`.
std::pair<std::size_t, std::size_t> lambda_body(const std::vector<Token>& tokens,
                                                std::size_t intro,
                                                std::size_t limit) {
  std::size_t u = match_group(tokens, intro) + 1;
  while (u < limit && !tokens[u].is("{")) {
    if (tokens[u].is("(")) {
      u = match_group(tokens, u) + 1;
    } else {
      ++u;
    }
  }
  if (u >= limit) return {0, 0};
  const std::size_t close = match_group(tokens, u);
  if (close > limit) return {0, 0};
  return {u, close};
}

/// '[' at `t` introduces a lambda (not an index/subscript) when nothing
/// indexable precedes it.
bool lambda_intro(const std::vector<Token>& tokens, std::size_t t,
                  std::size_t arg_begin) {
  if (t == arg_begin) return true;
  const Token& prev = tokens[t - 1];
  if (prev.kind == Token::Kind::kIdent) return false;
  if (prev.is(")") || prev.is("]")) return false;
  return true;
}

void report_task_args(const ConcState& state, std::size_t u, std::size_t fn_index,
                      const CallSite& call,
                      const std::vector<std::pair<std::size_t, std::size_t>>& args,
                      const std::string& via, Reporter& report) {
  const TranslationUnit& unit = state.corpus.units[u];
  const SourceFile& file = unit.file;
  const FunctionDef& fn = unit.functions[fn_index];
  const std::vector<Token>& tokens = unit.tokens;

  for (const auto& [arg_begin, arg_end] : args) {
    for (std::size_t t = arg_begin; t < arg_end; ++t) {
      const Token& tok = tokens[t];

      if (tok.is("[") && lambda_intro(tokens, t, arg_begin)) {
        const std::size_t captures_close = match_group(tokens, t);
        const auto [body_open, body_close] = lambda_body(tokens, t, arg_end);

        // conc-ref-capture: implicit [&] always fires; named by-ref
        // captures fire unless the frame joins the pool afterwards.
        bool joins = false;
        const std::size_t call_close = match_group(tokens, call.name_index + 1);
        for (std::size_t b = call_close + 1; b < fn.body_end; ++b) {
          if (tokens[b].kind == Token::Kind::kIdent && barrier_name(tokens[b].text)) {
            joins = true;
            break;
          }
        }
        for (const auto& [part_begin, part_end] :
             split_top_level(tokens, t + 1, captures_close)) {
          if (part_begin >= part_end) continue;
          const Token& head = tokens[part_begin];
          if (head.is("&") && part_end - part_begin == 1) {
            report.emit(file, tok.line, "conc-ref-capture",
                        "task handed to the pool" + via +
                            " captures implicitly by reference ([&]) — name every "
                            "capture so lifetimes stay auditable");
            continue;
          }
          if (head.is("&") && !joins) {
            const std::string name = last_ident(tokens, part_begin, part_end);
            if (name.empty()) continue;
            report.emit(file, tok.line, "conc-ref-capture",
                        "task captures '" + name + "' by reference" + via + " but '" +
                            fn.name +
                            "' never joins the pool afterwards (.get()/wait_idle()) — "
                            "the task can outlive the captured frame");
          }
        }

        // conc-phase-escape: calls made from inside the task body.
        if (body_open != 0) {
          for (const CallSite& inner : state.corpus.calls[u][fn_index]) {
            if (inner.name_index <= body_open || inner.name_index >= body_close) {
              continue;
            }
            for (const FnRef& ref : state.corpus.callees(inner)) {
              const ConcSummary& callee = state.summaries[ref.first][ref.second];
              if (!callee.reaches_serial) continue;
              report.emit(file, inner.line, "conc-phase-escape",
                          "pool task calls '" + inner.name +
                              "', which reaches CORELOCATE_SERIAL_PHASE function '" +
                              callee.serial_witness +
                              "' — serial-only operations must not run on pool "
                              "workers");
              break;
            }
          }
        }
        t = captures_close;
        continue;
      }

      // conc-phase-escape: a function handed to the pool by name
      // (function pointer / reference argument).
      if (tok.kind == Token::Kind::kIdent && !is_control_keyword(tok.text)) {
        const bool called = t + 1 < arg_end && tokens[t + 1].is("(");
        const bool qualifier = t + 1 < arg_end && tokens[t + 1].is("::");
        const bool member = t > 0 && (tokens[t - 1].is(".") || tokens[t - 1].is("->"));
        const bool method_base =
            t + 1 < arg_end && (tokens[t + 1].is(".") || tokens[t + 1].is("->"));
        if (called || qualifier || member || method_base) continue;
        for (const FnRef& ref : state.corpus.named(tok.text)) {
          const ConcSummary& callee = state.summaries[ref.first][ref.second];
          if (!callee.reaches_serial) continue;
          report.emit(file, tok.line, "conc-phase-escape",
                      "'" + tok.text + "' reaches CORELOCATE_SERIAL_PHASE function '" +
                          callee.serial_witness +
                          "' and is handed to the pool — serial-only operations must "
                          "not run on pool workers");
          break;
        }
      }
    }
  }
}

void report_pool_tasks(const ConcState& state, std::size_t u, std::size_t fn_index,
                       Reporter& report) {
  for (const CallSite& call : state.corpus.calls[u][fn_index]) {
    if (submit_name(call.name)) {
      report_task_args(state, u, fn_index, call, call.args, "", report);
      continue;
    }
    std::set<std::size_t> escaping;
    for (const FnRef& ref : state.corpus.callees(call)) {
      const ConcSummary& callee = state.summaries[ref.first][ref.second];
      escaping.insert(callee.escaping.begin(), callee.escaping.end());
    }
    if (escaping.empty()) continue;
    std::vector<std::pair<std::size_t, std::size_t>> args;
    for (std::size_t j : escaping) {
      if (j < call.args.size()) args.push_back(call.args[j]);
    }
    if (!args.empty()) {
      report_task_args(state, u, fn_index, call, args, " via '" + call.name + "'",
                       report);
    }
  }
}

}  // namespace

std::vector<LockRegion> find_lock_regions(const LockDecls& decls,
                                          const std::string& stem,
                                          const TranslationUnit& unit,
                                          const FunctionDef& fn) {
  const std::vector<Token>& tokens = unit.tokens;
  std::vector<LockRegion> regions;

  for (const std::string& name : fn.requires_locks) {
    LockRegion region;
    region.mutex = name;
    region.rank = lock_rank_of(decls, stem, name);
    region.begin = fn.body_begin;
    region.end = fn.body_end;
    region.line = fn.begin_line;
    region.entry = true;
    regions.push_back(std::move(region));
  }

  for (std::size_t t = fn.body_begin + 1; t < fn.body_end; ++t) {
    const Token& tok = tokens[t];
    if (tok.kind != Token::Kind::kIdent) continue;

    if (guard_type_name(tok.text)) {
      // `std::unique_lock<M> guard(expr);` / `util::LockGuard guard(expr);`
      std::size_t u = t + 1;
      if (u < tokens.size() && tokens[u].is("<")) u = skip_angles(tokens, u);
      if (u >= fn.body_end || tokens[u].kind != Token::Kind::kIdent ||
          is_control_keyword(tokens[u].text)) {
        continue;
      }
      const std::size_t args_open = u + 1;
      if (args_open >= fn.body_end ||
          (!tokens[args_open].is("(") && !tokens[args_open].is("{"))) {
        continue;
      }
      const std::size_t args_close = match_group(tokens, args_open);
      if (args_close >= fn.body_end) continue;
      const std::size_t end = scope_end(tokens, args_close + 1, fn.body_end);
      for (const auto& [part_begin, part_end] :
           split_top_level(tokens, args_open + 1, args_close)) {
        const std::string mutex = last_ident(tokens, part_begin, part_end);
        if (mutex.empty() || lock_tag_name(mutex)) continue;
        LockRegion region;
        region.mutex = mutex;
        region.rank = lock_rank_of(decls, stem, mutex);
        region.begin = t;
        region.end = end;
        region.line = tok.line;
        regions.push_back(std::move(region));
      }
      t = args_close;
      continue;
    }

    // Manual `expr.lock()` ... `expr.unlock()` pair.
    if (tok.text == "lock" && t >= 2 && t + 2 < fn.body_end && tokens[t + 1].is("(") &&
        tokens[t + 2].is(")") &&
        (tokens[t - 1].is(".") || tokens[t - 1].is("->")) &&
        tokens[t - 2].kind == Token::Kind::kIdent) {
      const std::string& base = tokens[t - 2].text;
      std::size_t end = fn.body_end;
      for (std::size_t v = t + 3; v + 2 < fn.body_end; ++v) {
        if (tokens[v].kind == Token::Kind::kIdent && tokens[v].text == base &&
            (tokens[v + 1].is(".") || tokens[v + 1].is("->")) &&
            tokens[v + 2].is_ident("unlock")) {
          end = v;
          break;
        }
      }
      LockRegion region;
      region.mutex = base;
      region.rank = lock_rank_of(decls, stem, base);
      region.begin = t;
      region.end = end;
      region.line = tok.line;
      regions.push_back(std::move(region));
    }
  }
  return regions;
}

void run_conc(const Corpus& corpus, Reporter& report) {
  const std::vector<TranslationUnit>& units = corpus.units;
  ConcState state{corpus, {}, {}};
  state.infos.reserve(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    UnitInfo info;
    info.fn_regions.reserve(units[u].functions.size());
    for (const FunctionDef& fn : units[u].functions) {
      info.fn_regions.push_back(
          find_lock_regions(corpus.decls, corpus.stems[u], units[u], fn));
    }
    // Fields this unit must treat as guarded: its own stem's
    // annotations, plus every globally unambiguous one.
    for (const auto& [field, guards] : corpus.decls.guard_global) {
      const auto stem_it = corpus.decls.guard_by_stem.find({corpus.stems[u], field});
      if (stem_it != corpus.decls.guard_by_stem.end()) {
        info.guards[field] = stem_it->second;
      } else if (guards.size() == 1) {
        info.guards[field] = *guards.begin();
      }
    }
    state.infos.push_back(std::move(info));
  }

  // Acquires and escaping sets only grow and reaches_serial is monotone.
  state.summaries.resize(units.size());
  std::vector<std::vector<ConcSummary>> direct(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    state.summaries[u].assign(units[u].functions.size(), ConcSummary{});
    direct[u].reserve(units[u].functions.size());
    for (std::size_t f = 0; f < units[u].functions.size(); ++f) {
      direct[u].push_back(direct_summary(state, u, f));
    }
  }
  iterate_to_fixpoint(corpus, state.summaries, [&](std::size_t u, std::size_t f) {
    return flow_step(state, u, f, direct[u][f]);
  });

  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t f = 0; f < units[u].functions.size(); ++f) {
      report_rank_inversion(state, u, f, report);
      report_unguarded_access(state, u, f, report);
      report_pool_tasks(state, u, f, report);
    }
  }
}

}  // namespace corelint
