#pragma once
// Symbol layer of corelint's semantic passes (see docs/ANALYSIS.md).
//
// Extracts function *definitions* (name, arity, parameters, body span)
// from the token stream of one translation unit, and call sites with
// argument token ranges from function bodies. On top of the units sits
// the Corpus that the three cross-TU passes (taint, conc, hotpath) share,
// built once per run: the call graph, whose callees resolve by
// (name, arity) — overloads are distinguished by argument count, a
// deliberate approximation that needs no type system and is exact for
// the idioms this repo uses — and the corpus-wide lock declarations.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"
#include "scanner.hpp"

namespace corelint {

struct Param {
  std::string name;
  /// Non-const reference or pointer parameter: writes through it escape
  /// to the caller (the taint pass treats these as out-parameters).
  bool is_out = false;
};

struct FunctionDef {
  std::string name;
  int arity = 0;
  std::vector<Param> params;
  std::size_t begin_line = 0;  ///< 0-based line of the body '{'
  std::size_t end_line = 0;    ///< 0-based line of the matching '}'
  std::size_t body_begin = 0;  ///< token index of the body '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
  /// Token range [params_begin, params_end) inside the parameter list's
  /// parentheses — the declared types, which Param drops (the hot-path
  /// pass checks them for heavy by-value parameters).
  std::size_t params_begin = 0;
  std::size_t params_end = 0;
  /// Mutex names from a trailing CORELOCATE_REQUIRES(...) annotation:
  /// the function is entered with these already held (conc passes).
  std::vector<std::string> requires_locks;
  /// Trailing CORELOCATE_SERIAL_PHASE annotation: the function may only
  /// run from a serial phase, never from a ThreadPool task.
  bool serial_phase = false;
};

struct CallSite {
  std::string name;
  int arity = 0;
  std::size_t line = 0;        ///< 0-based line of the callee name
  std::size_t name_index = 0;  ///< token index of the callee name
  /// Token index ranges [begin, end) of each argument expression.
  std::vector<std::pair<std::size_t, std::size_t>> args;
};

/// One scanned + tokenized + symbolized file.
struct TranslationUnit {
  SourceFile file;
  std::vector<Token> tokens;
  std::vector<FunctionDef> functions;
};

/// Builds the translation unit for a scanned file.
TranslationUnit make_unit(SourceFile file);

/// Extracts the call sites inside the token range [begin, end)
/// (typically a function body).
std::vector<CallSite> find_calls(const std::vector<Token>& tokens, std::size_t begin,
                                 std::size_t end);

/// Token index of the matching closer for the opener at `open`
/// (tokens[open] must be "(" or "{" or "["), or tokens.size() when
/// unbalanced.
std::size_t match_group(const std::vector<Token>& tokens, std::size_t open);

/// Splits the token range [begin, end) at top-level commas. Depth counts
/// parens, brackets and braces; angle brackets are tracked heuristically
/// (clamped at zero) so template-ids in parameter types group correctly.
std::vector<std::pair<std::size_t, std::size_t>> split_top_level(
    const std::vector<Token>& tokens, std::size_t begin, std::size_t end);

/// Corpus-wide include graph over the scanned units, built from the
/// `#include "..."` directives the scanner captured (angled includes are
/// external and carry no edges). An include resolves to the unit whose
/// effective path ends with the included path — the repo's includes are
/// all root-relative (`"serve/service.hpp"`), so the suffix match is
/// exact whenever the target was scanned at all.
struct IncludeGraph {
  /// deps[u] = (unit index of the included file, 0-based include line).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> deps;
};

IncludeGraph build_include_graph(const std::vector<TranslationUnit>& units);

/// Index one past the '>' matching the '<' at `open`; tokens.size() when
/// the statement ends before it balances (then it was not a template-id).
std::size_t skip_angles(const std::vector<Token>& tokens, std::size_t open);

/// Last non-keyword identifier in the token range [begin, end), or "".
std::string last_ident(const std::vector<Token>& tokens, std::size_t begin,
                       std::size_t end);

/// Corpus-wide lock/guard declaration tables: constexpr rank constants,
/// CheckedMutex aliases and variables (resolved per file-pair stem),
/// CORELOCATE_GUARDED_BY fields and class/struct names.
struct LockDecls {
  std::map<std::string, long> constants;  ///< constexpr int NAME = N
  std::map<std::string, int> alias_rank;  ///< using X = CheckedMutex<R>
  std::map<std::pair<std::string, std::string>, int> mutex_by_stem;
  std::map<std::string, std::set<int>> mutex_global;
  std::map<std::pair<std::string, std::string>, std::string> guard_by_stem;
  std::map<std::string, std::set<std::string>> guard_global;
  std::set<std::string> type_names;  ///< class/struct names (ctor/dtor exemption)
};

/// Rank of the mutex `name` seen from file pair `stem`: same-stem
/// declaration first, then a globally unique declaration, else -1.
int lock_rank_of(const LockDecls& decls, const std::string& stem,
                 const std::string& name);

using FnRef = std::pair<std::size_t, std::size_t>;  ///< (unit index, fn index)

/// Everything the cross-TU passes share, built once per lint run.
struct Corpus {
  std::vector<TranslationUnit> units;
  /// File-pair key per unit: "src/fleet/thread_pool.hpp" and ".cpp" share
  /// the stem "thread_pool", so a mutex declared in the header resolves
  /// at lock sites in its own implementation file first.
  std::vector<std::string> stems;
  /// Call sites of each function body, per unit and function.
  std::vector<std::vector<std::vector<CallSite>>> calls;
  std::map<std::pair<std::string, int>, std::vector<FnRef>> index;
  std::map<std::string, std::vector<FnRef>> name_index;  ///< any arity
  LockDecls decls;

  /// Definitions a call may reach, resolved by (name, arity).
  const std::vector<FnRef>& callees(const CallSite& call) const;
  /// Definitions named `name`, at any arity.
  const std::vector<FnRef>& named(const std::string& name) const;
};

Corpus build_corpus(std::vector<TranslationUnit> units);

/// Kleene iteration over one summary per function: each round recomputes
/// every summary with `step(unit, fn)`, which reads the current table,
/// until a round changes nothing. Summaries only grow, so the fixed point
/// exists; the round cap is a safety net for pathological call graphs.
template <typename Summary, typename Step>
void iterate_to_fixpoint(const Corpus& corpus,
                         std::vector<std::vector<Summary>>& summaries, Step step) {
  for (int round = 0; round < 24; ++round) {
    bool changed = false;
    for (std::size_t u = 0; u < corpus.units.size(); ++u) {
      for (std::size_t f = 0; f < corpus.units[u].functions.size(); ++f) {
        Summary next = step(u, f);
        if (!(next == summaries[u][f])) {
          summaries[u][f] = std::move(next);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
}

/// Collects the cross-TU passes' findings: at most one per
/// (file, line, rule), since a pass can reach a line along several paths,
/// and none on a suppressed line.
class Reporter {
 public:
  void emit(const SourceFile& file, std::size_t line, const std::string& rule,
            const std::string& message);
  std::vector<Finding>& findings() { return findings_; }

 private:
  std::vector<Finding> findings_;
  std::set<std::tuple<const SourceFile*, std::size_t, std::string>> reported_;
};

}  // namespace corelint
