// corelint — the corelocate repo linter (see docs/ANALYSIS.md).
//
// Usage:
//   corelint [--format text|sarif] <file|dir>...   lint files / trees
//   corelint --selftest DIR                        check fixture expectations
//   corelint --list-rules                          print the rule names
//
// Run `corelint --help` for the flag list (generated from the FlagSpec)
// and the registered rules with their one-line descriptions (generated
// from rule_table()).
//
// Exit codes: 0 clean, 1 findings (or failed selftest), 2 usage/IO error.
//
// Every rule runs on every lint, and there is no baseline: the one way to
// accept a finding is an inline `// corelint: disable(...)` comment.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "conc.hpp"
#include "hotpath.hpp"
#include "rules.hpp"
#include "sarif.hpp"
#include "scanner.hpp"
#include "symbols.hpp"
#include "taint.hpp"
#include "util/cli.hpp"

namespace corelint {
namespace {

namespace fs = std::filesystem;
namespace util = corelocate::util;

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

std::vector<std::string> collect_files(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (fs::is_directory(arg)) {
      for (const auto& entry : fs::recursive_directory_iterator(arg)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          files.push_back(entry.path().string());
        }
      }
    } else if (fs::is_regular_file(arg)) {
      files.push_back(arg);
    } else {
      throw std::runtime_error("corelint: no such file or directory: " + arg);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

/// Runs the per-file rules plus the cross-TU taint, concurrency and
/// hot-path passes over a corpus.
std::vector<Finding> run_all(const Corpus& corpus) {
  std::vector<Finding> findings;
  for (const TranslationUnit& unit : corpus.units) {
    std::vector<Finding> file_findings = run_rules(unit.file);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  Reporter report;
  run_taint(corpus, report);
  run_conc(corpus, report);
  run_hotpath(corpus, report);
  findings.insert(findings.end(), report.findings().begin(), report.findings().end());
  sort_findings(findings);
  return findings;
}

int run_lint(const std::vector<std::string>& paths, const std::string& format) {
  std::vector<TranslationUnit> units;
  for (const std::string& path : collect_files(paths)) {
    units.push_back(make_unit(scan_file(path)));
  }
  const std::vector<Finding> findings = run_all(build_corpus(std::move(units)));
  if (format == "sarif") {
    write_sarif(std::cout, findings);
    return findings.empty() ? 0 : 1;
  }
  for (const Finding& finding : findings) {
    std::cout << report_path(finding.path) << ':' << finding.line << ": ["
              << finding.rule << "] " << finding.message << '\n';
  }
  if (!findings.empty()) {
    std::cout << "corelint: " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s")
              << " (see docs/ANALYSIS.md for the rules and suppression syntax)\n";
    return 1;
  }
  return 0;
}

/// Selftest: every `corelint-expect: rule` comment must be matched by a
/// finding of that rule on that line, and every finding must be
/// expected. Scans only the files directly inside `dir`; each fixture is
/// self-contained, so the taint pass runs per file (cross-TU resolution
/// is exercised by the paired corelint_taint_crosstu test).
int run_selftest(const std::string& dir) {
  int failures = 0;
  int expectations = 0;
  int files = 0;
  std::map<std::string, int> rule_firings;  ///< matched expectations per rule
  for (const std::string& rule : rule_names()) rule_firings[rule] = 0;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && lintable(entry.path())) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    ++files;
    std::vector<TranslationUnit> units;
    units.push_back(make_unit(scan_file(path)));
    const Corpus corpus = build_corpus(std::move(units));
    const SourceFile& file = corpus.units.front().file;
    const std::vector<Finding> findings = run_all(corpus);

    std::map<std::pair<std::size_t, std::string>, int> found;
    for (const Finding& finding : findings) {
      ++found[{finding.line, finding.rule}];
    }
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      for (const std::string& rule : file.lines[i].expected) {
        ++expectations;
        const auto it = found.find({i + 1, rule});
        if (it == found.end() || it->second == 0) {
          std::cout << "selftest: MISSING expected [" << rule << "] at "
                    << report_path(path) << ':' << i + 1 << '\n';
          ++failures;
        } else {
          --it->second;
          ++rule_firings[rule];
        }
      }
    }
    for (const auto& [key, count] : found) {
      for (int c = 0; c < count; ++c) {
        std::cout << "selftest: UNEXPECTED [" << key.second << "] at "
                  << report_path(path) << ':' << key.first << '\n';
        ++failures;
      }
    }
  }
  // Every registered rule must have at least one firing fixture: a rule
  // nobody can demonstrate is a rule nobody can trust.
  std::cout << "selftest rule coverage:\n";
  for (const auto& [rule, count] : rule_firings) {
    std::cout << "  " << rule << ": " << count << " firing expectation"
              << (count == 1 ? "" : "s") << '\n';
    if (count == 0) {
      std::cout << "selftest: rule [" << rule
                << "] has no firing fixture — add a bad_*.cpp exercising it\n";
      ++failures;
    }
  }
  if (failures > 0) {
    std::cout << "selftest: " << failures << " mismatch" << (failures == 1 ? "" : "es")
              << '\n';
    return 1;
  }
  std::cout << "selftest ok: " << expectations << " expectations across " << files
            << " files\n";
  return 0;
}

util::FlagSpec make_spec() {
  util::FlagSpec spec("corelint <file|dir>...",
                      "the corelocate repo linter (docs/ANALYSIS.md)");
  spec.add("format", "text|sarif", "report format (default text)")
      .add("selftest", "DIR", "check fixture expectations in DIR and exit")
      .add("list-rules", "", "print the rule names and exit");
  return spec;
}

/// `--help` output: the FlagSpec usage block plus every registered rule
/// with its one-line description, both generated from their tables so
/// the help can never drift from the implementation.
void print_help(std::ostream& out, const util::FlagSpec& spec) {
  out << spec.usage() << "\nrules:\n";
  std::size_t width = 0;
  for (const RuleInfo& rule : rule_table()) {
    width = std::max(width, std::string(rule.name).size());
  }
  for (const RuleInfo& rule : rule_table()) {
    const std::string name = rule.name;
    out << "  " << name << std::string(width - name.size() + 2, ' ')
        << rule.summary << '\n';
  }
}

int main(int argc, char** argv) {
  const util::FlagSpec spec = make_spec();
  const util::CliFlags flags(argc, argv, spec);
  if (flags.get_bool("help")) {
    print_help(std::cout, spec);
    return 0;
  }
  flags.validate(spec.names());

  if (flags.get_bool("list-rules")) {
    for (const std::string& rule : rule_names()) std::cout << rule << '\n';
    return 0;
  }

  const std::string format = flags.get("format", "text");
  if (format != "text" && format != "sarif") {
    throw std::runtime_error("corelint: unknown format " + format);
  }

  if (flags.has("selftest")) return run_selftest(flags.get("selftest", ""));
  if (flags.positional().empty()) {
    throw std::runtime_error("corelint: no inputs (try --help)");
  }
  return run_lint(flags.positional(), format);
}

}  // namespace
}  // namespace corelint

int main(int argc, char** argv) {
  try {
    return corelint::main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
