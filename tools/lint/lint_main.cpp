// uvmsim_lint — in-tree static analyzer enforcing the repository's
// determinism, hot-path-allocation, concurrency, and hygiene invariants.
//
//   uvmsim_lint [--json] [--root DIR] [paths...]   lint files/directories
//   uvmsim_lint --project [paths...]               whole-program pass
//   uvmsim_lint --list-rules [--json]              print the rule table
//
// Project mode adds the call-graph/dataflow rules (hot-transitive-*,
// lane-capture-escape, ordered-reads-lane-owned, unordered-sink-iteration).
// Every run lexes, indexes and analyzes its files from scratch, and any
// finding fails it.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. With no paths the
// default scan set is `src bench tools` relative to --root (default ".").
#include <iostream>
#include <string>
#include <vector>

#include "analyzer.h"
#include "rules.h"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: uvmsim_lint [--json] [--root DIR] [--project] [paths...]\n"
        "       uvmsim_lint --list-rules [--json]\n"
        "\n"
        "Lints *.h/*.cpp under the given files/directories (default: src\n"
        "bench tools). Findings go to stdout; exit 1 when any are found.\n"
        "--project enables the whole-program rules.\n"
        "Suppress a finding with a mandatory justification:\n"
        "  // uvmsim-lint: allow(<rule-id>, \"why this is safe\")\n"
        "or cover a whole function from the line before its signature:\n"
        "  // uvmsim-lint: suppress(<rule-id>) why this is safe\n";
}

void list_rules(bool json) {
  using uvmsim::lint::all_rules;
  if (json) {
    std::cout << "{\"version\":1,\"rules\":[";
    bool first = true;
    for (const auto& r : all_rules()) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "{\"id\":\"" << r.id << "\",\"category\":\"" << r.category
                << "\",\"summary\":\"" << r.summary << "\"}";
    }
    std::cout << "]}\n";
    return;
  }
  for (const auto& r : all_rules()) {
    std::cout << r.id << "  [" << r.category << "]\n    " << r.summary
              << "\n";
  }
}

void print_text(const std::vector<uvmsim::lint::Finding>& findings) {
  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.category << "/"
              << f.rule << "] " << f.message << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool rules_only = false;
  uvmsim::lint::LintOptions opts;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      rules_only = true;
    } else if (arg == "--project") {
      opts.project = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "uvmsim_lint: --root requires an argument\n";
        return 2;
      }
      opts.root = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "uvmsim_lint: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (rules_only) {
    list_rules(json);
    return 0;
  }

  if (paths.empty()) {
    paths = {opts.root + "/src", opts.root + "/bench", opts.root + "/tools"};
  }

  uvmsim::lint::Linter linter(opts);
  for (const std::string& p : paths) {
    if (!linter.add_path(p)) {
      std::cerr << "uvmsim_lint: cannot read '" << p << "'\n";
      return 2;
    }
  }

  const std::vector<uvmsim::lint::Finding> findings = linter.run();
  if (json) {
    uvmsim::lint::write_findings_json(std::cout, findings);
  } else {
    print_text(findings);
    if (findings.empty()) {
      std::cout << "uvmsim_lint: clean\n";
    } else {
      std::cout << "uvmsim_lint: " << findings.size() << " finding(s)\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
