#include "analyzer.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "callgraph.h"
#include "dataflow.h"
#include "index.h"
#include "lexer.h"
#include "rules.h"

namespace uvmsim::lint {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// Per-file facts gathered at load time.
// ---------------------------------------------------------------------------

struct FileData {
  LexedFile lx;
  std::string display;  ///< normalized path used in findings
  std::string key;      ///< canonical path used for include resolution
  bool is_header = false;
  std::vector<std::pair<std::string, int>> project_includes;  ///< "x/y.h",line
  std::set<std::string> system_includes;                      ///< "vector",...
  bool has_pragma_once = false;
  bool has_include_guard = false;
  /// Names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
};

std::string file_key(const fs::path& p) {
  std::error_code ec;
  fs::path c = fs::weakly_canonical(p, ec);
  if (ec) c = fs::absolute(p, ec).lexically_normal();
  return c.generic_string();
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_id(const Token& t, std::string_view text) {
  return t.kind == TokKind::Identifier && t.text == text;
}
bool is_p(const Token& t, std::string_view text) {
  return t.kind == TokKind::Punct && t.text == text;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void parse_directives(FileData& fd) {
  bool first = true;
  for (const SideText& d : fd.lx.directives) {
    std::string_view s = d.text;
    if (!s.empty() && s.front() == '#') s.remove_prefix(1);
    s = trim(s);
    if (s.substr(0, 7) == "include") {
      std::string_view rest = trim(s.substr(7));
      if (!rest.empty() && rest.front() == '"') {
        const std::size_t close = rest.find('"', 1);
        if (close != std::string_view::npos) {
          fd.project_includes.emplace_back(
              std::string(rest.substr(1, close - 1)), d.line);
        }
      } else if (!rest.empty() && rest.front() == '<') {
        const std::size_t close = rest.find('>', 1);
        if (close != std::string_view::npos) {
          fd.system_includes.insert(std::string(rest.substr(1, close - 1)));
        }
      }
    } else if (s.substr(0, 6) == "pragma") {
      if (s.find("once") != std::string_view::npos) fd.has_pragma_once = true;
    } else if (first && s.substr(0, 6) == "ifndef") {
      fd.has_include_guard = true;
    }
    first = false;
  }
}

// ---------------------------------------------------------------------------
// Token-walk helpers.
// ---------------------------------------------------------------------------

/// t[open] must be "("; returns the index of the matching ")", or kNpos.
std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].kind != TokKind::Punct) continue;
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")" && --depth == 0) return j;
  }
  return kNpos;
}

std::size_t match_brace(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].kind != TokKind::Punct) continue;
    if (t[j].text == "{") ++depth;
    if (t[j].text == "}" && --depth == 0) return j;
  }
  return kNpos;
}

std::size_t match_bracket(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].kind != TokKind::Punct) continue;
    if (t[j].text == "[") ++depth;
    if (t[j].text == "]" && --depth == 0) return j;
  }
  return kNpos;
}

/// t[open] must be "<". Returns the index just past the matching ">", or
/// kNpos when this is a comparison rather than a template argument list
/// (";", "{", or end of file reached first). ">>" closes two levels.
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].kind != TokKind::Punct) {
      continue;
    }
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t[j].text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    }
    if (t[j].text == ";" || t[j].text == "{") return kNpos;
  }
  return kNpos;
}

void collect_unordered_names(FileData& fd) {
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto& t = fd.lx.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Identifier || !kUnordered.count(t[i].text)) {
      continue;
    }
    if (!is_p(t[i + 1], "<")) continue;
    std::size_t j = skip_angles(t, i + 1);
    if (j == kNpos) continue;
    while (j < t.size() &&
           (is_p(t[j], "&") || is_p(t[j], "*") || is_id(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::Identifier) {
      fd.unordered_names.insert(t[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions — the uvmsim-lint: marker plus allow(banned-random, "reason")
// with a mandatory justification, covering that line and the next.
// ---------------------------------------------------------------------------

struct ScopeRange {
  std::string rule;
  int begin = 0;  ///< first covered line, inclusive
  int end = 0;    ///< last covered line, inclusive
};

struct Suppressions {
  std::map<int, std::set<std::string>> by_line;
  /// suppress(rule) comments, keyed by the comment's line; resolved to
  /// function extents once the file's symbol index exists.
  std::vector<std::pair<int, std::string>> scoped_pending;
  std::vector<ScopeRange> scoped;
};

bool is_suppressed(const Suppressions& sup, const std::string& rule,
                   int line) {
  const auto it = sup.by_line.find(line);
  if (it != sup.by_line.end() && it->second.count(rule)) return true;
  for (const ScopeRange& r : sup.scoped) {
    if (r.rule == rule && line >= r.begin && line <= r.end) return true;
  }
  return false;
}

/// Maps each pending suppress(rule) comment to the extent of the function
/// whose signature starts on the following line. When no function matches,
/// the suppression degrades to covering the comment line and the next one
/// (same reach as allow), so a stray comment can never widen coverage.
void resolve_scoped(Suppressions& sup, const FileIndex& fi) {
  for (const auto& [cline, rule] : sup.scoped_pending) {
    bool matched = false;
    for (const IndexedSymbol& s : fi.symbols) {
      if (s.is_lambda) continue;
      if (cline + 1 >= s.decl_line && cline + 1 <= s.name_line &&
          s.body_end_line >= s.decl_line) {
        sup.scoped.push_back({rule, s.decl_line, s.body_end_line});
        matched = true;
      }
    }
    if (!matched) sup.scoped.push_back({rule, cline, cline + 1});
  }
  sup.scoped_pending.clear();
}

bool rule_id_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

void parse_scope_suppressions(const FileData& fd, const SideText& c,
                              Suppressions& sup, std::vector<Finding>& meta) {
  std::size_t pos = 0;
  while (true) {
    pos = c.text.find("suppress(", pos);
    if (pos == std::string::npos) break;
    pos += 9;
    while (pos < c.text.size() && c.text[pos] == ' ') ++pos;
    std::string id;
    while (pos < c.text.size() && rule_id_char(c.text[pos])) {
      id += c.text[pos++];
    }
    while (pos < c.text.size() && c.text[pos] == ' ') ++pos;
    if (pos >= c.text.size() || c.text[pos] != ')') continue;
    ++pos;
    if (!is_known_rule(id) || is_meta_rule(id)) {
      meta.push_back({fd.display, c.line, "suppression-unknown-rule", "meta",
                      "suppression names unknown rule '" + id +
                          "'; see uvmsim_lint --list-rules",
                      ""});
      continue;
    }
    // Justification: the rest of the comment text (minus a block-comment
    // terminator), mandatory and non-empty.
    std::string rest = c.text.substr(pos);
    const std::size_t endc = rest.rfind("*/");
    if (endc != std::string::npos) rest = rest.substr(0, endc);
    if (trim(rest).empty()) {
      meta.push_back({fd.display, c.line,
                      "suppression-missing-justification", "meta",
                      "suppression of '" + id +
                          "' lacks the mandatory justification: suppress(" +
                          id + ") why this is safe",
                      ""});
      continue;
    }
    sup.scoped_pending.emplace_back(c.line, id);
  }
}

void parse_suppressions(const FileData& fd, Suppressions& sup,
                        std::vector<Finding>& meta) {
  for (const SideText& c : fd.lx.comments) {
    const std::size_t tag = c.text.find("uvmsim-lint:");
    if (tag == std::string::npos) continue;
    parse_scope_suppressions(fd, c, sup, meta);
    std::size_t pos = tag;
    while (true) {
      pos = c.text.find("allow(", pos);
      if (pos == std::string::npos) break;
      pos += 6;
      while (pos < c.text.size() && c.text[pos] == ' ') ++pos;
      std::string id;
      while (pos < c.text.size() && rule_id_char(c.text[pos])) {
        id += c.text[pos++];
      }
      while (pos < c.text.size() && c.text[pos] == ' ') ++pos;
      if (!is_known_rule(id) || is_meta_rule(id)) {
        meta.push_back({fd.display, c.line, "suppression-unknown-rule", "meta",
                        "suppression names unknown rule '" + id +
                            "'; see uvmsim_lint --list-rules",
                        ""});
        continue;
      }
      std::string justification;
      bool have_justification = false;
      if (pos < c.text.size() && c.text[pos] == ',') {
        ++pos;
        while (pos < c.text.size() && c.text[pos] == ' ') ++pos;
        if (pos < c.text.size() && c.text[pos] == '"') {
          const std::size_t close = c.text.find('"', pos + 1);
          if (close != std::string::npos) {
            justification = c.text.substr(pos + 1, close - pos - 1);
            have_justification = !trim(justification).empty();
            pos = close + 1;
          }
        }
      }
      if (!have_justification) {
        meta.push_back({fd.display, c.line,
                        "suppression-missing-justification", "meta",
                        "suppression of '" + id +
                            "' lacks the mandatory justification string: "
                            "allow(" + id + ", \"why this is safe\")",
                        ""});
        continue;
      }
      sup.by_line[c.line].insert(id);
      sup.by_line[c.line + 1].insert(id);
    }
  }
}

// ---------------------------------------------------------------------------
// missing-include (IWYU-lite) table: std identifier -> providing headers.
// ---------------------------------------------------------------------------

const std::map<std::string_view, std::vector<std::string_view>>&
std_header_table() {
  static const std::map<std::string_view, std::vector<std::string_view>> kT = {
      {"vector", {"vector"}},
      {"string", {"string"}},
      {"to_string", {"string"}},
      {"getline", {"string"}},
      {"stoi", {"string"}},
      {"stoul", {"string"}},
      {"stoull", {"string"}},
      {"stod", {"string"}},
      {"string_view", {"string_view"}},
      {"array", {"array"}},
      {"optional", {"optional"}},
      {"nullopt", {"optional"}},
      {"unique_ptr", {"memory"}},
      {"shared_ptr", {"memory"}},
      {"weak_ptr", {"memory"}},
      {"make_unique", {"memory"}},
      {"make_shared", {"memory"}},
      {"function", {"functional"}},
      {"reference_wrapper", {"functional"}},
      {"ref", {"functional"}},
      {"cref", {"functional"}},
      {"map", {"map"}},
      {"multimap", {"map"}},
      {"set", {"set"}},
      {"multiset", {"set"}},
      {"unordered_map", {"unordered_map"}},
      {"unordered_multimap", {"unordered_map"}},
      {"unordered_set", {"unordered_set"}},
      {"unordered_multiset", {"unordered_set"}},
      {"deque", {"deque"}},
      {"list", {"list"}},
      {"queue", {"queue"}},
      {"priority_queue", {"queue"}},
      {"pair", {"utility"}},
      {"make_pair", {"utility"}},
      {"move", {"utility"}},
      {"swap", {"utility"}},
      {"forward", {"utility"}},
      {"exchange", {"utility"}},
      {"tuple", {"tuple"}},
      {"make_tuple", {"tuple"}},
      {"tie", {"tuple"}},
      {"sort", {"algorithm"}},
      {"stable_sort", {"algorithm"}},
      {"partial_sort", {"algorithm"}},
      {"nth_element", {"algorithm"}},
      {"min", {"algorithm"}},
      {"max", {"algorithm"}},
      {"clamp", {"algorithm"}},
      {"find", {"algorithm"}},
      {"find_if", {"algorithm"}},
      {"fill", {"algorithm"}},
      {"copy", {"algorithm"}},
      {"count", {"algorithm"}},
      {"count_if", {"algorithm"}},
      {"lower_bound", {"algorithm"}},
      {"upper_bound", {"algorithm"}},
      {"max_element", {"algorithm"}},
      {"min_element", {"algorithm"}},
      {"all_of", {"algorithm"}},
      {"any_of", {"algorithm"}},
      {"none_of", {"algorithm"}},
      {"remove_if", {"algorithm"}},
      {"unique", {"algorithm"}},
      {"reverse", {"algorithm"}},
      {"transform", {"algorithm"}},
      {"accumulate", {"numeric"}},
      {"iota", {"numeric"}},
      {"reduce", {"numeric"}},
      {"popcount", {"bit"}},
      {"countr_zero", {"bit"}},
      {"countr_one", {"bit"}},
      {"countl_zero", {"bit"}},
      {"countl_one", {"bit"}},
      {"bit_ceil", {"bit"}},
      {"bit_floor", {"bit"}},
      {"bit_width", {"bit"}},
      {"rotl", {"bit"}},
      {"rotr", {"bit"}},
      {"has_single_bit", {"bit"}},
      {"uint64_t", {"cstdint"}},
      {"uint32_t", {"cstdint"}},
      {"uint16_t", {"cstdint"}},
      {"uint8_t", {"cstdint"}},
      {"int64_t", {"cstdint"}},
      {"int32_t", {"cstdint"}},
      {"int16_t", {"cstdint"}},
      {"int8_t", {"cstdint"}},
      {"uintptr_t", {"cstdint"}},
      {"intptr_t", {"cstdint"}},
      {"size_t", {"cstddef"}},
      {"ptrdiff_t", {"cstddef"}},
      {"nullptr_t", {"cstddef"}},
      {"byte", {"cstddef"}},
      {"thread", {"thread"}},
      {"this_thread", {"thread"}},
      {"jthread", {"thread"}},
      {"mutex", {"mutex"}},
      {"lock_guard", {"mutex"}},
      {"unique_lock", {"mutex"}},
      {"scoped_lock", {"mutex"}},
      {"recursive_mutex", {"mutex"}},
      {"call_once", {"mutex"}},
      {"once_flag", {"mutex"}},
      {"condition_variable", {"condition_variable"}},
      {"condition_variable_any", {"condition_variable"}},
      {"future", {"future"}},
      {"shared_future", {"future"}},
      {"promise", {"future"}},
      {"packaged_task", {"future"}},
      {"async", {"future"}},
      {"atomic", {"atomic"}},
      {"atomic_flag", {"atomic"}},
      {"memory_order", {"atomic"}},
      {"chrono", {"chrono"}},
      {"ostream", {"ostream", "iosfwd", "iostream"}},
      {"istream", {"istream", "iosfwd", "iostream"}},
      {"cout", {"iostream"}},
      {"cerr", {"iostream"}},
      {"cin", {"iostream"}},
      {"clog", {"iostream"}},
      {"endl", {"iostream", "ostream"}},
      {"ofstream", {"fstream"}},
      {"ifstream", {"fstream"}},
      {"fstream", {"fstream"}},
      {"ostringstream", {"sstream"}},
      {"istringstream", {"sstream"}},
      {"stringstream", {"sstream"}},
      {"runtime_error", {"stdexcept"}},
      {"logic_error", {"stdexcept"}},
      {"invalid_argument", {"stdexcept"}},
      {"out_of_range", {"stdexcept"}},
      {"domain_error", {"stdexcept"}},
      {"length_error", {"stdexcept"}},
      {"overflow_error", {"stdexcept"}},
      {"underflow_error", {"stdexcept"}},
      {"exception", {"exception"}},
      {"terminate", {"exception"}},
      {"abort", {"cstdlib"}},
      {"exit", {"cstdlib"}},
      {"getenv", {"cstdlib"}},
      {"strtoull", {"cstdlib"}},
      {"strtoul", {"cstdlib"}},
      {"strtol", {"cstdlib"}},
      {"strtod", {"cstdlib"}},
      {"abs", {"cstdlib", "cmath"}},
      {"memcpy", {"cstring"}},
      {"memset", {"cstring"}},
      {"memmove", {"cstring"}},
      {"strlen", {"cstring"}},
      {"strcmp", {"cstring"}},
      {"strncmp", {"cstring"}},
      {"isdigit", {"cctype"}},
      {"isspace", {"cctype"}},
      {"isalpha", {"cctype"}},
      {"isalnum", {"cctype"}},
      {"tolower", {"cctype"}},
      {"toupper", {"cctype"}},
      {"sqrt", {"cmath"}},
      {"pow", {"cmath"}},
      {"log", {"cmath"}},
      {"log2", {"cmath"}},
      {"log10", {"cmath"}},
      {"exp", {"cmath"}},
      {"floor", {"cmath"}},
      {"ceil", {"cmath"}},
      {"round", {"cmath"}},
      {"lround", {"cmath"}},
      {"fabs", {"cmath"}},
      {"fmod", {"cmath"}},
      {"isnan", {"cmath"}},
      {"isinf", {"cmath"}},
      {"isfinite", {"cmath"}},
      {"hypot", {"cmath"}},
      {"numeric_limits", {"limits"}},
      {"variant", {"variant"}},
      {"visit", {"variant"}},
      {"holds_alternative", {"variant"}},
      {"get_if", {"variant"}},
      {"monostate", {"variant"}},
      {"span", {"span"}},
      {"filesystem", {"filesystem"}},
      {"initializer_list", {"initializer_list"}},
      {"invoke_result_t", {"type_traits"}},
      {"invoke_result", {"type_traits"}},
      {"enable_if_t", {"type_traits"}},
      {"is_same_v", {"type_traits"}},
      {"decay_t", {"type_traits"}},
      {"conditional_t", {"type_traits"}},
      {"remove_cvref_t", {"type_traits"}},
      {"common_type_t", {"type_traits"}},
      {"is_integral_v", {"type_traits"}},
      {"is_floating_point_v", {"type_traits"}},
      {"is_trivially_copyable_v", {"type_traits"}},
      {"setw", {"iomanip"}},
      {"setprecision", {"iomanip"}},
      {"setfill", {"iomanip"}},
      {"snprintf", {"cstdio"}},
      {"printf", {"cstdio"}},
      {"fprintf", {"cstdio"}},
      {"sprintf", {"cstdio"}},
      {"error_code", {"system_error"}},
  };
  return kT;
}

// ---------------------------------------------------------------------------
// The per-file rule pass.
// ---------------------------------------------------------------------------

struct Extent {
  std::size_t begin = 0;  ///< index of the opening "{"
  std::size_t end = 0;    ///< index of the matching "}"
};

bool in_extents(const std::vector<Extent>& es, std::size_t i) {
  for (const Extent& e : es) {
    if (i > e.begin && i < e.end) return true;
  }
  return false;
}

/// Body extents of functions annotated UVMSIM_HOT. The annotation must
/// appear at the start of the definition; the body is the first "{" at
/// paren depth 0 after it (declarations, which reach ";" first, are
/// skipped). Brace member-initializers would end the scan early, so hot
/// functions use parenthesized initializers — all current ones do.
std::vector<Extent> find_hot_extents(const std::vector<Token>& t) {
  std::vector<Extent> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_id(t[i], "UVMSIM_HOT")) continue;
    int pd = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].kind != TokKind::Punct) continue;
      if (t[j].text == "(") ++pd;
      if (t[j].text == ")") --pd;
      if (pd == 0 && t[j].text == ";") break;  // declaration only
      if (pd == 0 && t[j].text == "{") {
        const std::size_t close = match_brace(t, j);
        if (close != kNpos) out.push_back({j, close});
        break;
      }
    }
  }
  return out;
}

/// Body extents of lambdas passed (at any argument position) to
/// ThreadPool::submit/for_lanes or SweepRunner::map/sweep call sites —
/// i.e. code that runs on pool workers.
std::vector<Extent> find_task_extents(const std::vector<Token>& t) {
  static const std::set<std::string_view> kTaskCalls = {
      "submit", "for_lanes", "map", "sweep"};
  std::vector<Extent> out;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_p(t[i], ".") || is_p(t[i], "->"))) continue;
    if (t[i + 1].kind != TokKind::Identifier ||
        !kTaskCalls.count(t[i + 1].text)) {
      continue;
    }
    if (!is_p(t[i + 2], "(")) continue;
    const std::size_t close = match_paren(t, i + 2);
    if (close == kNpos) continue;
    for (std::size_t j = i + 3; j < close; ++j) {
      if (!is_p(t[j], "[")) continue;
      const std::size_t rb = match_bracket(t, j);
      if (rb == kNpos || rb >= close) break;
      // Walk from the capture list to the lambda body; bail on tokens that
      // show this "[...]" was a subscript, not a lambda introducer.
      int pd = 0;
      std::size_t body = kNpos;
      for (std::size_t k = rb + 1; k < close; ++k) {
        if (t[k].kind == TokKind::Punct) {
          if (t[k].text == "(") ++pd;
          if (t[k].text == ")") --pd;
          if (pd < 0) break;
          if (pd == 0 &&
              (t[k].text == "," || t[k].text == ";" || t[k].text == "]")) {
            break;
          }
          if (pd == 0 && t[k].text == "{") {
            body = k;
            break;
          }
        }
      }
      if (body == kNpos) continue;
      const std::size_t bend = match_brace(t, body);
      if (bend == kNpos || bend > close) continue;
      out.push_back({body, bend});
      j = bend;
    }
  }
  return out;
}

void check_file(const FileData& fd, std::vector<Finding>& out) {
  const auto& t = fd.lx.tokens;
  const std::string& norm = fd.display;
  const bool rng_impl =
      ends_with(norm, "sim/rng.h") || ends_with(norm, "sim/rng.cpp");
  const bool trace_impl =
      ends_with(norm, "sim/trace.h") || ends_with(norm, "sim/trace.cpp");
  const bool bench_file =
      norm.find("bench/") == 0 || norm.find("/bench/") != std::string::npos;

  auto add = [&](int line, std::string_view rule, std::string message) {
    for (const RuleInfo& r : all_rules()) {
      if (r.id == rule) {
        out.push_back({fd.display, line, std::string(rule),
                       std::string(r.category), std::move(message), ""});
        return;
      }
    }
  };

  const std::vector<Extent> hot = find_hot_extents(t);
  const std::vector<Extent> task = find_task_extents(t);

  static const std::set<std::string_view> kRandomIds = {
      "srand",        "random_device", "mt19937",
      "mt19937_64",   "minstd_rand",   "minstd_rand0",
      "ranlux24",     "ranlux48",      "default_random_engine",
      "knuth_b",      "drand48",       "lrand48",
      "mrand48"};
  static const std::set<std::string_view> kClockAlways = {
      "system_clock", "gettimeofday", "timespec_get", "clock_gettime"};
  static const std::set<std::string_view> kClockRestricted = {
      "steady_clock", "high_resolution_clock"};
  static const std::set<std::string_view> kHotAllocIds = {
      "make_unique", "make_shared", "malloc",       "calloc",
      "realloc",     "strdup",      "aligned_alloc"};
  static const std::set<std::string_view> kHotContainers = {
      "vector",        "string",        "map",
      "set",           "multimap",      "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "deque",    "list",
      "queue",         "priority_queue", "stringstream",
      "ostringstream", "istringstream", "basic_string"};
  static const std::set<std::string_view> kTaskIoIds = {
      "cout", "cerr", "clog", "printf", "fprintf", "puts", "fputs",
      "putchar"};
  static const std::set<std::string_view> kTaskSharedIds = {
      "Tracer", "Profiler", "tracer", "profiler", "tracer_", "profiler_"};
  static const std::set<std::string_view> kOrderedAssoc = {"map", "set",
                                                           "multimap",
                                                           "multiset"};

  // Track required std headers for missing-include (headers only); keyed by
  // the primary providing header so each gap is reported once.
  std::map<std::string, std::pair<int, std::string>> missing;  // hdr->line,id

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::Identifier) continue;
    const bool next_is_call = i + 1 < t.size() && is_p(t[i + 1], "(");

    // ---- D: banned-random --------------------------------------------------
    if (!rng_impl) {
      if (kRandomIds.count(tok.text) || (tok.text == "rand" && next_is_call)) {
        add(tok.line, "banned-random",
            "'" + tok.text +
                "' is nondeterministic; draw from the seeded uvmsim::Rng "
                "(sim/rng.h) instead");
      }
    }

    // ---- D: banned-clock ---------------------------------------------------
    if (kClockAlways.count(tok.text) || (tok.text == "time" && next_is_call)) {
      add(tok.line, "banned-clock",
          "'" + tok.text +
              "' reads the wall clock; simulated time comes from sim/time.h");
    }
    if (kClockRestricted.count(tok.text) && !trace_impl && !bench_file) {
      add(tok.line, "banned-clock",
          "'" + tok.text +
              "' is allowed only in sim/trace.* (wall-clock trace stamps) "
              "and bench/ (wall-clock reporting)");
    }

    // ---- D: thread-id ------------------------------------------------------
    if (tok.text == "get_id") {
      add(tok.line, "thread-id",
          "std::this_thread::get_id() must not influence simulation "
          "results; tasks are placement-agnostic");
    }

    // ---- D: pointer-keyed-container + A: hot-local-container --------------
    if (tok.text == "std" && i + 2 < t.size() && is_p(t[i + 1], "::") &&
        t[i + 2].kind == TokKind::Identifier) {
      const std::string& name = t[i + 2].text;
      if (kOrderedAssoc.count(name) && i + 3 < t.size() &&
          is_p(t[i + 3], "<")) {
        // Inspect the first template argument; a trailing '*' means the
        // ordering key is a raw pointer.
        int depth = 1;
        std::size_t last = kNpos;
        for (std::size_t j = i + 4; j < t.size(); ++j) {
          if (t[j].kind == TokKind::Punct) {
            if (t[j].text == "<") ++depth;
            if (t[j].text == ">" && --depth == 0) break;
            if (t[j].text == ">>") {
              depth -= 2;
              if (depth <= 0) break;
            }
            if (t[j].text == "," && depth == 1) break;
            if (t[j].text == ";" || t[j].text == "{") break;
          }
          last = j;
        }
        if (last != kNpos && is_p(t[last], "*")) {
          add(tok.line, "pointer-keyed-container",
              "std::" + name +
                  " keyed by a raw pointer iterates in address order, which "
                  "varies run to run; key by a stable id instead");
        }
      }
      if (kHotContainers.count(name) && in_extents(hot, i + 2)) {
        add(t[i + 2].line, "hot-local-container",
            "std::" + name +
                " referenced inside a UVMSIM_HOT body; hot paths use "
                "preallocated members (suppress with a justification if "
                "this does not allocate per event)");
      }
      if (fd.is_header) {
        auto it = std_header_table().find(name);
        if (it != std_header_table().end()) {
          bool satisfied = false;
          for (std::string_view h : it->second) {
            if (fd.system_includes.count(std::string(h))) {
              satisfied = true;
              break;
            }
          }
          if (!satisfied) {
            const std::string primary(it->second.front());
            if (!missing.count(primary)) {
              missing[primary] = {t[i + 2].line, "std::" + name};
            }
          }
        }
      }
    }

    // ---- A: hot-alloc ------------------------------------------------------
    if (in_extents(hot, i)) {
      if (tok.text == "new" ||
          (kHotAllocIds.count(tok.text) &&
           (next_is_call || (i + 1 < t.size() && is_p(t[i + 1], "<"))))) {
        add(tok.line, "hot-alloc",
            "'" + tok.text +
                "' inside a UVMSIM_HOT body; the schedule->fire and service "
                "paths must stay heap-allocation-free");
      }
    }

    // ---- C: mutable-static -------------------------------------------------
    if (tok.text == "static") {
      bool is_function = false;
      bool has_constexpr = false;
      bool has_atomic = false;
      bool saw_star = false;
      bool const_after_last_star = false;
      bool has_const = false;
      int line = tok.line;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const Token& d = t[j];
        if (d.kind == TokKind::Punct) {
          if (d.text == "(") {
            is_function = true;
            break;
          }
          if (d.text == ";" || d.text == "=" || d.text == "{") break;
          if (d.text == "*") {
            saw_star = true;
            const_after_last_star = false;
          }
          continue;
        }
        if (d.kind != TokKind::Identifier) continue;
        if (d.text == "constexpr" || d.text == "consteval") {
          has_constexpr = true;
        }
        if (d.text == "const") {
          has_const = true;
          if (saw_star) const_after_last_star = true;
        }
        if (d.text == "atomic" || d.text == "atomic_flag" ||
            d.text == "once_flag" || d.text == "mutex") {
          has_atomic = true;  // internally synchronized types
        }
      }
      const bool immutable =
          has_constexpr || has_atomic ||
          (has_const && (!saw_star || const_after_last_star));
      if (!is_function && !immutable) {
        add(line, "mutable-static",
            "mutable static state is shared across SweepRunner/ThreadPool "
            "tasks; make it const/constexpr/atomic, or suppress with the "
            "documented guard justification");
      }
    }

    // ---- C: task-io / task-shared-state -----------------------------------
    if (in_extents(task, i)) {
      if (kTaskIoIds.count(tok.text)) {
        add(tok.line, "task-io",
            "'" + tok.text +
                "' inside a pool task; jobs must collect results and let the "
                "caller print in sweep order (byte-identical stdout for any "
                "UVMSIM_THREADS)");
      }
      if (kTaskSharedIds.count(tok.text)) {
        add(tok.line, "task-shared-state",
            "'" + tok.text +
                "' touched from a pool task; only per-run instances owned by "
                "the task are safe — document with allow(task-shared-state, "
                "\"...\")");
      }
    }

    // ---- H: using-namespace-header ----------------------------------------
    if (fd.is_header && tok.text == "using" && i + 1 < t.size() &&
        is_id(t[i + 1], "namespace")) {
      add(tok.line, "using-namespace-header",
          "'using namespace' at header scope leaks into every includer");
    }

    // ---- H: assert-side-effect --------------------------------------------
    if (tok.text == "assert" && next_is_call) {
      const std::size_t close = match_paren(t, i + 1);
      if (close != kNpos) {
        for (std::size_t j = i + 2; j < close; ++j) {
          if (t[j].kind == TokKind::Punct &&
              (t[j].text == "++" || t[j].text == "--" || t[j].text == "=")) {
            add(tok.line, "assert-side-effect",
                "assert() argument contains '" + t[j].text +
                    "'; NDEBUG builds would skip the side effect");
            break;
          }
        }
      }
      if (fd.is_header && !fd.system_includes.count("cassert") &&
          !fd.system_includes.count("assert.h") && !missing.count("cassert")) {
        missing["cassert"] = {tok.line, "assert"};
      }
    }
  }

  // ---- H: missing-pragma-once ---------------------------------------------
  if (fd.is_header && !fd.has_pragma_once && !fd.has_include_guard) {
    add(1, "missing-pragma-once",
        "header has neither #pragma once nor an include guard");
  }

  // ---- H: missing-include -------------------------------------------------
  for (const auto& [hdr, use] : missing) {
    add(use.first, "missing-include",
        use.second + " used but <" + hdr +
            "> is not directly included; headers must be self-contained "
            "(include-what-you-use)");
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Linter driver.
// ---------------------------------------------------------------------------

struct Linter::Impl {
  LintOptions opts;
  std::vector<FileData> files;
  std::map<std::string, std::size_t> by_key;

  bool add_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string source = ss.str();
    FileData fd;
    fd.display = display_path(p);
    fd.key = file_key(p);
    fd.lx = lex_file(fd.display, source);
    const std::string& d = fd.display;
    fd.is_header = ends_with(d, ".h") || ends_with(d, ".hpp");
    parse_directives(fd);
    collect_unordered_names(fd);
    if (by_key.count(fd.key)) return true;  // already added
    by_key[fd.key] = files.size();
    files.push_back(std::move(fd));
    return true;
  }

  /// Path reported in findings: relative to opts.root when the file lives
  /// under it, so finding ids and golden output are invocation-directory
  /// independent; the normalized spelling otherwise.
  std::string display_path(const fs::path& p) const {
    const std::string rootk = file_key(fs::path(opts.root));
    const std::string selfk = file_key(p);
    if (selfk.size() > rootk.size() + 1 &&
        selfk.compare(0, rootk.size(), rootk) == 0 &&
        selfk[rootk.size()] == '/') {
      return selfk.substr(rootk.size() + 1);
    }
    return p.lexically_normal().generic_string();
  }
};

Linter::Linter(LintOptions opts) : impl_(new Impl) { impl_->opts = std::move(opts); }
Linter::~Linter() { delete impl_; }

bool Linter::add_path(const std::string& path) {
  const fs::path p(path);
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    std::vector<fs::path> found;
    for (fs::recursive_directory_iterator it(p, ec), end; it != end;
         it.increment(ec)) {
      if (ec) return false;
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
        found.push_back(it->path());
      }
    }
    std::sort(found.begin(), found.end(),
              [](const fs::path& a, const fs::path& b) {
                return a.generic_string() < b.generic_string();
              });
    for (const fs::path& f : found) {
      if (!impl_->add_file(f)) return false;
    }
    return true;
  }
  if (fs::is_regular_file(p, ec)) return impl_->add_file(p);
  return false;
}

std::vector<Finding> Linter::run() {
  std::vector<Finding> findings;
  auto& files = impl_->files;

  // Include graph over the scanned set: resolve "a/b.h" against the
  // including file's directory and the project roots.
  const fs::path root(impl_->opts.root);
  const std::vector<fs::path> roots = {root / "src", root / "bench",
                                       root / "tools" / "lint", root / "tools"};
  struct Edge {
    std::size_t to;
    int line;
  };
  std::vector<std::vector<Edge>> edges(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    // Displays can be root-relative while the process cwd is elsewhere, so
    // same-directory includes resolve against root, not cwd.
    const fs::path self = root / files[i].display;
    for (const auto& [inc, line] : files[i].project_includes) {
      std::vector<fs::path> candidates;
      candidates.push_back(self.parent_path() / inc);
      for (const fs::path& r : roots) candidates.push_back(r / inc);
      for (const fs::path& c : candidates) {
        auto it = impl_->by_key.find(file_key(c));
        if (it != impl_->by_key.end()) {
          edges[i].push_back({it->second, line});
          break;
        }
      }
    }
  }

  // H: include-cycle — DFS with colors; every back edge closes a cycle.
  {
    std::vector<int> color(files.size(), 0);  // 0 white, 1 gray, 2 black
    std::vector<std::size_t> stack_nodes;
    struct Frame {
      std::size_t node;
      std::size_t next_edge;
    };
    for (std::size_t start = 0; start < files.size(); ++start) {
      if (color[start] != 0) continue;
      std::vector<Frame> stack{{start, 0}};
      color[start] = 1;
      stack_nodes.push_back(start);
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next_edge >= edges[f.node].size()) {
          color[f.node] = 2;
          stack_nodes.pop_back();
          stack.pop_back();
          continue;
        }
        const Edge e = edges[f.node][f.next_edge++];
        if (color[e.to] == 1) {
          std::string chain;
          bool in_cycle = false;
          for (std::size_t n : stack_nodes) {
            if (n == e.to) in_cycle = true;
            if (in_cycle) chain += files[n].display + " -> ";
          }
          chain += files[e.to].display;
          findings.push_back({files[f.node].display, e.line, "include-cycle",
                              "hygiene", "project include cycle: " + chain,
                              ""});
          continue;
        }
        if (color[e.to] == 0) {
          color[e.to] = 1;
          stack_nodes.push_back(e.to);
          stack.push_back({e.to, 0});
        }
      }
    }
  }

  // Transitive unordered-container names per file (declarations often live
  // in a header while the iteration lives in the .cpp).
  std::vector<std::set<std::string>> merged(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::set<std::string> acc = files[i].unordered_names;
    std::vector<char> seen(files.size(), 0);
    std::vector<std::size_t> stack{i};
    seen[i] = 1;
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      stack.pop_back();
      acc.insert(files[n].unordered_names.begin(),
                 files[n].unordered_names.end());
      for (const Edge& e : edges[n]) {
        if (!seen[e.to]) {
          seen[e.to] = 1;
          stack.push_back(e.to);
        }
      }
    }
    merged[i] = std::move(acc);
  }

  // Symbol index per TU — scope suppressions and symbol attribution need it
  // in every mode; project mode additionally feeds it to the call graph.
  std::vector<FileIndex> indices(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    indices[i] = index_file(files[i].lx);
    indices[i].path = files[i].display;
  }

  // Suppressions, with scope comments resolved to function extents.
  std::vector<Suppressions> sup(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    parse_suppressions(files[i], sup[i], findings);  // meta findings direct
    resolve_scoped(sup[i], indices[i]);
  }

  // Per-file rule pass.
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<Finding> raw;
    check_file(files[i], raw);
    for (Finding& f : raw) {
      if (is_suppressed(sup[i], f.rule, f.line)) continue;
      findings.push_back(std::move(f));
    }
  }

  // Whole-program pass: call graph + dataflow rules.
  if (impl_->opts.project) {
    const CallGraph graph(indices);
    for (const ProjectFinding& pf :
         run_project_rules(indices, graph, merged)) {
      if (pf.file < 0 || static_cast<std::size_t>(pf.file) >= files.size()) {
        continue;
      }
      if (is_suppressed(sup[static_cast<std::size_t>(pf.file)], pf.rule,
                        pf.line)) {
        continue;
      }
      std::string category = "determinism";
      for (const RuleInfo& r : all_rules()) {
        if (r.id == pf.rule) {
          category = std::string(r.category);
          break;
        }
      }
      findings.push_back({files[static_cast<std::size_t>(pf.file)].display,
                          pf.line, pf.rule, category, pf.message, pf.symbol});
    }
  }

  // Symbol attribution for per-file findings: the innermost non-lambda
  // symbol whose extent covers the finding line.
  {
    std::map<std::string, std::size_t> by_display;
    for (std::size_t i = 0; i < files.size(); ++i) {
      by_display[files[i].display] = i;
    }
    for (Finding& f : findings) {
      if (!f.symbol.empty()) continue;
      const auto it = by_display.find(f.file);
      if (it == by_display.end()) continue;
      int best_span = -1;
      for (const IndexedSymbol& s : indices[it->second].symbols) {
        if (s.is_lambda) continue;
        if (f.line < s.decl_line || f.line > s.body_end_line) continue;
        const int span = s.body_end_line - s.decl_line;
        if (best_span < 0 || span < best_span) {
          best_span = span;
          f.symbol = s.name;
        }
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

std::string finding_id(const Finding& f, int ordinal) {
  std::string id = f.rule + ":" + f.file + ":" + f.symbol;
  if (ordinal >= 2) {
    id += '#';
    id += std::to_string(ordinal);
  }
  return id;
}

namespace {

/// Ids for a findings list in order, assigning ordinals to duplicates of
/// the same (rule, file, symbol) triple.
std::vector<std::string> finding_ids(const std::vector<Finding>& fs) {
  std::map<std::string, int> seen;
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const Finding& f : fs) {
    const std::string base = finding_id(f, 1);
    const int ordinal = ++seen[base];
    out.push_back(finding_id(f, ordinal));
  }
  return out;
}

}  // namespace

void write_findings_json(std::ostream& os, const std::vector<Finding>& fs) {
  os << "{\"schema_version\":2,\"count\":" << fs.size() << ",\"findings\":[";
  const std::vector<std::string> ids = finding_ids(fs);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const Finding& f = fs[i];
    if (i > 0) os << ",";
    os << "{\"id\":\"" << json_escape(ids[i]) << "\",\"file\":\""
       << json_escape(f.file) << "\",\"line\":" << f.line << ",\"rule\":\""
       << json_escape(f.rule) << "\",\"category\":\""
       << json_escape(f.category) << "\",\"symbol\":\""
       << json_escape(f.symbol) << "\",\"message\":\""
       << json_escape(f.message) << "\"}";
  }
  os << "]}\n";
}

}  // namespace uvmsim::lint
