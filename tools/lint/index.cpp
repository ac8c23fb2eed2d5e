#include "index.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <utility>

namespace uvmsim::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_id(const Token& t, std::string_view text) {
  return t.kind == TokKind::Identifier && t.text == text;
}
bool is_p(const Token& t, std::string_view text) {
  return t.kind == TokKind::Punct && t.text == text;
}

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

/// t[open] must be "<"; returns the index just past the matching ">", or
/// kNpos when the "<" turns out to be a comparison (";" or "{" reached).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].kind != TokKind::Punct) continue;
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

// Identifiers that look like calls but are language constructs.
const std::set<std::string_view>& call_blacklist() {
  static const std::set<std::string_view> k = {
      "if",           "for",        "while",    "switch",   "return",
      "sizeof",       "alignof",    "alignas",  "catch",    "assert",
      "static_assert","decltype",   "noexcept", "new",      "delete",
      "throw",        "defined",    "operator", "case",     "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast",     "typeid",
      "co_return",    "co_await",   "co_yield", "explicit", "requires"};
  return k;
}

const std::set<std::string_view>& alloc_ids() {
  static const std::set<std::string_view> k = {
      "make_unique", "make_shared", "malloc", "calloc",
      "realloc",     "strdup",      "aligned_alloc"};
  return k;
}

const std::set<std::string_view>& io_ids() {
  static const std::set<std::string_view> k = {
      "cout",  "cerr",  "clog",   "printf",   "fprintf", "puts",
      "fputs", "putchar", "fputc", "fopen",   "fwrite",  "ofstream",
      "ifstream", "fstream"};
  return k;
}

const std::set<std::string_view>& clock_ids() {
  static const std::set<std::string_view> k = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "timespec_get", "clock_gettime"};
  return k;
}

const std::set<std::string_view>& rng_ids() {
  static const std::set<std::string_view> k = {
      "srand",      "random_device", "mt19937",       "mt19937_64",
      "minstd_rand","minstd_rand0",  "ranlux24",      "ranlux48",
      "default_random_engine",       "knuth_b",       "drand48",
      "lrand48",    "mrand48"};
  return k;
}

std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

bool contains_ci(const std::string& hay, std::string_view needle) {
  if (needle.empty() || hay.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
    bool ok = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      char a = hay[i + j];
      if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
      if (a != needle[j]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The token-shape parser.
// ---------------------------------------------------------------------------

struct Parser {
  const std::vector<Token>& t;
  FileIndex out;
  std::set<std::string> lane_owned_set;
  std::set<std::string> atomic_set;

  explicit Parser(const LexedFile& lx) : t(lx.tokens) { out.path = lx.path; }

  void run() {
    collect_declared_names();
    scan_scope(0, t.size(), "");
    out.lane_owned.assign(lane_owned_set.begin(), lane_owned_set.end());
    out.atomic_names.assign(atomic_set.begin(), atomic_set.end());
  }

  /// Pass 1: names declared UVMSIM_LANE_OWNED and names of std::atomic
  /// variables — both are escape hatches for the lane/ordering rules, so
  /// they must be known before bodies are judged.
  void collect_declared_names() {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (is_id(t[i], "UVMSIM_LANE_OWNED")) {
        // Declared name: the last identifier before the declaration ends
        // (';', '=', '{' or '(' initializer, or '[' of an array extent).
        std::string name;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (t[j].kind == TokKind::Punct) {
            if (t[j].text == "<") {
              const std::size_t sa = skip_angles(t, j);
              if (sa == kNpos) break;
              j = sa - 1;
              continue;
            }
            if (t[j].text == ";" || t[j].text == "=" || t[j].text == "{" ||
                t[j].text == "[" || t[j].text == "(") {
              break;
            }
            continue;
          }
          if (t[j].kind == TokKind::Identifier) name = t[j].text;
        }
        if (!name.empty()) lane_owned_set.insert(name);
      }
      if (is_id(t[i], "atomic") && i + 1 < t.size() && is_p(t[i + 1], "<")) {
        const std::size_t past = skip_angles(t, i + 1);
        if (past == kNpos || past >= t.size()) continue;
        std::size_t j = past;
        while (j < t.size() &&
               (is_p(t[j], "&") || is_p(t[j], "*") || is_id(t[j], "const"))) {
          ++j;
        }
        if (j < t.size() && t[j].kind == TokKind::Identifier) {
          atomic_set.insert(t[j].text);
        }
      }
    }
  }

  /// Namespace / class / file scope: finds nested scopes and function
  /// definitions; everything else is skipped declaration by declaration.
  void scan_scope(std::size_t lo, std::size_t hi, const std::string& scope) {
    std::size_t decl_start = lo;
    for (std::size_t i = lo; i < hi; ++i) {
      const Token& tok = t[i];
      if (tok.kind == TokKind::Punct) {
        if (tok.text == ";" || tok.text == "}" ) decl_start = i + 1;
        continue;
      }
      if (tok.kind != TokKind::Identifier) continue;

      if (tok.text == "template" && i + 1 < hi && is_p(t[i + 1], "<")) {
        const std::size_t past = skip_angles(t, i + 1);
        if (past != kNpos && past <= hi) i = past - 1;
        continue;
      }
      if (tok.text == "enum") {
        // Skip the whole enumerator list; nothing inside is a symbol.
        for (std::size_t j = i + 1; j < hi; ++j) {
          if (is_p(t[j], ";")) {
            i = j;
            break;
          }
          if (is_p(t[j], "{")) {
            const std::size_t close = match_brace(t, j);
            i = close == kNpos ? hi - 1 : close;
            break;
          }
        }
        decl_start = i + 1;
        continue;
      }
      if (tok.text == "namespace") {
        std::size_t j = i + 1;
        while (j < hi && (t[j].kind == TokKind::Identifier || is_p(t[j], "::"))) {
          ++j;
        }
        if (j < hi && is_p(t[j], "{")) {
          const std::size_t close = match_brace(t, j);
          if (close != kNpos && close <= hi) {
            scan_scope(j + 1, close, scope);
            i = close;
            decl_start = i + 1;
            continue;
          }
        }
        continue;
      }
      if (tok.text == "class" || tok.text == "struct" || tok.text == "union") {
        std::string name;
        std::size_t j = i + 1;
        for (; j < hi; ++j) {
          if (t[j].kind == TokKind::Identifier && name.empty() &&
              t[j].text != "alignas" && t[j].text != "final") {
            name = t[j].text;
            continue;
          }
          if (t[j].kind != TokKind::Punct) continue;
          if (t[j].text == "<") {
            const std::size_t sa = skip_angles(t, j);
            if (sa == kNpos) break;
            j = sa - 1;
            continue;
          }
          if (t[j].text == ";" || t[j].text == "(" || t[j].text == ")" ||
              t[j].text == "=" ) {
            break;  // forward declaration / elaborated type in a signature
          }
          if (t[j].text == "{") {
            const std::size_t close = match_brace(t, j);
            if (close == kNpos || close > hi) break;
            scan_scope(j + 1, close,
                       name.empty() ? scope : scope + name + "::");
            i = close;
            break;
          }
        }
        decl_start = i + 1;
        continue;
      }

      // Function definition candidate: [~]qualified-name "(" ... ")" ... "{"
      if (i + 1 < hi && is_p(t[i + 1], "(") &&
          !call_blacklist().count(tok.text)) {
        const std::size_t close = match_paren(t, i + 1);
        if (close == kNpos || close >= hi) continue;
        const std::size_t body = find_body_after(close, hi);
        if (body == kNpos) continue;
        const std::size_t body_close = match_brace(t, body);
        if (body_close == kNpos || body_close > hi) continue;
        // Qualified name, walking back over "ident ::" pairs.
        std::string name = tok.text;
        std::size_t k = i;
        while (k >= 2 && is_p(t[k - 1], "::") &&
               t[k - 2].kind == TokKind::Identifier) {
          name = t[k - 2].text + "::" + name;
          k -= 2;
        }
        if (k >= 1 && is_p(t[k - 1], "~")) name = "~" + name;
        IndexedSymbol sym;
        sym.name = name.find("::") != std::string::npos ? name : scope + name;
        const std::size_t ds = std::min(decl_start, i);
        sym.decl_line = t[ds < hi ? ds : i].line;
        sym.name_line = tok.line;
        sym.body_begin_line = t[body].line;
        sym.body_end_line = t[body_close].line;
        for (std::size_t a = ds; a < i; ++a) {
          if (is_id(t[a], "UVMSIM_HOT")) sym.is_hot = true;
          if (is_id(t[a], "UVMSIM_ORDERED")) sym.is_ordered = true;
        }
        const int sidx = static_cast<int>(out.symbols.size());
        out.symbols.push_back(std::move(sym));
        scan_body(sidx, body, body_close);
        i = body_close;
        decl_start = i + 1;
        continue;
      }
    }
  }

  /// From the ")" closing a parameter list, walks the trailing tokens
  /// (cv-qualifiers, noexcept, override, trailing return, ctor-init list)
  /// to the body "{". kNpos when the declaration has no body here.
  std::size_t find_body_after(std::size_t close, std::size_t hi) {
    std::size_t j = close + 1;
    while (j < hi) {
      const Token& tok = t[j];
      if (tok.kind == TokKind::Identifier) {
        ++j;
        continue;
      }
      if (tok.kind != TokKind::Punct) return kNpos;
      const std::string& p = tok.text;
      if (p == "{") return j;
      if (p == ";" || p == ",") return kNpos;
      if (p == "=") return kNpos;  // = default / = delete / = 0 / var init
      if (p == "(") {  // noexcept(...) / attribute argument list
        const std::size_t c = match_paren(t, j);
        if (c == kNpos) return kNpos;
        j = c + 1;
        continue;
      }
      if (p == "[") {  // [[attributes]]
        const std::size_t c = match_bracket(t, j);
        if (c == kNpos) return kNpos;
        j = c + 1;
        continue;
      }
      if (p == "<") {
        const std::size_t sa = skip_angles(t, j);
        if (sa == kNpos) return kNpos;
        j = sa;
        continue;
      }
      if (p == ":") {  // ctor-init list: ident (...)|{...} [, ...] then body
        ++j;
        while (j < hi) {
          while (j < hi && (t[j].kind == TokKind::Identifier ||
                            is_p(t[j], "::"))) {
            ++j;
          }
          if (j < hi && is_p(t[j], "<")) {
            const std::size_t sa = skip_angles(t, j);
            if (sa == kNpos) return kNpos;
            j = sa;
          }
          if (j >= hi) return kNpos;
          if (is_p(t[j], "(")) {
            const std::size_t c = match_paren(t, j);
            if (c == kNpos) return kNpos;
            j = c + 1;
          } else if (is_p(t[j], "{")) {
            // Could be a brace initializer or, with an empty init list
            // remainder, the body itself; an initializer brace is always
            // followed by "," or "{".
            const std::size_t c = match_brace(t, j);
            if (c == kNpos || c + 1 >= hi) return kNpos;
            if (is_p(t[c + 1], ",") || is_p(t[c + 1], "{")) {
              j = c + 1;
            } else {
              return j;  // this brace was the body
            }
          } else {
            return kNpos;
          }
          if (j < hi && is_p(t[j], ",")) {
            ++j;
            continue;
          }
          if (j < hi && is_p(t[j], "{")) return j;
          return kNpos;
        }
        return kNpos;
      }
      if (p == "->" || p == "&" || p == "&&" || p == "*" || p == "::" ||
          p == ">") {
        ++j;
        continue;
      }
      return kNpos;
    }
    return kNpos;
  }

  /// True when the "[" at j introduces a lambda (expression position) as
  /// opposed to a subscript, array extent, or attribute.
  bool lambda_intro_ok(std::size_t j, std::size_t rb) const {
    if (j == 0) return false;
    const Token& prev = t[j - 1];
    const bool position_ok =
        (prev.kind == TokKind::Punct && prev.text != ")" &&
         prev.text != "]" && prev.text != "}") ||
        is_id(prev, "return");
    if (!position_ok) return false;
    for (std::size_t k = j + 1; k < rb; ++k) {
      if (is_p(t[k], "[")) return false;  // [[attribute]]
    }
    return true;
  }

  struct CallCtx {
    std::size_t close;
    LaneRole role;
  };

  void scan_body(int sidx, std::size_t open, std::size_t close) {
    collect_locals(sidx, open, close);
    std::vector<CallCtx> ctx;
    for (std::size_t j = open + 1; j < close; ++j) {
      while (!ctx.empty() && j > ctx.back().close) ctx.pop_back();
      const Token& tok = t[j];

      // Nested lambda.
      if (is_p(tok, "[")) {
        const std::size_t rb = match_bracket(t, j);
        if (rb == kNpos || rb >= close || !lambda_intro_ok(j, rb)) continue;
        // Walk from the capture list to the body brace.
        int pd = 0;
        std::size_t params = kNpos;
        std::size_t body = kNpos;
        for (std::size_t k = rb + 1; k < close; ++k) {
          if (t[k].kind != TokKind::Punct) continue;
          if (t[k].text == "(") {
            if (pd == 0 && params == kNpos) params = k;
            ++pd;
          }
          if (t[k].text == ")") --pd;
          if (pd < 0) break;
          if (pd == 0 && (t[k].text == "," || t[k].text == ";" ||
                          t[k].text == "]")) {
            break;
          }
          if (pd == 0 && t[k].text == "{") {
            body = k;
            break;
          }
        }
        if (body == kNpos) continue;
        const std::size_t bend = match_brace(t, body);
        if (bend == kNpos || bend > close) continue;
        IndexedSymbol lam;
        lam.name = out.symbols[static_cast<std::size_t>(sidx)].name +
                   "::{lambda}";
        lam.decl_line = tok.line;
        lam.name_line = tok.line;
        lam.body_begin_line = t[body].line;
        lam.body_end_line = t[bend].line;
        lam.is_lambda = true;
        lam.parent = sidx;
        lam.lane_role = ctx.empty() ? LaneRole::None : ctx.back().role;
        for (std::size_t k = j + 1; k < rb; ++k) {
          if (!is_p(t[k], "&")) continue;
          if (k + 1 < rb && t[k + 1].kind == TokKind::Identifier) {
            lam.ref_captures.push_back(t[k + 1].text);
            ++k;
          } else {
            lam.default_ref_capture = true;
          }
        }
        const int lidx = static_cast<int>(out.symbols.size());
        out.symbols.push_back(std::move(lam));
        if (params != kNpos) collect_params(lidx, params);
        out.symbols[static_cast<std::size_t>(sidx)].calls.push_back(
            {out.symbols[static_cast<std::size_t>(lidx)].name, tok.line,
             lidx});
        scan_body(lidx, body, bend);
        j = bend;
        continue;
      }

      if (tok.kind == TokKind::Punct) {
        record_write(sidx, open, j, close);
        continue;
      }
      if (tok.kind != TokKind::Identifier) continue;
      IndexedSymbol& sym = out.symbols[static_cast<std::size_t>(sidx)];
      const bool next_is_call = j + 1 < close && is_p(t[j + 1], "(");

      // Range-for loops, kept for the unordered-sink rule.
      if (tok.text == "for" && next_is_call) {
        record_loop(sidx, j, close);
        continue;
      }

      // Call sites.
      if (next_is_call && !call_blacklist().count(tok.text)) {
        std::string name = tok.text;
        std::size_t k = j;
        while (k >= 2 && is_p(t[k - 1], "::") &&
               t[k - 2].kind == TokKind::Identifier) {
          name = t[k - 2].text + "::" + name;
          k -= 2;
        }
        if (name.rfind("std::", 0) != 0) {
          sym.calls.push_back({name, tok.line, -1});
          const std::string base = last_component(name);
          if (sym.first_merge_line == 0 &&
              (contains_ci(base, "merge") || base == "for_lanes" ||
               base == "lane_reduce")) {
            sym.first_merge_line = tok.line;
          }
          LaneRole role = LaneRole::None;
          const bool member_call =
              k >= 1 && (is_p(t[k - 1], ".") || is_p(t[k - 1], "->"));
          if (base == "for_lanes" && member_call) role = LaneRole::ForLanes;
          if (base == "lane_reduce") role = LaneRole::LaneReduce;
          if (base == "submit" && member_call) role = LaneRole::Submit;
          if ((base == "map" || base == "sweep") && member_call) {
            role = LaneRole::SweepMap;
          }
          if (role != LaneRole::None) {
            const std::size_t c = match_paren(t, j + 1);
            if (c != kNpos && c < close) ctx.push_back({c, role});
          }
        }
      }

      // Fact sites.
      if (tok.text == "new" && !(j >= 1 && is_id(t[j - 1], "operator"))) {
        sym.alloc_sites.push_back({"new", tok.line});
      } else if (alloc_ids().count(tok.text) &&
                 (next_is_call || (j + 1 < close && is_p(t[j + 1], "<")))) {
        sym.alloc_sites.push_back({tok.text, tok.line});
      }
      if (io_ids().count(tok.text)) sym.io_sites.push_back({tok.text, tok.line});
      if (clock_ids().count(tok.text) ||
          (tok.text == "time" && next_is_call)) {
        sym.clock_sites.push_back({tok.text, tok.line});
      }
      if (rng_ids().count(tok.text) || (tok.text == "rand" && next_is_call)) {
        sym.rng_sites.push_back({tok.text, tok.line});
      }
      if ((tok.text.size() > 1 && tok.text.back() == '_') ||
          lane_owned_set.count(tok.text)) {
        auto& mu = sym.member_uses;
        if (mu.empty() || mu.back().what != tok.text ||
            mu.back().line != tok.line) {
          mu.push_back({tok.text, tok.line});
        }
      }
    }
  }

  /// Records parameter names of the lambda whose parameter list opens at
  /// `params` as locals.
  void collect_params(int sidx, std::size_t params) {
    const std::size_t close = match_paren(t, params);
    if (close == kNpos) return;
    IndexedSymbol& sym = out.symbols[static_cast<std::size_t>(sidx)];
    int pd = 0;
    std::string last;
    for (std::size_t k = params; k <= close; ++k) {
      if (t[k].kind == TokKind::Punct) {
        if (t[k].text == "(") ++pd;
        if (t[k].text == ")") --pd;
        if ((t[k].text == "," && pd == 1) || (t[k].text == ")" && pd == 0)) {
          if (!last.empty()) sym.locals.push_back(last);
          last.clear();
        }
      } else if (t[k].kind == TokKind::Identifier) {
        last = t[k].text;
      }
    }
  }

  /// Declaration-shaped identifiers in the body become locals: an
  /// identifier with a type-ish predecessor and a declarator-ish successor.
  /// Over-matching only hides findings; it never invents one.
  void collect_locals(int sidx, std::size_t open, std::size_t close) {
    IndexedSymbol& sym = out.symbols[static_cast<std::size_t>(sidx)];
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].kind != TokKind::Identifier || k == 0 || k + 1 >= t.size()) {
        continue;
      }
      const Token& prev = t[k - 1];
      const Token& next = t[k + 1];
      const bool typeish_prev =
          prev.kind == TokKind::Identifier ||
          (prev.kind == TokKind::Punct &&
           (prev.text == ">" || prev.text == "*" || prev.text == "&" ||
            prev.text == "&&"));
      const bool declish_next =
          next.kind == TokKind::Punct &&
          (next.text == "=" || next.text == "{" || next.text == ";" ||
           next.text == ":" || next.text == "(");
      if (typeish_prev && declish_next) sym.locals.push_back(t[k].text);
    }
  }

  /// Base identifier of the postfix chain written just before `op`, plus
  /// whether any subscript along the chain names a lambda-local.
  void record_write(int sidx, std::size_t open, std::size_t op,
                    std::size_t close) {
    IndexedSymbol& sym = out.symbols[static_cast<std::size_t>(sidx)];
    if (!sym.is_lambda) return;
    static const std::set<std::string_view> kAssignOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>="};
    const Token& tok = t[op];
    std::string target;
    bool lane_indexed = false;
    const std::set<std::string> locals(sym.locals.begin(), sym.locals.end());
    if (tok.text == "++" || tok.text == "--") {
      if (op + 1 < close && t[op + 1].kind == TokKind::Identifier) {
        target = t[op + 1].text;  // prefix
      } else {
        target = walk_target(open, op, locals, lane_indexed);
      }
    } else if (kAssignOps.count(tok.text)) {
      target = walk_target(open, op, locals, lane_indexed);
    }
    if (target.empty()) return;
    sym.lane_writes.push_back({target, tok.line, lane_indexed});
  }

  std::string walk_target(std::size_t lo, std::size_t op,
                          const std::set<std::string>& locals,
                          bool& lane_indexed) {
    std::size_t pos = op;
    // Compound |= &= ^= lex as two tokens; step over the operator half.
    if (pos > lo && is_p(t[op], "=") &&
        (is_p(t[pos - 1], "|") || is_p(t[pos - 1], "&") ||
         is_p(t[pos - 1], "^"))) {
      --pos;
    }
    while (pos > lo) {
      --pos;
      const Token& tok = t[pos];
      if (tok.kind == TokKind::Punct && tok.text == "]") {
        int depth = 0;
        while (pos > lo) {
          if (is_p(t[pos], "]")) ++depth;
          if (is_p(t[pos], "[") && --depth == 0) break;
          if (t[pos].kind == TokKind::Identifier && locals.count(t[pos].text)) {
            lane_indexed = true;
          }
          --pos;
        }
        continue;
      }
      if (tok.kind == TokKind::Identifier) {
        if (pos > lo && (is_p(t[pos - 1], ".") || is_p(t[pos - 1], "->") ||
                         is_p(t[pos - 1], "::"))) {
          --pos;
          continue;
        }
        return tok.text;
      }
      return "";  // parenthesized / dereferenced target: give up silently
    }
    return "";
  }

  void record_loop(int sidx, std::size_t for_tok, std::size_t scope_close) {
    const std::size_t open = for_tok + 1;
    const std::size_t close = match_paren(t, open);
    if (close == kNpos || close >= scope_close) return;
    int depth = 0;
    std::size_t colon = kNpos;
    for (std::size_t j = open; j < close; ++j) {
      if (t[j].kind != TokKind::Punct) continue;
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") --depth;
      if (depth == 1 && t[j].text == ";") return;  // classic for loop
      if (depth == 1 && t[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon == kNpos) return;
    UnorderedLoop loop;
    loop.line = t[for_tok].line;
    loop.symbol = sidx;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind == TokKind::Identifier && t[j].text != "std") {
        loop.containers.push_back(t[j].text);
      }
    }
    // Body: the following brace block, or the single statement up to ";".
    std::size_t blo = close + 1;
    std::size_t bhi;
    if (blo < scope_close && is_p(t[blo], "{")) {
      bhi = match_brace(t, blo);
      if (bhi == kNpos || bhi > scope_close) return;
    } else {
      bhi = blo;
      while (bhi < scope_close && !is_p(t[bhi], ";")) ++bhi;
    }
    for (std::size_t j = blo; j < bhi; ++j) {
      if (t[j].kind != TokKind::Identifier) continue;
      if (io_ids().count(t[j].text)) loop.direct_io = true;
      if (j + 1 < bhi && is_p(t[j + 1], "(") &&
          !call_blacklist().count(t[j].text)) {
        std::string name = t[j].text;
        std::size_t k = j;
        while (k >= 2 && is_p(t[k - 1], "::") &&
               t[k - 2].kind == TokKind::Identifier) {
          name = t[k - 2].text + "::" + name;
          k -= 2;
        }
        if (name.rfind("std::", 0) != 0) {
          loop.body_calls.push_back({name, t[j].line, -1});
        }
      }
    }
    out.loops.push_back(std::move(loop));
  }
};

}  // namespace

FileIndex index_file(const LexedFile& lx) {
  Parser p(lx);
  p.run();
  return std::move(p.out);
}

}  // namespace uvmsim::lint
