// Whole-program symbol index for uvmsim_lint's project mode.
//
// index_file() parses one lexed TU into symbols — functions, methods, and
// lambdas — with call edges, lambda capture lists, annotation flags
// (UVMSIM_HOT / UVMSIM_ORDERED), and the "fact sites" the semantic rules
// consume (allocation / I/O / clock / RNG identifiers, member uses, writes
// inside lane bodies, range-for loops). Every run indexes every TU afresh.
//
// This is deliberately not a C++ front end: symbols are recognized by token
// shape (qualified-name + parameter list + body brace), calls by
// `identifier (`, lambdas by a capture introducer in expression position.
// Over-approximation is fine — the rule passes in callgraph.cpp/dataflow.cpp
// are tuned so extra edges can only add findings that a typed suppression
// documents, never change simulation behavior.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lexer.h"

namespace uvmsim::lint {

/// A call site inside a symbol body. `name` is the spelled callee —
/// possibly qualified ("Preprocessor::fetch"), never macro-expanded. When
/// the callee is a lambda defined in the same file, `local_target` holds
/// its index in FileIndex::symbols and `name` is the lambda's display name.
struct CallSite {
  std::string name;
  int line = 0;
  int local_target = -1;
};

/// One occurrence of a rule-relevant identifier (an allocation call, an
/// I/O stream, a clock, an RNG engine, or a member-convention use).
struct FactSite {
  std::string what;
  int line = 0;
};

/// A write (assignment / increment / decrement) inside a lambda body, with
/// the base identifier of the written chain and whether any subscript along
/// the chain indexes by a lambda-local (the lane-indexed escape hatch).
struct LaneWrite {
  std::string target;
  int line = 0;
  bool lane_indexed = false;
};

/// Which task-spawning call a lambda was passed to, if any.
enum class LaneRole : std::uint8_t {
  None = 0,
  ForLanes,
  LaneReduce,
  Submit,
  SweepMap,
};

struct IndexedSymbol {
  std::string name;        ///< best-effort qualified ("ThreadPool::for_lanes")
  int decl_line = 0;       ///< first line of the declaration (annotations)
  int name_line = 0;       ///< line of the name token / lambda introducer
  int body_begin_line = 0; ///< line of the opening "{"
  int body_end_line = 0;   ///< line of the matching "}"
  bool is_hot = false;     ///< UVMSIM_HOT on the definition
  bool is_ordered = false; ///< UVMSIM_ORDERED on the definition
  bool is_lambda = false;
  int parent = -1;                       ///< enclosing symbol (lambdas)
  LaneRole lane_role = LaneRole::None;   ///< task call the lambda feeds
  bool default_ref_capture = false;      ///< [&] present
  std::vector<std::string> ref_captures; ///< names captured by reference
  std::vector<std::string> locals;       ///< params + body declarations
  std::vector<CallSite> calls;
  std::vector<FactSite> alloc_sites;  ///< new/make_unique/malloc/...
  std::vector<FactSite> io_sites;     ///< cout/printf/ofstream/...
  std::vector<FactSite> clock_sites;  ///< system_clock/steady_clock/...
  std::vector<FactSite> rng_sites;    ///< mt19937/random_device/...
  /// Uses of member-convention identifiers (trailing '_') and of names the
  /// file declares UVMSIM_LANE_OWNED — the ordering-authority purity rule's
  /// read set.
  std::vector<FactSite> member_uses;
  std::vector<LaneWrite> lane_writes;  ///< writes, lambdas only
  /// First line at which lane state is considered merged inside this body:
  /// the first call whose callee names a merge/join/fork-join primitive
  /// (contains "merge", or is for_lanes/lane_reduce). 0 = no merge point.
  int first_merge_line = 0;
};

/// A range-for loop, kept so project mode can re-judge unordered-container
/// iteration by whether the body reaches an output sink.
struct UnorderedLoop {
  int line = 0;
  int symbol = -1;  ///< enclosing symbol index, -1 at file scope
  std::vector<std::string> containers;  ///< identifiers in the range expr
  std::vector<CallSite> body_calls;
  bool direct_io = false;  ///< body itself names an I/O identifier
};

struct FileIndex {
  std::string path;  ///< display path (diagnostics only)
  std::vector<IndexedSymbol> symbols;
  std::vector<std::string> lane_owned;    ///< UVMSIM_LANE_OWNED declarations
  std::vector<std::string> atomic_names;  ///< names declared std::atomic<...>
  std::vector<UnorderedLoop> loops;
};

/// Parses one lexed TU. Pure function of the token stream.
[[nodiscard]] FileIndex index_file(const LexedFile& lx);

}  // namespace uvmsim::lint
