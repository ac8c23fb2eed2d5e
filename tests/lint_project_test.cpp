// Whole-program (project-mode) tests for uvmsim_lint: call-graph
// reachability, the dataflow rules, stable finding ids and the JSON shape.
// Golden fixtures live in tests/lint_fixtures/; the self-analysis test runs
// the analyzer over the real src, bench and tools trees and must find
// nothing.
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"

namespace {

using uvmsim::lint::Finding;
using uvmsim::lint::Linter;
using uvmsim::lint::LintOptions;

std::string fixture(const std::string& name) {
  return std::string(UVMSIM_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> lint_project(const std::vector<std::string>& names) {
  LintOptions opts;
  opts.root = UVMSIM_LINT_FIXTURES;
  opts.project = true;
  Linter linter(opts);
  for (const std::string& n : names) {
    EXPECT_TRUE(linter.add_path(fixture(n))) << "cannot read fixture " << n;
  }
  return linter.run();
}

std::string describe(const std::vector<Finding>& fs) {
  std::ostringstream os;
  for (const auto& f : fs) {
    os << "  " << f.file << ":" << f.line << " [" << f.rule << "] ("
       << f.symbol << ") " << f.message << "\n";
  }
  return os.str();
}

TEST(LintProject, HotTransitiveAllocCaughtWithFullChain) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  const Finding& f = found[0];
  EXPECT_EQ(f.rule, "hot-transitive-alloc");
  EXPECT_EQ(f.category, "allocation");
  // The allocation sits two calls below the UVMSIM_HOT entry; the finding
  // must carry the whole chain, in call order.
  const std::size_t p_entry = f.message.find("hot_entry");
  const std::size_t p_one = f.message.find("stage_one");
  const std::size_t p_two = f.message.find("stage_two");
  EXPECT_NE(p_entry, std::string::npos) << f.message;
  EXPECT_NE(p_one, std::string::npos) << f.message;
  EXPECT_NE(p_two, std::string::npos) << f.message;
  EXPECT_LT(p_entry, p_one);
  EXPECT_LT(p_one, p_two);
  EXPECT_NE(f.message.find("make_shared"), std::string::npos) << f.message;
  // Attribution: the finding belongs to the allocating function.
  EXPECT_NE(f.symbol.find("stage_two"), std::string::npos) << f.symbol;
}

TEST(LintProject, LaneCaptureEscapeDetected) {
  const std::vector<Finding> found = lint_project({"lane_capture_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  EXPECT_EQ(found[0].rule, "lane-capture-escape");
  EXPECT_NE(found[0].message.find("total_"), std::string::npos)
      << found[0].message;
}

TEST(LintProject, OrderedReadsLaneOwnedDetected) {
  const std::vector<Finding> found =
      lint_project({"ordered_reads_lane_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  EXPECT_EQ(found[0].rule, "ordered-reads-lane-owned");
  EXPECT_NE(found[0].message.find("lane_totals_"), std::string::npos)
      << found[0].message;
  // The read happens in a helper, so the finding names the chain.
  EXPECT_NE(found[0].message.find("walk"), std::string::npos)
      << found[0].message;
}

TEST(LintProject, UnorderedSinkIterationDetected) {
  const std::vector<Finding> found = lint_project({"unordered_sink_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  EXPECT_EQ(found[0].rule, "unordered-sink-iteration");
  EXPECT_NE(found[0].message.find("counts"), std::string::npos)
      << found[0].message;
  EXPECT_NE(found[0].message.find("emit"), std::string::npos)
      << found[0].message;
}

TEST(LintProject, CleanFixturesAreClean) {
  for (const char* name :
       {"hot_transitive_clean.cpp", "lane_capture_clean.cpp",
        "ordered_reads_lane_clean.cpp", "unordered_sink_clean.cpp"}) {
    SCOPED_TRACE(name);
    const std::vector<Finding> found = lint_project({name});
    EXPECT_TRUE(found.empty()) << describe(found);
  }
}

TEST(LintProject, StableFindingIdsIgnoreLines) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_EQ(found.size(), 1u);
  const std::string id = uvmsim::lint::finding_id(found[0], 1);
  // rule:file:symbol — no line number anywhere, so ids survive churn.
  EXPECT_EQ(id.find("hot-transitive-alloc:"), 0u) << id;
  EXPECT_NE(id.find("hot_transitive_bad.cpp"), std::string::npos) << id;
  EXPECT_NE(id.find("stage_two"), std::string::npos) << id;
  EXPECT_EQ(id.find(std::to_string(found[0].line) + ":"), std::string::npos);
  // Ordinals disambiguate repeats of the same (rule, file, symbol).
  EXPECT_EQ(uvmsim::lint::finding_id(found[0], 2), id + "#2");
}

TEST(LintProject, JsonUsesSchemaVersion2WithIds) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_FALSE(found.empty());
  std::ostringstream os;
  uvmsim::lint::write_findings_json(os, found);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":\"hot-transitive-alloc:"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"symbol\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Self-analysis: the trees scripts/ci.sh lints have no findings.
// ---------------------------------------------------------------------------

TEST(LintSelfAnalysis, SrcBenchToolsHaveNoFindings) {
  const std::string root = UVMSIM_REPO_ROOT;
  LintOptions opts;
  opts.root = root;
  opts.project = true;
  Linter linter(opts);
  for (const char* dir : {"/src", "/bench", "/tools"}) {
    ASSERT_TRUE(linter.add_path(root + dir)) << root << dir;
  }
  const std::vector<Finding> found = linter.run();
  EXPECT_TRUE(found.empty()) << "fix these or add a justified suppression:\n"
                             << describe(found);
}

}  // namespace
