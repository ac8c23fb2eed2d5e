// End-to-end tests of the uvmsim_cli binary (path injected by CMake as
// UVMSIM_CLI_PATH): argument handling, report output, trace round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;
};

CmdResult run_cli(const std::string& args) {
  std::string cmd = std::string(UVMSIM_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CmdResult res;
  if (pipe == nullptr) return res;
  char buf[4096];
  while (fgets(buf, sizeof buf, pipe) != nullptr) res.output += buf;
  int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

TEST(Cli, HelpExitsCleanly) {
  CmdResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--workload"), std::string::npos);
  EXPECT_NE(r.output.find("--replay-trace"), std::string::npos);
}

TEST(Cli, UnknownOptionFails) {
  CmdResult r = run_cli("--frobnicate");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  CmdResult r = run_cli("--workload");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("missing value"), std::string::npos);
}

TEST(Cli, BadWorkloadFails) {
  CmdResult r = run_cli("--workload nope --size-mib 4");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
}

TEST(Cli, BadEnumValuesFail) {
  EXPECT_NE(run_cli("--prefetch sideways").exit_code, 0);
  EXPECT_NE(run_cli("--prefetch-policy oracle").exit_code, 0);
  EXPECT_NE(run_cli("--eviction-policy fifo").exit_code, 0);
  // The string knobs go through the campaign's request_sim_config: a bad
  // value is a usage error (exit 1, before any run) whose message names
  // the flag and lists the accepted values.
  const struct {
    const char* flag;
    const char* wants;
  } cases[] = {
      {"--backend", "driver|gpu"},
      {"--policy", "block|batch|batch_flush|once"},
      {"--eviction", "lru|access_counter|clock|2q"},
      {"--chunking", "on|off"},
      {"--thrash", "off|detect|pin|throttle"},
  };
  for (const auto& c : cases) {
    const CmdResult r = run_cli(std::string(c.flag) + " bogus");
    EXPECT_EQ(r.exit_code, 1) << c.flag << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("bad ") + c.flag + ": wants " +
                            c.wants + ", got 'bogus'"),
              std::string::npos)
        << r.output;
  }
}

TEST(Cli, PolicyPanelRunsAndReportsMarkovCounters) {
  CmdResult r = run_cli(
      "--workload strided --size-mib 8 --gpu-mib 4 "
      "--prefetch-policy markov --eviction clock");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("markov_observes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("markov_blocks_prefetched"), std::string::npos);
  // The 2Q panel member and the --eviction-policy alias both run.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --gpu-mib 16 "
                    "--eviction-policy 2q")
                .exit_code,
            0);
}

TEST(Cli, MarkovRejectsAdaptivePrefetchCombination) {
  CmdResult r = run_cli(
      "--workload regular --size-mib 4 --prefetch adaptive "
      "--prefetch-policy markov");
  EXPECT_NE(r.exit_code, 0);
}

TEST(Cli, SingleAxisPrefetchSpellingsMatchLegacy) {
  const std::string base =
      "--workload strided --size-mib 8 --gpu-mib 4 --eviction clock ";
  const CmdResult markov = run_cli(base + "--prefetch markov");
  EXPECT_EQ(markov.exit_code, 0) << markov.output;
  EXPECT_EQ(markov.output,
            run_cli(base + "--prefetch on --prefetch-policy markov").output);
  EXPECT_EQ(run_cli(base + "--prefetch tree").output, run_cli(base).output);
  // A usage error (exit 1), like every other bad flag value.
  EXPECT_EQ(run_cli(base + "--prefetch tree --prefetch-policy markov")
                .exit_code,
            1);
}

TEST(Cli, PolicyPanelOutputIsLaneInvariant) {
  // The PR-10 determinism contract at the CLI level: the learned prefetcher
  // and the new eviction policies must print byte-identical reports for any
  // lane count.
  const std::string base =
      "--workload strided --size-mib 12 --gpu-mib 8 "
      "--prefetch-policy markov --eviction ";
  for (const char* ev : {"clock", "2q"}) {
    CmdResult one = run_cli(base + ev + " --lanes 1");
    CmdResult four = run_cli(base + ev + " --lanes 4");
    EXPECT_EQ(one.exit_code, 0) << one.output;
    EXPECT_EQ(one.output, four.output) << "eviction=" << ev;
  }
}

TEST(Cli, GpuBackendRuns) {
  CmdResult r =
      run_cli("--workload regular --size-mib 4 --gpu-mib 16 --backend gpu");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel"), std::string::npos) << r.output;
}

TEST(Cli, BasicRunPrintsReport) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --gpu-mib 16");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel_time"), std::string::npos);
  EXPECT_NE(r.output.find("faults_serviced"), std::string::npos);
  EXPECT_NE(r.output.find("migrate_pages"), std::string::npos);
  EXPECT_NE(r.output.find("warp_stall"), std::string::npos);
}

TEST(Cli, CsvModeEmitsCsv) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --csv");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("csv,metric,value"), std::string::npos);
}

TEST(Cli, PatternModePrintsScatterAndTimeline) {
  CmdResult r = run_cli("--workload stream --size-mib 6 --pattern");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("access pattern"), std::string::npos);
  EXPECT_NE(r.output.find("activity over time"), std::string::npos);
}

TEST(Cli, BaselineComparison) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --baseline");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("explicit-transfer baseline"), std::string::npos);
}

TEST(Cli, TraceDumpAndReplayRoundTrip) {
  std::string trace = std::string(::testing::TempDir()) + "/cli_test.trace";
  CmdResult dump = run_cli("--workload stream --size-mib 6 --dump-trace " +
                           trace);
  ASSERT_EQ(dump.exit_code, 0) << dump.output;
  std::ifstream f(trace);
  ASSERT_TRUE(f.good());
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "uvmsim-trace v1");

  CmdResult replay = run_cli("--replay-trace " + trace);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("faults_serviced"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, DriverTraceOutWritesChromeJson) {
  std::string trace = std::string(::testing::TempDir()) + "/driver.trace.json";
  CmdResult r = run_cli(
      "--workload random --size-mib 24 --gpu-mib 16 --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("driver trace:"), std::string::npos);
  EXPECT_NE(r.output.find("p99_us"), std::string::npos);  // summary table
  std::ifstream f(trace);
  ASSERT_TRUE(f.good());
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  for (const char* cat :
       {"fetch", "service", "prefetch", "replay", "eviction"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << "missing category " << cat;
  }
  std::remove(trace.c_str());
}

TEST(Cli, TraceCategoriesFilterAndValidation) {
  std::string trace = std::string(::testing::TempDir()) + "/evict.trace.json";
  CmdResult r = run_cli(
      "--workload random --size-mib 24 --gpu-mib 16 "
      "--trace-categories eviction --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(trace);
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"cat\":\"eviction\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"service\",\"ph\":"), std::string::npos);
  std::remove(trace.c_str());

  CmdResult bad = run_cli("--trace-out x.json --trace-categories bogus");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("bad --trace-categories"), std::string::npos);
}

TEST(Cli, NoTraceFlagsNoTraceOutput) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --gpu-mib 16");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("driver trace"), std::string::npos);
}

TEST(Cli, ReplayMissingTraceFails) {
  CmdResult r = run_cli("--replay-trace /does/not/exist.trace");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(Cli, ConfigKnobsAccepted) {
  CmdResult r = run_cli(
      "--workload random --size-mib 6 --gpu-mib 16 --prefetch adaptive "
      "--policy once --eviction access_counter --chunking on "
      "--split-watermark 0.1 --fine-watermark 0.02 "
      "--batch-size 64 --thrash pin --seed 7");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Cli, BadChunkingConfigRejected) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --chunking maybe");
  EXPECT_NE(r.exit_code, 0) << r.output;

  // fine > split violates the watermark ordering: config error exit code.
  CmdResult r2 = run_cli(
      "--workload regular --size-mib 4 --split-watermark 0.1 "
      "--fine-watermark 0.5");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  EXPECT_NE(r2.output.find("config error"), std::string::npos);
}

TEST(Cli, ConfigErrorGetsDistinctExitCode) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --batch-size 0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("config error"), std::string::npos);
  EXPECT_NE(r.output.find("batch_size"), std::string::npos);

  CmdResult r2 = run_cli(
      "--workload regular --size-mib 4 --hazard-dma-fail-rate 1.5");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  EXPECT_NE(r2.output.find("config error"), std::string::npos);
}

TEST(Cli, OutOfRangeIntegersAreUsageErrors) {
  // Each used to run: -1 wrapped to a 4294967295-fault batch, 2^32+51
  // truncated to a threshold of 51, (2^44+1) MiB overflowed << 20 into a
  // 1 MiB GPU, and a threshold outside 1..100 ran as another prefetch
  // policy.
  const struct {
    const char* args;
    const char* message;
  } cases[] = {
      {"--batch-size -1", "bad --batch-size: wants a non-negative integer"},
      {"--threshold 4294967347",
       "bad --threshold: wants an integer no greater than 4294967295"},
      {"--gpu-mib 17592186044417",
       "bad --gpu-mib: wants an integer no greater than 17592186044415"},
      {"--size-mib 17592186044416", "bad --size-mib: wants an integer"},
      {"--seed -3", "bad --seed: wants a non-negative integer"},
      {"--hazard-seed 18446744073709551616",
       "bad --hazard-seed: wants an integer no greater than"},
      {"--trace-cap -1", "bad --trace-cap: wants a non-negative integer"},
      {"--batch-size 12x", "bad --batch-size: wants a non-negative integer"},
      {"--threshold 0", "bad --threshold: wants a percent in 1..100, got 0"},
      {"--threshold 101",
       "bad --threshold: wants a percent in 1..100, got 101"},
      {"--threshold 4294967295",
       "bad --threshold: wants a percent in 1..100, got 4294967295"},
  };
  for (const auto& c : cases) {
    const CmdResult r =
        run_cli(std::string("--workload regular --size-mib 4 ") + c.args);
    EXPECT_EQ(r.exit_code, 1) << c.args << ": " << r.output;
    EXPECT_NE(r.output.find(c.message), std::string::npos)
        << c.args << ": " << r.output;
  }
  // The bounds of each range still parse.
  const CmdResult max = run_cli(
      "--workload regular --size-mib 4 --gpu-mib 16 "
      "--batch-size 4294967295 --seed 18446744073709551615 --threshold 100");
  EXPECT_EQ(max.output.find("wants"), std::string::npos) << max.output;
  const CmdResult min =
      run_cli("--workload regular --size-mib 4 --gpu-mib 16 --threshold 1");
  EXPECT_EQ(min.exit_code, 0) << min.output;
}

// Pins the tool-wide exit-code matrix (core/errors.h): 0 success, 1
// usage / I/O, 2 invalid configuration, 3 simulation failure. uvm_campaign
// exits with the same table (plus 4 = quarantined) and ProcessWorker
// classifies child exits by inverting it, so drift here silently corrupts
// fleet retry policy.
TEST(Cli, ExitCodeMatrix) {
  // 0: a successful run.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --gpu-mib 16").exit_code,
            0);
  // 1: usage problems (bad flag, bad workload name) and I/O failures share
  // the generic error code.
  EXPECT_EQ(run_cli("--frobnicate").exit_code, 1);
  EXPECT_EQ(run_cli("--workload").exit_code, 1);
  EXPECT_EQ(run_cli("--workload nope --size-mib 4").exit_code, 1);
  // A missing replay trace is an I/O-class failure, not a config error.
  EXPECT_EQ(run_cli("--replay-trace /does/not/exist.trace").exit_code, 1);
  // 2: ConfigError — deterministic, never retried by the campaign.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --batch-size 0")
                .exit_code,
            2);
  // 3 (SimulationError) has no benign deterministic trigger from flags;
  // the mapping is pinned at the unit level (campaign_test exit-matrix
  // round trip) and exercised end-to-end by the campaign worker tests.
}

TEST(Cli, HazardRunPrintsRecoveryReport) {
  CmdResult r = run_cli(
      "--workload sgemm --size-mib 24 --gpu-mib 16 "
      "--hazard-dma-fail-rate 0.05 --hazard-pma-fail-rate 0.05");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("hazard injection & recovery"), std::string::npos);
  EXPECT_NE(r.output.find("dma_retries"), std::string::npos);
}

TEST(Cli, ZeroHazardRatesStaySilent) {
  CmdResult r = run_cli(
      "--workload regular --size-mib 4 --hazard-dma-fail-rate 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("hazard injection"), std::string::npos);
}

}  // namespace
