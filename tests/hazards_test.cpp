// Hazard injection and driver error recovery: injector determinism, retry
// and backoff accounting, watchdog / storm escalation, and the graceful
// no-victim degradation path.
#include <gtest/gtest.h>

#include "core/errors.h"
#include "core/simulator.h"
#include "sim/hazards.h"
#include "workloads/registry.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig base() {
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  return cfg;
}

RunResult run_regular(const SimConfig& cfg, std::uint64_t bytes) {
  Simulator sim(cfg);
  RegularTouch wl(bytes);
  wl.setup(sim);
  return sim.run();
}

RunResult run_named(const SimConfig& cfg, const std::string& name,
                    std::uint64_t bytes) {
  Simulator sim(cfg);
  auto wl = make_workload(name, bytes);
  wl->setup(sim);
  return sim.run();
}

// --- injector unit tests -------------------------------------------------

TEST(HazardInjector, ZeroRatesNeverFireAndNeverDraw) {
  HazardConfig hc;
  EXPECT_FALSE(hc.any());
  HazardInjector inj(hc);
  EXPECT_FALSE(inj.enabled());
  for (SimTime t = 0; t < 1000; ++t) {
    EXPECT_FALSE(inj.dma_copy_fails(t));
    EXPECT_EQ(inj.fb_corruption(t), FbCorruption::None);
    EXPECT_FALSE(inj.pma_transient_failure(t));
    EXPECT_FALSE(inj.access_counter_lost(t));
  }
  EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(HazardInjector, SameSeedSameDecisionSequence) {
  HazardConfig hc;
  hc.seed = 99;
  hc.dma_fail_rate = 0.3;
  hc.fb_corrupt_rate = 0.3;
  HazardInjector a(hc), b(hc);
  for (SimTime t = 0; t < 2000; ++t) {
    EXPECT_EQ(a.dma_copy_fails(t), b.dma_copy_fails(t));
    EXPECT_EQ(a.fb_corruption(t), b.fb_corruption(t));
  }
  EXPECT_EQ(a.stats().dma_failures, b.stats().dma_failures);
  EXPECT_GT(a.stats().dma_failures, 0u);
  EXPECT_GT(a.stats().fb_dropped + a.stats().fb_duplicated +
                a.stats().fb_stalled,
            0u);
}

TEST(HazardInjector, ClassStreamsAreIndependent) {
  // Enabling a second hazard class must not perturb the first class's
  // decision sequence (each class forks its own Rng stream).
  HazardConfig solo;
  solo.seed = 7;
  solo.dma_fail_rate = 0.25;
  HazardConfig both = solo;
  both.pma_fail_rate = 0.25;
  HazardInjector a(solo), b(both);
  for (SimTime t = 0; t < 2000; ++t) {
    EXPECT_EQ(a.dma_copy_fails(t), b.dma_copy_fails(t));
    (void)b.pma_transient_failure(t);
  }
}

TEST(HazardInjector, WindowGatesInjection) {
  HazardConfig hc;
  hc.seed = 5;
  hc.dma_fail_rate = 0.9;
  hc.window_start = 100;
  hc.window_end = 200;
  HazardInjector inj(hc);
  for (SimTime t = 0; t < 100; ++t) EXPECT_FALSE(inj.dma_copy_fails(t));
  bool fired = false;
  for (SimTime t = 100; t < 200; ++t) fired |= inj.dma_copy_fails(t);
  EXPECT_TRUE(fired);
  for (SimTime t = 200; t < 300; ++t) EXPECT_FALSE(inj.dma_copy_fails(t));
}

TEST(HazardInjector, RejectsInvalidConfig) {
  HazardConfig hc;
  hc.dma_fail_rate = 1.0;  // certain failure would retry forever
  EXPECT_THROW(HazardInjector{hc}, ConfigError);
  hc.dma_fail_rate = -0.1;
  EXPECT_THROW(HazardInjector{hc}, ConfigError);
  hc.dma_fail_rate = 0.5;
  hc.window_start = 200;
  hc.window_end = 100;
  EXPECT_THROW(HazardInjector{hc}, ConfigError);
}

TEST(ConfigErrorType, CarriesParameterAndReadsAsInvalidArgument) {
  HazardConfig hc;
  hc.fb_corrupt_rate = 2.0;
  try {
    HazardInjector inj(hc);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("fb_corrupt_rate"),
              std::string::npos);
    EXPECT_NE(e.param().find("fb_corrupt_rate"), std::string::npos);
  }
  // Existing call sites catch std::invalid_argument; the structured type
  // must remain convertible.
  SimConfig cfg = base();
  cfg.driver.batch_size = 0;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  EXPECT_THROW(Simulator{cfg}, ConfigError);
}

TEST(ConfigErrorType, NegativeHazardRateRejectedAtSimulatorLevel) {
  // A negative rate must reach the injector's validation rather than
  // silently reading as "hazards disabled".
  SimConfig cfg = base();
  cfg.hazards.pma_fail_rate = -0.2;
  EXPECT_THROW(Simulator{cfg}, ConfigError);
}

// --- fault-buffer overflow (no hazards needed) ---------------------------

TEST(FaultBufferOverflow, PastCapacityDropsAreCountedAndRunCompletes) {
  SimConfig cfg = base();
  cfg.fault_buffer.capacity = 4;  // far below concurrent warp demand
  RunResult r = run_regular(cfg, 4ull << 20);
  EXPECT_GT(r.buffer_dropped, 0u);             // overflow really happened
  EXPECT_GT(r.counters.replays_issued, 0u);    // dropped warps re-faulted
  EXPECT_EQ(r.resident_pages_at_end, 1024u);   // every page still arrived
}

// --- recovery paths under injection --------------------------------------

TEST(DmaRecovery, RetriesAreAccountedAndBytesStayExact) {
  SimConfig cfg = base();
  cfg.hazards.dma_fail_rate = 0.5;
  RunResult r = run_regular(cfg, 8ull << 20);
  EXPECT_TRUE(r.hazards_enabled);
  EXPECT_GT(r.hazards.dma_failures, 0u);
  EXPECT_GT(r.counters.dma_retries, 0u);
  EXPECT_GE(r.counters.dma_runs_retried, r.counters.dma_retries);
  EXPECT_GT(r.profiler.total(CostCategory::ErrorRecovery), 0u);
  // A failed run must never reserve the interconnect: moved bytes match
  // migrated pages exactly even when half the runs fail first try.
  EXPECT_EQ(r.bytes_h2d, r.counters.pages_migrated_h2d * kPageSize);
  EXPECT_EQ(r.resident_pages_at_end, 2048u);
}

TEST(DmaRecovery, PersistentFailuresTriggerEngineReset) {
  SimConfig cfg = base();
  cfg.hazards.dma_fail_rate = 0.9;
  cfg.driver.recovery.dma_max_retries = 2;  // cheap reset threshold
  RunResult r = run_regular(cfg, 2ull << 20);
  EXPECT_GT(r.counters.dma_engine_resets, 0u);
  EXPECT_EQ(r.resident_pages_at_end, 512u);  // still converges
}

TEST(FbCorruption, RunSurvivesDropsDuplicatesAndStalls) {
  SimConfig cfg = base();
  cfg.hazards.fb_corrupt_rate = 0.3;
  RunResult r = run_regular(cfg, 8ull << 20);
  const HazardStats& h = r.hazards;
  EXPECT_GT(h.fb_dropped + h.fb_duplicated + h.fb_stalled, 0u);
  EXPECT_EQ(r.resident_pages_at_end, 2048u);
}

TEST(PmaRecovery, TransientFailuresBackOffAndRetry) {
  SimConfig cfg = base();
  cfg.hazards.pma_fail_rate = 0.4;
  RunResult r = run_named(cfg, "random", 24ull << 20);  // oversubscribed
  EXPECT_GT(r.hazards.pma_failures, 0u);
  EXPECT_GT(r.counters.pma_alloc_retries, 0u);
  EXPECT_GT(r.profiler.total(CostCategory::ErrorRecovery), 0u);
}

TEST(StormWatchdog, RefaultStormEscalatesPolicyAndFlushes) {
  SimConfig cfg = base();
  cfg.driver.replay_policy = ReplayPolicyKind::Block;  // max refault traffic
  cfg.driver.storm.refault_threshold = 4;  // hair trigger for the test
  cfg.hazards.fb_corrupt_rate = 0.3;       // duplicates feed the detector
  RunResult r = run_named(cfg, "random", 24ull << 20);
  EXPECT_GT(r.counters.replay_storms, 0u);
  EXPECT_GT(r.counters.storm_flushes, 0u);
}

// --- graceful degradation when eviction has no victim --------------------

TEST(GracefulDegradation, NoVictimFallsBackToRemoteMapping) {
  // One 2 MB VABlock on a 1 MiB GPU: the faulting block owns every
  // resident page, so eviction can never find a victim. The driver used to
  // throw here; now the unbackable pages degrade to remote (host) mapping
  // and the run completes.
  SimConfig cfg;
  cfg.set_gpu_memory(1ull << 20);
  cfg.enable_fault_log = false;
  RunResult r = run_regular(cfg, 2ull << 20);
  EXPECT_GT(r.counters.eviction_victim_unavailable, 0u);
  EXPECT_GT(r.counters.degraded_remote_pages, 0u);
  EXPECT_GT(r.bytes_zero_copy, 0u);  // degraded pages served remotely
}

// --- end-to-end determinism ----------------------------------------------

TEST(HazardDeterminism, SameConfigSameSeedSameRun) {
  SimConfig cfg = base();
  cfg.hazards.dma_fail_rate = 0.2;
  cfg.hazards.fb_corrupt_rate = 0.1;
  cfg.hazards.pma_fail_rate = 0.2;
  RunResult a = run_named(cfg, "random", 24ull << 20);
  RunResult b = run_named(cfg, "random", 24ull << 20);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.hazards.total(), b.hazards.total());
  EXPECT_EQ(a.counters.dma_retries, b.counters.dma_retries);
  EXPECT_EQ(a.counters.pma_alloc_retries, b.counters.pma_alloc_retries);
  EXPECT_EQ(a.counters.faults_serviced, b.counters.faults_serviced);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h);
  EXPECT_EQ(a.profiler.grand_total(), b.profiler.grand_total());
}

TEST(HazardDeterminism, ExplicitHazardSeedOverridesDerivation) {
  SimConfig cfg = base();
  cfg.hazards.dma_fail_rate = 0.2;
  cfg.hazards.seed = 1234;
  RunResult a = run_regular(cfg, 4ull << 20);
  cfg.seed = 43;  // master seed changes, hazard stream must not
  RunResult b = run_regular(cfg, 4ull << 20);
  // Different master seeds shuffle the workload, so totals differ, but
  // both runs drew hazards from the same fixed stream (smoke check: both
  // still injected something).
  EXPECT_GT(a.hazards.dma_failures, 0u);
  EXPECT_GT(b.hazards.dma_failures, 0u);
}

}  // namespace
}  // namespace uvmsim
