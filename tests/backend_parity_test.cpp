// Backend-parity suite: pins the servicing path's observable output.
//
// The golden digests below were captured from the pre-refactor tree, where
// the driver-centric servicing pass lived inline in uvm::Driver. After the
// ServicingBackend seam, DriverCentricBackend must reproduce that output
// byte-for-byte: each case hashes the run summary CSV (what uvmsim_cli
// prints) plus the complete FaultLog, across six standard workload configs,
// executed through campaign::TaskExecutor at 1 and 4 workers (the two
// UVMSIM_THREADS settings the suite guarantees; the executor's `threads`
// argument is exactly what default_workers() resolves the env var to).
//
// A second table pins the population sites and recovery branches those six
// configs never reach (see "population sites" below).
//
// To re-capture after an *intentional* output change, run with
// UVMSIM_PARITY_PRINT=1 and paste the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/executor.h"
#include "core/fault_log.h"
#include "core/report.h"
#include "core/simulator.h"
#include "uvm/counters.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace uvmsim {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a64(h, &v, sizeof v);
}

struct ParityCase {
  const char* name;
  const char* workload;
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  void (*tweak)(SimConfig&);  ///< null = stock config
  std::uint64_t golden;       ///< pre-refactor digest
};

// Six standard configs spanning the servicing path's policy space: stock
// undersubscribed, oversubscribed random access, prefetch off, per-batch
// replay, adaptive prefetch, and oversubscription with chunking disabled.
const ParityCase kCases[] = {
    {"regular-default", "regular", 24, 64, nullptr, 0x5f4033a422753b47ULL},
    {"random-oversub", "random", 48, 32, nullptr, 0x7f99233882838422ULL},
    {"sgemm-prefetch-off", "sgemm", 24, 32,
     [](SimConfig& c) { c.driver.prefetch_policy = PrefetchPolicyKind::Off; },
     0x6aa4bf0106287609ULL},
    {"stream-replay-batch", "stream", 16, 64,
     [](SimConfig& c) { c.driver.replay_policy = ReplayPolicyKind::Batch; },
     0xf92de0381bfc3af6ULL},
    {"tealeaf-adaptive", "tealeaf", 24, 32,
     [](SimConfig& c) {
       c.driver.prefetch_policy = PrefetchPolicyKind::Adaptive;
     },
     0x14cde0a26b039608ULL},
    {"hpgmg-oversub-nochunk", "hpgmg", 40, 32,
     [](SimConfig& c) {
       c.driver.chunking.enabled = false;
       c.driver.prefetch_policy = PrefetchPolicyKind::Off;
     },
     0x826af726f0117d47ULL},
};
constexpr std::size_t kNumCases = sizeof(kCases) / sizeof(kCases[0]);

/// Mixes what a user of a finished run can observe into `h`: the summary
/// table CSV and the ordered fault/prefetch/eviction log.
std::uint64_t mix_observable(std::uint64_t h, Simulator& sim,
                             const RunResult& r) {
  const std::string csv = run_summary_table(r).to_csv();
  h = fnv1a64(h, csv.data(), csv.size());
  for (const FaultLogEntry& e : sim.driver().fault_log().entries()) {
    h = mix_u64(h, e.order);
    h = mix_u64(h, e.time);
    h = mix_u64(h, static_cast<std::uint64_t>(e.kind));
    h = mix_u64(h, e.page);
    h = mix_u64(h, e.block);
    h = mix_u64(h, e.range);
    h = mix_u64(h, e.duplicate ? 1u : 0u);
  }
  return h;
}

/// Runs one case and digests everything a user of the run can observe
/// (see mix_observable).
/// `lanes` sets DriverConfig::service_lanes — byte-identity across lane
/// counts is exactly what the lane-pipeline tests below assert. `extended`
/// additionally mixes the fault queue-latency distribution (count + exact
/// quantile bit patterns), which the summary CSV does not cover; extended
/// digests are only ever compared run-vs-run within this build, never
/// against the pre-refactor golden constants.
std::uint64_t run_digest(const ParityCase& c,
                         ServicingBackendKind backend =
                             ServicingBackendKind::DriverCentric,
                         std::uint32_t lanes = 1, bool extended = false) {
  SimConfig cfg;
  cfg.set_gpu_memory(c.gpu_mib << 20);
  cfg.enable_fault_log = true;
  if (c.tweak != nullptr) c.tweak(cfg);
  cfg.driver.backend = backend;
  cfg.driver.service_lanes = lanes;
  Simulator sim(cfg);
  auto wl = make_workload(c.workload, c.size_mib << 20);
  wl->setup(sim);
  RunResult r = sim.run();

  std::uint64_t h = mix_observable(kFnvOffset, sim, r);
  if (extended) {
    h = mix_u64(h, r.fault_queue_latency.count());
    for (double q : {0.5, 0.9, 0.99}) {
      const double v = r.fault_queue_latency.quantile(q);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      h = mix_u64(h, bits);
    }
  }
  return h;
}

void check_with_threads(std::size_t threads) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  campaign::TaskExecutor ex(threads);
  auto outs =
      ex.map_capture(kNumCases, [](std::size_t i) { return run_digest(kCases[i]); });
  for (std::size_t i = 0; i < kNumCases; ++i) {
    ASSERT_TRUE(outs[i].ok()) << kCases[i].name << ": " << outs[i].error;
    const std::uint64_t got = *outs[i].value;
    if (print) {
      std::printf("parity golden %-24s 0x%016llxULL\n", kCases[i].name,
                  static_cast<unsigned long long>(got));
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(got));
    char want[32];
    std::snprintf(want, sizeof want, "0x%016llx",
                  static_cast<unsigned long long>(kCases[i].golden));
    EXPECT_STREQ(want, buf) << kCases[i].name << " (threads=" << threads
                            << ") diverged from the pre-refactor output";
  }
}

TEST(BackendParity, ByteIdenticalSerial) { check_with_threads(1); }

TEST(BackendParity, ByteIdenticalFourWorkers) { check_with_threads(4); }

// --- intra-run servicing lanes (PR 8) -------------------------------------
//
// service_lanes must never change output: the serial walk stays the
// ordering authority and lanes only precompute. Every config is pinned at
// lanes ∈ {1, 2, 4} for BOTH backends — the driver-centric cases against
// the same pre-refactor goldens as above (so the laned path is transitively
// byte-identical to the pre-PR tree), the GPU-driven cases against goldens
// captured from this build's serial path. The extended digest adds the
// queue-latency histogram, covering the per-lane accumulator merges that
// the summary CSV cannot see.

/// GPU-driven backend digests at service_lanes=1 (capture with
/// UVMSIM_PARITY_PRINT=1, same recapture rule as kCases).
const std::uint64_t kGpuGoldens[kNumCases] = {
    0x109e7861941ac002ULL, 0xa87bad84430c5814ULL, 0x3d8a91c0bedb1c65ULL,
    0xdcc58338ed10fc1dULL, 0x23622d08714b4605ULL, 0x16692230b71d7ac2ULL,
};

void check_lanes(ServicingBackendKind backend, const std::uint64_t* goldens) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const std::uint64_t base1 = run_digest(kCases[i], backend, 1);
    if (print) {
      std::printf("parity golden %s %-24s 0x%016llxULL\n",
                  backend == ServicingBackendKind::GpuDriven ? "gpu" : "drv",
                  kCases[i].name, static_cast<unsigned long long>(base1));
    }
    EXPECT_EQ(goldens[i], base1)
        << kCases[i].name << ": serial digest diverged from golden";
    const std::uint64_t ext1 = run_digest(kCases[i], backend, 1, true);
    for (std::uint32_t lanes : {2u, 4u}) {
      EXPECT_EQ(base1, run_digest(kCases[i], backend, lanes))
          << kCases[i].name << ": lanes=" << lanes
          << " changed observable output";
      EXPECT_EQ(ext1, run_digest(kCases[i], backend, lanes, true))
          << kCases[i].name << ": lanes=" << lanes
          << " changed the queue-latency distribution";
    }
  }
}

TEST(BackendParity, LanesByteIdenticalDriverCentric) {
  // Reuse the pre-refactor goldens: laned output == serial output == the
  // historical inline driver, at every lane count.
  std::uint64_t goldens[kNumCases];
  for (std::size_t i = 0; i < kNumCases; ++i) goldens[i] = kCases[i].golden;
  check_lanes(ServicingBackendKind::DriverCentric, goldens);
}

TEST(BackendParity, LanesByteIdenticalGpuDriven) {
  check_lanes(ServicingBackendKind::GpuDriven, kGpuGoldens);
}

// --- population sites ------------------------------------------------------
//
// The six cases above never reach the driver's non-demand population paths
// or its recovery branches. These cases do, one configuration per path:
// learned speculation, pipelined migration, read-mostly duplication after a
// bulk prefetch, access-counter promotion of remote-mapped host data and of
// GPU-born data, the thrashing pin, and hazard recovery. Because the
// summary CSV omits profiler counts and most counters, their digest also
// mixes every DriverCounters field and every Profiler total and count. Each
// case first checks that its run really took the path it is there to pin.

void all_ranges(Simulator& sim, const MemAdvise& a) {
  for (RangeId id = 0; id < sim.address_space().num_ranges(); ++id) {
    sim.mem_advise(id, a);
  }
}

struct PopulationCase {
  const char* name;
  const char* workload;
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  void (*tweak)(SimConfig&);
  void (*prepare)(Simulator&);  ///< after workload setup; null = none
  bool (*reached)(const DriverCounters&);  ///< the pinned path ran
  std::uint64_t golden;
};

const PopulationCase kPopulationCases[] = {
    {"strided-markov-clock", "strided", 48, 32,
     [](SimConfig& c) {
       c.driver.prefetch_policy = PrefetchPolicyKind::Markov;
       c.driver.eviction_policy = EvictionPolicyKind::Clock;
     },
     nullptr,
     [](const DriverCounters& k) { return k.markov_blocks_prefetched > 0; },
     0xcbe6f8cfbfe8f516ULL},
    {"stream-pipelined", "stream", 24, 64,
     [](SimConfig& c) { c.driver.pipelined_migrations = true; }, nullptr,
     [](const DriverCounters& k) { return k.pages_migrated_h2d > 0; },
     0x7d39401a33d5ccd1ULL},
    {"sgemm-read-mostly-prefetch-async", "sgemm", 48, 32, nullptr,
     [](Simulator& sim) {
       MemAdvise a;
       a.read_mostly = true;
       all_ranges(sim, a);
       for (RangeId id = 0; id < sim.address_space().num_ranges(); ++id) {
         sim.prefetch_async(id);
       }
     },
     [](const DriverCounters& k) {
       return k.prefetch_async_pages > 0 && k.pages_duplicated > 0;
     },
     0x7c124846c8b22c74ULL},
    {"random-remote-map-promotion", "random", 48, 32,
     [](SimConfig& c) {
       c.access_counters.enabled = true;
       c.access_counters.threshold = 8;
       c.driver.access_counter_migration = true;
     },
     [](Simulator& sim) {
       MemAdvise a;
       a.remote_map = true;
       all_ranges(sim, a);
     },
     [](const DriverCounters& k) {
       return k.pages_remote_mapped > 0 && k.counter_promoted_pages > 0;
     },
     0x744df9036a85141eULL},
    // Data born on the GPU behind a remote mapping: the GPU's remote writes
    // land in host memory, so promotion migrates every written page (it
    // zero-fills pages never written, none here).
    {"gpu-born-remote-promotion", "regular", 4, 32,
     [](SimConfig& c) {
       c.access_counters.enabled = true;
       c.access_counters.threshold = 8;
       c.driver.access_counter_migration = true;
     },
     [](Simulator& sim) {
       const RangeId id =
           sim.malloc_managed(8ull << 20, "gpu_born", /*host_populated=*/false);
       MemAdvise a;
       a.remote_map = true;
       sim.mem_advise(id, a);
       const VaRange& r = sim.address_space().range(id);
       GridBuilder g("gpu_born_sweep");
       for (int pass = 0; pass < 2; ++pass) {
         for (std::uint64_t p = 0; p < r.num_pages; p += 32) {
           g.new_warp().add_run(r.first_page + p, 32, /*write=*/true, 500);
         }
       }
       sim.launch(g.build(static_cast<double>(r.num_pages)));
     },
     [](const DriverCounters& k) {
       return k.counter_promoted_pages > 0 && k.pages_remote_mapped > 0;
     },
     0xf8aad0490cc43880ULL},
    {"random-thrash-pin", "random", 48, 32,
     [](SimConfig& c) {
       c.driver.prefetch_policy = PrefetchPolicyKind::Off;
       c.driver.thrashing.enabled = true;
       c.driver.thrashing.mitigation = ThrashMitigation::Pin;
       c.driver.thrashing.window = 2 * kMillisecond;
       c.driver.thrashing.threshold = 2;
     },
     nullptr,
     [](const DriverCounters& k) { return k.thrash_pinned_pages > 0; },
     0xf7f31aca113c7085ULL},
    // A 1 MiB GPU cannot hold one whole VABlock, so a block that already
    // owns every backed chunk finds no eviction victim and degrades.
    {"stream-hazards-tiny-gpu", "stream", 24, 1,
     [](SimConfig& c) {
       c.driver.prefetch_policy = PrefetchPolicyKind::Off;
       c.hazards.dma_fail_rate = 0.05;
       c.hazards.pma_fail_rate = 0.05;
       c.hazards.fb_corrupt_rate = 0.025;
     },
     nullptr,
     [](const DriverCounters& k) {
       return k.degraded_remote_pages > 0 && k.dma_retries > 0 &&
              k.pma_alloc_retries > 0;
     },
     0x9bdd618e950abc17ULL},
};
constexpr std::size_t kNumPopulationCases =
    sizeof(kPopulationCases) / sizeof(kPopulationCases[0]);

struct PopulationOutcome {
  std::uint64_t digest;
  bool reached;
};

PopulationOutcome run_population(const PopulationCase& c) {
  SimConfig cfg;
  cfg.set_gpu_memory(c.gpu_mib << 20);
  cfg.enable_fault_log = true;
  if (c.tweak != nullptr) c.tweak(cfg);
  Simulator sim(cfg);
  auto wl = make_workload(c.workload, c.size_mib << 20);
  wl->setup(sim);
  if (c.prepare != nullptr) c.prepare(sim);
  RunResult r = sim.run();

  std::uint64_t h = mix_observable(kFnvOffset, sim, r);
  static_assert(sizeof(DriverCounters) % sizeof(std::uint64_t) == 0,
                "DriverCounters must stay a plain run of uint64 fields");
  h = fnv1a64(h, &r.counters, sizeof r.counters);
  for (std::size_t i = 0; i < Profiler::kNumCategories; ++i) {
    const auto cat = static_cast<CostCategory>(i);
    h = mix_u64(h, static_cast<std::uint64_t>(r.profiler.total(cat)));
    h = mix_u64(h, r.profiler.count(cat));
  }
  return {h, c.reached(r.counters)};
}

void check_population(std::size_t threads) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  campaign::TaskExecutor ex(threads);
  auto outs = ex.map_capture(kNumPopulationCases, [](std::size_t i) {
    return run_population(kPopulationCases[i]);
  });
  for (std::size_t i = 0; i < kNumPopulationCases; ++i) {
    const PopulationCase& c = kPopulationCases[i];
    ASSERT_TRUE(outs[i].ok()) << c.name << ": " << outs[i].error;
    const PopulationOutcome& got = *outs[i].value;
    if (print) {
      std::printf("parity golden pop %-34s 0x%016llxULL\n", c.name,
                  static_cast<unsigned long long>(got.digest));
    }
    EXPECT_TRUE(got.reached) << c.name << " no longer reaches its path";
    EXPECT_EQ(c.golden, got.digest)
        << c.name << " (threads=" << threads << ") diverged from its golden";
  }
}

TEST(BackendParity, PopulationSitesSerial) { check_population(1); }

TEST(BackendParity, PopulationSitesFourWorkers) { check_population(4); }

}  // namespace
}  // namespace uvmsim
