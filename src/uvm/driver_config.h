// UVM driver policy knobs (module parameters of the real driver).
#pragma once

#include <cstdint>

#include "mem/constants.h"
#include "sim/time.h"
#include "uvm/thrashing_detector.h"

namespace uvmsim {

/// Error-recovery knobs: bounded retries with exponential backoff for
/// failed DMA runs and transient RM-call failures, plus the stall watchdog
/// that rescues warps whose fault entries were lost. All recovery time is
/// charged to CostCategory::ErrorRecovery.
struct ErrorRecoveryConfig {
  /// Failed-DMA retry rounds before the copy engine is reset (each reset
  /// grants a fresh retry budget, so copies always eventually complete).
  std::uint32_t dma_max_retries = 4;
  /// First retry backoff; doubles each subsequent round.
  SimDuration dma_backoff_base = 2 * kMicrosecond;
  /// Cost of a copy-engine reset after an exhausted retry round.
  SimDuration dma_reset_cost = 50 * kMicrosecond;
  /// First backoff after a transient RM-call failure; doubles per retry.
  SimDuration pma_backoff_base = 5 * kMicrosecond;
  /// Cap on the PMA backoff doublings (bounds the wait at high rates).
  std::uint32_t pma_backoff_cap = 6;
  /// How long after a lost fault entry the stall watchdog checks for
  /// parked warps with no pending work and forces a rescue replay.
  SimDuration watchdog_interval = 250 * kMicrosecond;
};

/// Replay-storm watchdog: tracks per-VABlock re-fault rates (stale faults
/// and intra-batch duplicates) in a sliding window; when a block's rate
/// crosses the threshold the driver escalates the replay policy to
/// BatchFlush for the cooldown period and forces a buffer flush, draining
/// the duplicate entries that feed the storm. It runs exactly when hazard
/// injection is active (Driver::hazards_active()).
struct ReplayStormConfig {
  /// Re-faults per block within `window` that trigger escalation.
  std::uint32_t refault_threshold = 64;
  SimDuration window = 500 * kMicrosecond;
  /// How long the escalated policy stays in force after a trigger.
  SimDuration cooldown = 2 * kMillisecond;
};

/// How pre-processing reacts to a fault entry whose ready flag lags its
/// queue pointer (paper §III-C: "Faults are fetched until the fault pointer
/// queue is empty, the current batch of faults is full, or fault that is
/// not ready is encountered, depending on policy").
enum class FetchPolicy : std::uint8_t {
  PollReady,       ///< spin on the ready flag until the entry lands (default)
  StopAtNotReady,  ///< close the batch early at the first laggard
};

/// Fault replay policies (paper §III-E). They differ in when the driver
/// tells the GPU to retry parked accesses.
enum class ReplayPolicyKind : std::uint8_t {
  Block,       ///< replay after each VABlock's faults are serviced
  Batch,       ///< replay after each fault batch
  BatchFlush,  ///< Batch + flush the fault buffer before replaying (default)
  Once,        ///< replay only when the whole buffer has been serviced
};

[[nodiscard]] const char* to_string(ReplayPolicyKind k);

/// Eviction policy selector.
enum class EvictionPolicyKind : std::uint8_t {
  Lru,            ///< stock fault-driven LRU (paper §V-A1)
  AccessCounter,  ///< LRU promoted by Volta access counters (paper §VI-B)
  Clock,          ///< CLOCK / second-chance (ref bits, sweeping hand)
  TwoQ,           ///< 2Q / segmented LRU (probation + protected segments)
};

[[nodiscard]] const char* to_string(EvictionPolicyKind k);

/// Prefetch-policy selector (the PrefetchPolicy seam, uvm/prefetch_policy.h).
enum class PrefetchPolicyKind : std::uint8_t {
  Off,       ///< no prefetching (uvm_perf_prefetch_enable = 0)
  Tree,      ///< the paper's static two-stage density tree (default)
  Adaptive,  ///< the tree, threshold tuned from eviction load (§VI-B)
  Markov,    ///< deterministic online-learned delta-Markov predictor
};

/// Knobs for the online-learned prefetcher (PrefetchPolicyKind::Markov):
/// a bounded direct-mapped table over VABlock-delta history with saturating
/// confidence counters. Integer-only by construction — table indices come
/// from a multiplicative hash and confidence is a saturating counter, so
/// the predictor is bit-exact on every host and for every lane count.
struct MarkovPrefetchConfig {
  /// Direct-mapped table size; must be a power of two in [2, 2^20].
  /// Collisions evict deterministically (last writer wins).
  std::uint32_t table_entries = 1024;
  /// Saturation ceiling for per-entry confidence counters.
  std::uint32_t confidence_max = 7;
  /// Minimum confidence before an entry's prediction is emitted
  /// (1 <= confidence_emit <= confidence_max).
  std::uint32_t confidence_emit = 3;
  /// Maximum chained predictions emitted per observed fault bin
  /// (1 <= degree <= MarkovPrefetcher::kMaxDegree).
  std::uint32_t degree = 2;
};

/// Fault-servicing backend selector (the ServicingBackend seam).
enum class ServicingBackendKind : std::uint8_t {
  DriverCentric,  ///< the paper's CPU-driver path (default; byte-identical
                  ///< to the historical inline implementation)
  GpuDriven,      ///< GPUVM-style per-fault GPU-side resolution
};

[[nodiscard]] const char* to_string(ServicingBackendKind k);

/// Chunked PMA backing (paper §V-A3 / §VI-B): when free GPU memory is
/// plentiful every VABlock is backed by one whole 2 MB root chunk — the
/// stock path, byte-identical to the historical behaviour. Under a
/// free-memory watermark, blocks whose demand does not cover the whole
/// block split to 64 KB big-page chunks; under the fine watermark,
/// partially-wanted big pages split further to 4 KB base-page chunks.
/// A block whose pages all become backed re-coalesces into a root chunk.
struct ChunkedBackingConfig {
  bool enabled = true;
  /// free_fraction below which new blocks are backed with 64 KB chunks.
  /// The default keeps every run with headroom >= 1/16 of GPU memory on
  /// the root-chunk path.
  double split_watermark = 1.0 / 16.0;
  /// free_fraction below which partially-wanted big pages are backed with
  /// 4 KB chunks. Values > 1 force the level unconditionally (useful for
  /// ablations); must be <= split_watermark.
  double fine_watermark = 1.0 / 64.0;
  /// Re-merge a fully-backed block's sub-chunks into its root chunk.
  bool coalesce = true;
};

struct DriverConfig {
  /// Which servicing path handles GPU faults. DriverCentric is the system
  /// under study in the paper; GpuDriven is the GPUVM-style alternative.
  ServicingBackendKind backend = ServicingBackendKind::DriverCentric;

  /// Faults fetched per batch (driver default 256, paper §III-A).
  std::uint32_t batch_size = 256;

  /// Intra-run servicing lanes (deterministic intra-run parallelism). 1 =
  /// the legacy inline serial pass, byte-identical to the historical path.
  /// > 1 activates the batched lane pipeline: sharded fetch binning and
  /// per-bin plan precomputation fan out over a thread pool, and the serial
  /// fault-servicing walk stays the single ordering authority that applies
  /// every plan (or recomputes inline when a mid-pass eviction invalidated
  /// it). Output is identical for every lane count; only wall-clock moves.
  /// The CLI seeds this from UVMSIM_THREADS.
  std::uint32_t service_lanes = 1;

  /// Seed for driver-internal stochastic costs (RM-call jitter). The
  /// Simulator derives it from the master seed.
  std::uint64_t seed = 0xD21;

  FetchPolicy fetch_policy = FetchPolicy::PollReady;

  ReplayPolicyKind replay_policy = ReplayPolicyKind::BatchFlush;

  /// Thrash detection/mitigation (the driver's perf_thrashing module;
  /// disabled by default to match the paper's measurement setup).
  ThrashingDetector::Config thrashing;

  /// Retry/backoff/watchdog knobs for hazard recovery.
  ErrorRecoveryConfig recovery;

  /// Replay-storm watchdog (runs under hazard injection only).
  ReplayStormConfig storm;

  /// Extension: issue H2D migrations asynchronously and keep servicing
  /// while the copy engines work; replays wait for the data they resume
  /// onto. The stock driver (and the paper's measurements) block on each
  /// migration — keep false to reproduce the paper.
  bool pipelined_migrations = false;

  /// Which prefetch policy runs on the fault-service path. Markov replaces
  /// the density tree — its stage-1 big-page upgrade included — with the
  /// online-learned delta predictor.
  PrefetchPolicyKind prefetch_policy = PrefetchPolicyKind::Tree;
  /// Learned-prefetcher knobs (PrefetchPolicyKind::Markov only).
  MarkovPrefetchConfig markov;
  /// Density threshold percent (uvm_perf_prefetch_threshold, default 51;
  /// the Tree policy's — Adaptive tunes its own).
  std::uint32_t prefetch_threshold = 51;
  /// Stage-1 upgrade of each faulted 4 KB page to its 64 KB big page.
  bool big_page_upgrade = true;
  /// Host base-page size in 4 KB pages: 1 = x86, 16 = Power9 (64 KB OS
  /// pages — each fault is serviced at full base-page granularity and the
  /// upgrade stage is redundant). Must divide 512 and pair with
  /// GpuEngine::Config::fault_granularity_pages. SimConfig::set_host_page_
  /// size() sets both.
  std::uint32_t base_page_pages = 1;

  EvictionPolicyKind eviction_policy = EvictionPolicyKind::Lru;

  /// Extension (the driver's uvm_perf_access_counters path, paper §VI-B):
  /// when a Volta access-counter notification reports a hot *remote-mapped*
  /// region, migrate it to GPU memory — promoting frequently-accessed
  /// zero-copy data to local. Requires SimConfig::access_counters.enabled.
  bool access_counter_migration = false;

  /// Chunked PMA backing with split-under-pressure (replaces the former
  /// run-static alloc_granularity_bytes knob).
  ChunkedBackingConfig chunking;
};

}  // namespace uvmsim
