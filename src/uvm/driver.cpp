#include "uvm/driver.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "core/errors.h"
#include "sim/annotations.h"
#include "uvm/access_counter_eviction.h"
#include "uvm/backends/driver_centric.h"
#include "uvm/backends/gpu_driven.h"
#include "uvm/eviction_2q.h"
#include "uvm/eviction_clock.h"
#include "uvm/eviction_lru.h"
#include "uvm/prefetcher.h"
#include "uvm/service.h"

namespace uvmsim {

namespace {

/// Calls fn(block, window) for each VA block overlapping
/// [first, first+npages), in ascending order; `window` holds the block's
/// in-range pages.
template <typename Fn>
void for_each_block_window(AddressSpace& as, VirtPage first,
                           std::uint64_t npages, Fn&& fn) {
  const VirtPage end = first + npages;
  for (VirtPage p = first; p < end;) {
    VaBlock& blk = as.block_of(p);
    const std::uint32_t lo = page_in_block(p);
    const auto hi = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(blk.num_pages, lo + (end - p)));
    if (hi <= lo) break;  // defensive: past the block's valid pages
    PageMask window;
    window.set_range(lo, hi);
    p += hi - lo;
    fn(blk, window);
  }
}

}  // namespace

Driver::Driver(const DriverConfig& cfg, const CostModel& cm, const Deps& deps,
               bool enable_fault_log)
    : cfg_(cfg), cm_(cm), d_(deps), log_(enable_fault_log) {
  if (cfg_.batch_size == 0) {
    throw ConfigError("Driver.batch_size",
                      "must be >= 1 — the driver fetches at least one fault "
                      "per pass");
  }
  if (!(cfg_.chunking.fine_watermark >= 0.0) ||
      !(cfg_.chunking.split_watermark >= cfg_.chunking.fine_watermark)) {
    throw ConfigError("Driver.chunking",
                      "watermarks must satisfy 0 <= fine_watermark <= "
                      "split_watermark");
  }
  if (cfg_.base_page_pages == 0 ||
      kPagesPerBlock % cfg_.base_page_pages != 0) {
    throw ConfigError("Driver.base_page_pages",
                      "must divide the 512-page VABlock (1 = x86 4 KB pages, "
                      "16 = Power9 64 KB pages)");
  }
  switch (cfg_.eviction_policy) {
    case EvictionPolicyKind::Lru:
      eviction_ = std::make_unique<LruEviction>();
      break;
    case EvictionPolicyKind::AccessCounter:
      eviction_ = std::make_unique<AccessCounterEviction>(kPagesPerBlock);
      break;
    case EvictionPolicyKind::Clock:
      eviction_ = std::make_unique<ClockEviction>();
      break;
    case EvictionPolicyKind::TwoQ:
      eviction_ = std::make_unique<TwoQEviction>();
      break;
  }
  prefetch_ = make_prefetch_policy(cfg_);
  thrashing_ = ThrashingDetector(cfg_.thrashing);
  rng_ = Rng(cfg_.seed);
  switch (cfg_.backend) {
    case ServicingBackendKind::DriverCentric:
      backend_ = std::make_unique<DriverCentricBackend>(*this);
      break;
    case ServicingBackendKind::GpuDriven:
      backend_ = std::make_unique<GpuDrivenBackend>(*this);
      break;
  }
}

Driver::~Driver() = default;

std::uint64_t Driver::thread_cpu_ns() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts{};
  // uvmsim-lint: allow(banned-clock, "host-side servicing-path meter; feeds only RunResult::servicing_host_ns, which no report prints — nothing simulated can observe it")
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // uvmsim-lint: allow(banned-clock, "fallback for the same host-side meter on platforms without thread CPU clocks")
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::uint64_t Driver::process_cpu_ns() {
#ifdef CLOCK_PROCESS_CPUTIME_ID
  timespec ts{};
  // uvmsim-lint: allow(banned-clock, "host-side all-lane work meter; feeds only RunResult::servicing_cpu_ns, which no report prints")
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return thread_cpu_ns();
#endif
}

void Driver::on_gpu_interrupt() {
  if (processing_ || wake_scheduled_) return;
  wake_scheduled_ = true;
  ++counters_.wakeups;
  d_.eq->schedule_in(backend_->wake_latency(), [this] {
    wake_scheduled_ = false;
    run_pass();
  });
}

void Driver::run_pass() {
  if (processing_ || d_.fb->empty()) return;
  processing_ = true;
  ++counters_.passes;
  evictions_before_pass_ = counters_.evictions;

  // Host time around the pass body: the servicing-path cost that the lane
  // pipeline attacks. CPU clocks, not wall — preemption by unrelated load
  // on a shared CI box would otherwise swamp the measurement. Two meters:
  // the thread clock sees only the ordering thread (its critical path —
  // helper-lane work overlaps it on parallel hardware), the process clock
  // sees every lane's work (total cost). Reads clocks twice per pass
  // (~100 ns against a ~100 µs pass) and feeds only the RunResult
  // servicing_* fields; nothing simulated depends on them.
  const std::uint64_t host_t0 = thread_cpu_ns();
  const std::uint64_t cpu_t0 = process_cpu_ns();

  // The pass body — fetch/resolve mechanism, latency structure, replay
  // charging — belongs to the servicing backend; the shell keeps only the
  // backend-agnostic bookkeeping around it.
  SimTime t = backend_->service_pass();

  prefetch_->observe_pass(counters_.evictions - evictions_before_pass_);

  servicing_host_ns_ += thread_cpu_ns() - host_t0;
  servicing_cpu_ns_ += process_cpu_ns() - cpu_t0;

  // --- end of pass: resume at cursor time ---
  d_.eq->schedule_at(t, [this] {
    processing_ = false;
    // Once-policy end-of-run replay is a driver-centric concept (the GPU
    // backend resumes warps itself after every drain).
    if (cfg_.backend == ServicingBackendKind::DriverCentric &&
        cfg_.replay_policy == ReplayPolicyKind::Once && d_.fb->empty() &&
        d_.gpu->has_stalled_warps()) {
      prof_.add(CostCategory::ReplayPolicy, cm_.replay_issue);
      ++counters_.replays_issued;
      SimTime fire_at = std::max(d_.eq->now() + cm_.replay_issue,
                                 migrations_inflight_until_);
      trace_instant(TraceCategory::Replay, "replay.once", d_.eq->now(),
                    counters_.replays_issued, "fire_at", fire_at);
      d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
    }
    if (!d_.fb->empty()) run_pass();
  });
}

PageMask Driver::need_mask(const FaultBatch::Bin& bin,
                           const VaBlock& blk) const {
  const PageMask mapped = blk.gpu_resident | blk.remote_mapped;
  PageMask need = bin.faulted.and_not(mapped);
  // Power9-style base pages: one fault covers the whole host page, so the
  // service granularity widens to aligned base-page groups.
  if (cfg_.base_page_pages > 1 && need.any()) {
    PageMask widened;
    for (std::uint32_t i : need.set_bits()) {
      std::uint32_t lo = i - i % cfg_.base_page_pages;
      std::uint32_t hi = std::min(lo + cfg_.base_page_pages, blk.num_pages);
      widened.set_range(lo, hi);
    }
    need |= widened.and_not(mapped);
  }
  return need;
}

void Driver::precompute_plan(const FaultBatch::Bin& bin, BinPlan& out) {
  const VaBlock& blk = d_.as->block(bin.block);
  out.eviction_epoch = blk.eviction_count;
  out.threshold = prefetch_->threshold();
  out.need = need_mask(bin, blk);
  out.valid = false;
  if (out.need.none()) return;
  // Blocks bound to remote mapping never reach the prefetch stage; a plan
  // would go unused (the thrash-pin path is rarer and not predictable here —
  // such plans are simply dropped by the walk).
  if (d_.as->range(blk.range).advise.remote_map) return;
  Prefetcher::Result pres = prefetch_->plan(blk, out.need);
  out.prefetch = pres.prefetch;
  out.tree_updates = pres.tree_updates;
  out.valid = true;
}

UVMSIM_ORDERED SimTime Driver::service_bin(const FaultBatch::Bin& bin,
                                           SimTime t, const BinPlan* plan) {
  VaBlock& blk = d_.as->block(bin.block);
  ++counters_.blocks_serviced;
  const ServiceLock lock(blk);

  const PageMask need = account_bin(bin, blk, t);
  if (need.none() || map_remote_bin(blk, need, t)) {
    touch_slices(blk, bin.faulted);
    return t;
  }

  PageMask prefetch = plan_prefetch(blk, need, plan, t);
  PageMask to_populate = need | prefetch;
  // --- physical backing (may evict, may restart) ---
  PageMask unbacked;
  t = ensure_backing(blk, to_populate, t, unbacked,
                     /*speculative=*/prefetch.any());
  t = degrade_unbacked(blk, need & unbacked, t);
  to_populate = to_populate.and_not(unbacked);
  prefetch = prefetch.and_not(unbacked);
  // The faulted slice is backed and tracked from here on: record the demand
  // touch before any speculative allocations this bin may append.
  touch_slices(blk, bin.faulted);
  if (to_populate.none()) return t;

  t = zero_fill(blk, to_populate, t);
  t = migrate_demand(bin, blk, to_populate, t);
  t = map_resident(blk, to_populate, t);
  record_prefetch(blk, prefetch, t);
  t = maybe_coalesce(blk, t);
  // --- speculation (learned policies): the serviced block stays locked so
  // the speculation can never evict it.
  return speculate(bin, t);
}

PageMask Driver::account_bin(const FaultBatch::Bin& bin, const VaBlock& blk,
                             SimTime& t) {
  const SimTime t0 = t;
  t += cm_.service_block_overhead;

  // Split stale (already resident — e.g. a Batch-policy leftover) from
  // pages that genuinely need service.
  const PageMask stale = bin.faulted & (blk.gpu_resident | blk.remote_mapped);
  const PageMask need = need_mask(bin, blk);
  counters_.stale_faults += stale.count();

  if (cfg_.storm.enabled) {
    // Stale faults and intra-bin duplicates are the re-fault signature a
    // replay storm leaves; feed them to the watchdog.
    std::uint64_t refaults =
        stale.count() + (bin.fault_entries > bin.faulted.count()
                             ? bin.fault_entries - bin.faulted.count()
                             : 0);
    if (refaults > 0) t = storm_observe(blk.id, refaults, t);
  }

  // The base-page widening remainder is accounted separately so fault
  // conservation (fetched == serviced + duplicate + stale) holds at every
  // granularity.
  const std::uint32_t faulted_need = bin.faulted.and_not(stale).count();
  counters_.faults_serviced += faulted_need;
  counters_.base_page_fill_pages += need.count() - faulted_need;
  prof_.add(CostCategory::ServiceOther, t - t0);

  // Fault log: one record per unique fault, in driver processing order.
  if (log_.enabled()) {
    for (std::uint32_t i : bin.faulted.set_bits()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, blk.first_page + i,
                                blk.id, blk.range, stale.test(i)});
    }
  }
  return need;
}

void Driver::touch_slices(const VaBlock& blk, const PageMask& pages) {
  for (std::uint32_t s : touched_slices(pages, kPagesPerBlock)) {
    eviction_->on_slice_touched(SliceKey{blk.id, s});
  }
}

bool Driver::map_remote_bin(VaBlock& blk, const PageMask& need, SimTime& t) {
  // --- thrashing mitigation (perf_thrashing module) ---
  const ThrashingDetector::Advice thrash_advice =
      thrashing_.on_fault(blk.id, t);
  if (thrash_advice == ThrashingDetector::Advice::Throttle) {
    t += cfg_.thrashing.throttle_delay;
    prof_.add(CostCategory::ServiceOther, cfg_.thrashing.throttle_delay);
    ++counters_.thrash_throttles;
  }

  // --- remote mapping: map, never migrate. Remote-map advice (paper
  // §III-A behaviour 2) always takes this path; a thrash pin takes it to
  // stop bouncing the data until the block's thrash score decays.
  const bool pin = thrash_advice == ThrashingDetector::Advice::Pin;
  if (!pin && !d_.as->range(blk.range).advise.remote_map) return false;
  const SimTime t0 = t;
  d_.pt->map_remote(blk, need);
  t += cm_.map_membar +
       static_cast<SimDuration>(need.count()) * cm_.map_per_page;
  (pin ? counters_.thrash_pinned_pages : counters_.pages_remote_mapped) +=
      need.count();
  prof_.add(CostCategory::ServiceMap, t - t0);
  return true;
}

PageMask Driver::plan_prefetch(const VaBlock& blk, const PageMask& need,
                               const BinPlan* plan, SimTime& t) {
  // Policies that do not plan per bin skip this stage — including the
  // tree's stage-1 big-page upgrade — so their demand stays 4 KB-exact.
  if (!prefetch_->plans_bins()) return {};
  const SimTime t0 = t;
  const std::uint32_t threshold = prefetch_->threshold();
  Prefetcher::Result pres;
  if (plan != nullptr && plan->valid &&
      plan->eviction_epoch == blk.eviction_count &&
      plan->threshold == threshold && plan->need == need) {
    pres.prefetch = plan->prefetch;
    pres.tree_updates = plan->tree_updates;
    ++counters_.lane_plans_applied;
  } else {
    if (plan != nullptr) ++counters_.lane_plans_recomputed;
    pres = prefetch_->plan(blk, need);
  }
  t += cm_.prefetch_compute_per_block +
       static_cast<SimDuration>(pres.tree_updates) *
           cm_.prefetch_compute_per_fault;
  prof_.add(CostCategory::ServiceOther, t - t0);
  trace_span(TraceCategory::Prefetch, "prefetch.compute", t0, t, blk.id,
             "tree_updates", pres.tree_updates, "pages", pres.prefetch.count(),
             "threshold", threshold);
  return pres.prefetch;
}

SimTime Driver::degrade_unbacked(VaBlock& blk, const PageMask& degraded,
                                 SimTime t) {
  // Graceful degradation: some slices could not be backed because no
  // eviction victim was eligible. Instead of failing the run, serve the
  // faulted pages via remote (host) mapping — slower but correct. The
  // caller drops the prefetch candidates on those slices.
  if (degraded.none()) return t;
  const SimTime t0 = t;
  d_.pt->map_remote(blk, degraded);
  t += cm_.map_membar +
       static_cast<SimDuration>(degraded.count()) * cm_.map_per_page;
  counters_.degraded_remote_pages += degraded.count();
  prof_.add(CostCategory::ErrorRecovery, t - t0);
  trace_span(TraceCategory::Recovery, "recover.degraded_remote", t0, t,
             blk.id, "pages", degraded.count());
  if (log_.enabled()) {
    for (std::uint32_t i : degraded.set_bits()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Hazard, blk.first_page + i,
                                blk.id, blk.range, false});
    }
  }
  return t;
}

SimTime Driver::migrate_demand(const FaultBatch::Bin& bin, VaBlock& blk,
                               const PageMask& to_populate, SimTime t) {
  // --- migrate host-resident data, coalesced into contiguous runs ---
  const PageMask migrate = to_populate & blk.cpu_resident & blk.ever_populated;
  if (migrate.none()) return t;
  if (cfg_.pipelined_migrations) {
    // Issue asynchronously: the cursor advances only by the CPU-side
    // submission cost; the copy's completion gates the next replay.
    const SimTime t0 = t;
    const auto run_bytes = runs_to_bytes(migrate);
    const SimTime done =
        robust_copy(Direction::HostToDevice, t, run_bytes).done;
    migrations_inflight_until_ = std::max(migrations_inflight_until_, done);
    t += static_cast<SimDuration>(run_bytes.size()) *
         cm_.migrate_issue_per_run;
    counters_.pages_migrated_h2d += migrate.count();
    prof_.add(CostCategory::ServiceMigrate, t - t0);
  } else {
    t = migrate_h2d(migrate, t);
  }
  if (d_.as->range(blk.range).advise.read_mostly &&
      bin.strongest_access == FaultAccessType::Read) {
    // Read-only duplication (paper §III-A behaviour 3): both copies stay
    // valid; a later GPU write collapses it.
    blk.read_duplicated |= migrate;
    counters_.pages_duplicated += migrate.count();
  } else {
    blk.cpu_resident &= ~migrate;  // paged migration unmaps the source
  }
  return t;
}

void Driver::record_prefetch(VaBlock& blk, const PageMask& pages, SimTime t) {
  counters_.pages_prefetched += pages.count();
  blk.prefetched_unused |= pages;
  if (log_.enabled()) {
    for (std::uint32_t i : pages.set_bits()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Prefetch,
                                blk.first_page + i, blk.id, blk.range, false});
    }
  }
}

SimTime Driver::speculate(const FaultBatch::Bin& bin, SimTime t) {
  speculations_.clear();
  if (!prefetch_->speculate(bin, *d_.as, counters_, speculations_)) return t;
  ++counters_.markov_observes;
  // One table lookup + update per serviced bin: charge the same per-fault
  // rate as a tree-node update.
  t += cm_.prefetch_compute_per_fault;
  prof_.add(CostCategory::ServiceOther, cm_.prefetch_compute_per_fault);
  for (const Speculation& sp : speculations_) {
    ++counters_.markov_predictions;
    SimTime t0 = t;
    t += cm_.prefetch_compute_per_block;  // prediction + population setup
    prof_.add(CostCategory::ServiceOther, t - t0);
    t = populate_speculative(d_.as->block(sp.block), sp.shape, t);
  }
  return t;
}

SimTime Driver::populate_speculative(VaBlock& blk, const PageMask& shape,
                                     SimTime t) {
  PageMask window;
  window.set_range(0, blk.num_pages);
  PageMask want =
      (shape & window).and_not(blk.gpu_resident).and_not(blk.remote_mapped);
  if (want.none()) return t;

  // The stride path speculates on the block being serviced; the lock
  // restores its previous state, so service_bin's stays the one release.
  const ServiceLock lock(blk);
  // speculative=false on purpose: the tree path's root-granularity
  // speculative backing is exactly the 2 MB-per-prediction amplification
  // the paper blames for "prefetching aggravates oversubscription". The
  // learned path backs its projected footprint at demand-chunk granularity
  // instead, so a speculation costs what the equivalent demand would.
  // Pages that cannot be backed are simply not speculated on.
  t = back_what_fits(blk, want, t, /*speculative=*/false);
  if (want.none()) return t;

  t = zero_fill(blk, want, t);
  const PageMask migrate = want & blk.cpu_resident & blk.ever_populated;
  if (migrate.any()) {
    t = migrate_h2d(migrate, t);
    blk.cpu_resident &= ~migrate;  // paged migration unmaps the source
  }

  const SimTime t0 = t;  // the trace span below covers the map only
  t = map_resident(blk, want, t);
  record_prefetch(blk, want, t);
  ++counters_.markov_blocks_prefetched;
  trace_span(TraceCategory::Prefetch, "prefetch.markov", t0, t, blk.id,
             "pages", want.count());
  // Deliberately NO on_slice_touched: ensure_backing already emitted
  // on_slice_allocated, and speculation is not a use — CLOCK/2Q must see
  // never-demanded prefetch as first-choice eviction fodder.
  return maybe_coalesce(blk, t);
}

SimTime Driver::back_what_fits(VaBlock& blk, PageMask& pages, SimTime t,
                               bool speculative) {
  PageMask unbacked;
  t = ensure_backing(blk, pages, t, unbacked, speculative);
  pages = pages.and_not(unbacked);
  return t;
}

SimTime Driver::migrate_h2d(const PageMask& pages, SimTime t) {
  const SimTime t0 = t;
  SimDuration recovery = 0;
  if (pages.any()) {
    const CopyOutcome rc =
        robust_copy(Direction::HostToDevice, t, runs_to_bytes(pages));
    t = rc.done;
    recovery = rc.recovery;
    counters_.pages_migrated_h2d += pages.count();
  }
  prof_.add(CostCategory::ServiceMigrate, (t - t0) - recovery);
  return t;
}

SimTime Driver::zero_fill(VaBlock& blk, const PageMask& pages, SimTime t) {
  const PageMask zero = pages.and_not(blk.ever_populated);
  if (zero.none()) return t;
  const SimTime t0 = t;
  t = d_.dma->zero_fill(t,
                        static_cast<std::uint64_t>(zero.count()) * kPageSize);
  blk.ever_populated |= zero;
  counters_.pages_zeroed += zero.count();
  prof_.add(CostCategory::ServiceZero, t - t0);
  return t;
}

SimTime Driver::map_resident(VaBlock& blk, const PageMask& pages, SimTime t) {
  d_.pt->map_pages(blk, pages);
  const SimDuration cost =
      cm_.map_membar +
      static_cast<SimDuration>(pages.count()) * cm_.map_per_page;
  prof_.add(CostCategory::ServiceMap, cost);
  return t + cost;
}

SimTime Driver::ensure_backing(VaBlock& blk, const PageMask& to_populate,
                               SimTime t, PageMask& unbacked,
                               bool speculative) {
  // Victim eligibility is stable for the duration of this call (the
  // faulting block is fixed and no service_locked flag flips), so the
  // eviction policy may cache ineligibility verdicts between victim scans.
  eviction_->begin_victim_round();
  PageMask missing = to_populate.and_not(blk.backing.backed_pages());
  if (missing.any()) {
    // Root-chunk path: chunking disabled, memory plentiful, or the demand
    // covers the whole block anyway — the real driver, too, hands out a
    // whole root chunk whenever it can. Speculative (prefetch-driven)
    // demand also backs at root granularity, mirroring the real prefetch
    // path's block-granularity population: under pressure this keeps
    // demanding 2 MB that may evict before use, while unprefetched
    // scattered demand gets cheap sub-chunk backing — the paper's
    // "disabling prefetching helps when oversubscribed" effect.
    // Byte-identical to the historical whole-block backing.
    const bool whole_block_demand = missing.count() == blk.num_pages;
    if (!blk.backing.fragmented() &&
        (!cfg_.chunking.enabled || whole_block_demand || speculative ||
         pressure() == Pressure::None)) {
      t = back_block_root(blk, to_populate, t, unbacked);
    } else {
      t = back_block_chunks(blk, missing, t, unbacked);
    }
  }
  eviction_->end_victim_round();
  return t;
}

SimTime Driver::back_block_root(VaBlock& blk, const PageMask& to_populate,
                                SimTime t, PageMask& unbacked) {
  if (!alloc_backing_bytes(blk, kVaBlockSize, kVaBlockSize, t)) {
    // No eligible victim (every resident block is the faulting one or a
    // locked one): leave the block unbacked and let the caller degrade its
    // pages to remote mapping.
    unbacked |= to_populate;
    return t;
  }
  blk.backing.set_root();
  eviction_->on_slice_allocated(SliceKey{blk.id, 0});
  return t;
}

SimTime Driver::back_block_chunks(VaBlock& blk, const PageMask& missing,
                                  SimTime t, PageMask& unbacked) {
  const bool fine = pressure() == Pressure::Fine;
  bool first_chunk = !blk.backing.any();

  // Plan the chunk shape first so eviction requests can batch the whole
  // remainder: one 64 KB chunk per big-page group wholly demanded (or any
  // demand above the fine watermark) with no existing 4 KB backing there;
  // 4 KB chunks for partially-wanted groups under fine pressure and for
  // groups that already fragmented down to base chunks.
  std::uint32_t plan_big = 0;
  PageMask plan_base;
  for (std::uint32_t g : touched_slices(missing, kPagesPerBigPage)) {
    const std::uint32_t lo = g * kPagesPerBigPage;
    PageMask group;
    group.set_range(lo, lo + kPagesPerBigPage);
    const PageMask want = missing & group;
    if (!blk.backing.has_base_in(g) &&
        (!fine || want.count() == kPagesPerBigPage)) {
      plan_big |= std::uint32_t{1} << g;
    } else {
      plan_base |= want;
    }
  }
  std::uint64_t remaining =
      static_cast<std::uint64_t>(std::popcount(plan_big)) * kBigPageSize +
      static_cast<std::uint64_t>(plan_base.count()) * kPageSize;

  // Allocate in ascending page order (deterministic trace + eviction order).
  for (std::uint32_t g = 0; g < kBigPagesPerBlock && remaining > 0; ++g) {
    const bool big = (plan_big >> g) & 1u;
    const std::uint32_t lo = g * kPagesPerBigPage;
    const std::uint32_t hi = lo + kPagesPerBigPage;
    if (big) {
      if (!alloc_backing_bytes(blk, kBigPageSize, remaining, t)) {
        unbacked |= missing.and_not(blk.backing.backed_pages());
        return t;
      }
      blk.backing.set_big(g);
      remaining -= kBigPageSize;
      if (first_chunk) {
        eviction_->on_slice_allocated(SliceKey{blk.id, 0});
        ++counters_.blocks_split;
        first_chunk = false;
      }
    } else {
      for (std::uint32_t p = plan_base.find_next_set(lo); p < hi;
           p = plan_base.find_next_set(p + 1)) {
        if (!alloc_backing_bytes(blk, kPageSize, remaining, t)) {
          unbacked |= missing.and_not(blk.backing.backed_pages());
          return t;
        }
        blk.backing.set_base(p);
        remaining -= kPageSize;
        if (first_chunk) {
          eviction_->on_slice_allocated(SliceKey{blk.id, 0});
          ++counters_.blocks_split;
          first_chunk = false;
        }
      }
    }
  }
  return t;
}

bool Driver::alloc_backing_bytes(VaBlock& blk, std::uint64_t bytes,
                                 std::uint64_t plan_remaining, SimTime& t) {
  std::uint32_t transient_failures = 0;
  for (;;) {
    auto res = d_.pma->alloc_bytes(bytes, t);
    if (res.ok) {
      SimDuration cost = cm_.pma_cached_alloc;
      if (res.rm_calls > 0) {
        // The RM round trip is latency-bound and variable (§III-D).
        double jittered = rng_.next_gaussian(
            static_cast<double>(cm_.pma_rm_call),
            static_cast<double>(cm_.pma_rm_call_stddev));
        double floor = static_cast<double>(cm_.pma_rm_call) / 3.0;
        cost = static_cast<SimDuration>(std::max(jittered, floor));
      }
      if (bytes < kVaBlockSize) {
        // Carving a sub-chunk splits a root chunk in the PMA tree.
        cost += cm_.pma_split;
        ++counters_.subchunk_allocs;
      }
      t += cost;
      prof_.add(CostCategory::ServicePmaAlloc, cost);
      return true;
    }
    if (res.transient) {
      // Transient RM failure (injected hazard): exponential backoff with
      // a capped exponent, then retry the call.
      std::uint32_t shift =
          std::min(transient_failures, cfg_.recovery.pma_backoff_cap);
      SimDuration backoff = cfg_.recovery.pma_backoff_base << shift;
      trace_span(TraceCategory::Recovery, "recover.pma_backoff", t,
                 t + backoff, blk.id, "attempt", transient_failures + 1);
      t += backoff;
      prof_.add(CostCategory::ErrorRecovery, backoff);
      ++counters_.pma_alloc_retries;
      ++transient_failures;
      continue;
    }
    // Exhausted: evict and retry. Every eviction drops the faulting
    // block's lock while the victim is held, restarting this fault path
    // (§V-A2) — the penalty recurs per eviction.
    if (!evict_victim(t, blk.id, plan_remaining)) {
      ++counters_.eviction_victim_unavailable;
      return false;
    }
    t += cm_.service_restart;
    prof_.add(CostCategory::Eviction, cm_.service_restart);
    ++counters_.service_restarts;
  }
}

SimTime Driver::maybe_coalesce(VaBlock& blk, SimTime t) {
  if (!cfg_.chunking.enabled || !cfg_.chunking.coalesce) return t;
  if (!blk.backing.fragmented()) return t;
  if (blk.num_pages != kPagesPerBlock) return t;  // partial blocks stay split
  if (blk.backing.backed_bytes() != kVaBlockSize) return t;
  // Every page is chunk-backed, so the sub-chunks hold exactly one root
  // chunk's bytes: re-merge them — PMA accounting is unchanged, but the
  // block becomes a whole-block eviction victim again.
  const std::uint32_t merged = blk.backing.chunk_count();
  blk.backing.set_root();
  const SimDuration cost =
      static_cast<SimDuration>(merged) * cm_.pma_coalesce;
  t += cost;
  prof_.add(CostCategory::ServicePmaAlloc, cost);
  ++counters_.blocks_coalesced;
  trace_instant(TraceCategory::Service, "pma.coalesce", t, blk.id, "chunks",
                merged);
  return t;
}

Driver::Pressure Driver::pressure() const {
  const double frac = d_.pma->free_fraction();
  if (frac < cfg_.chunking.fine_watermark) return Pressure::Fine;
  if (frac < cfg_.chunking.split_watermark ||
      d_.pma->bytes_free() < kVaBlockSize) {
    // Below the watermark — or the GPU is simply too small to ever carve a
    // whole root chunk.
    return Pressure::Split;
  }
  return Pressure::None;
}

bool Driver::evict_victim(SimTime& t, VaBlockId faulting_block,
                          std::uint64_t want_bytes) {
  // Honor cudaMemAdvise preferred-location hints: evict non-preferred
  // slices first (Preferred victims), fall back to anything eligible. The
  // single classified scan replaces the previous two-pass
  // (not_preferred-then-base_ok) search with identical victim choice.
  auto classify = [&](SliceKey k) {
    if (k.block == faulting_block) return VictimEligibility::Ineligible;
    const VaBlock& b = d_.as->block(k.block);
    if (b.service_locked) return VictimEligibility::Ineligible;
    return d_.as->range(b.range).advise.preferred_location_gpu
               ? VictimEligibility::Eligible
               : VictimEligibility::Preferred;
  };
  std::optional<SliceKey> v = eviction_->pick_victim_classified(classify);
  if (!v) {
    trace_instant(TraceCategory::Eviction, "evict.no_victim", t,
                  faulting_block, "scanned", eviction_->last_scan_length());
    return false;  // caller degrades to remote mapping
  }

  SimTime t0 = t;
  SimDuration recovery = 0;
  VaBlock& vb = d_.as->block(v->block);
  const bool whole = vb.backing.root();
  // Chunk-granularity eviction: a root-backed victim is evicted whole (the
  // historical behaviour); a fragmented victim frees resident sub-chunks in
  // ascending page order until the caller's demand is covered, and keeps
  // its LRU position for the next call if chunks remain.
  PageMask freed_pages;
  const ChunkTree::TakeResult taken =
      vb.backing.take_chunks(want_bytes, freed_pages);
  PageMask resident = vb.gpu_resident & freed_pages;

  t += cm_.evict_overhead;
  // Device-to-host writeback: needed for every resident page whose host
  // copy is invalid (paged migration unmapped it). Read-duplicated pages
  // still have a valid host copy and skip the transfer.
  PageMask writeback = resident.and_not(vb.cpu_resident);
  counters_.writebacks_avoided += resident.count() - writeback.count();
  if (writeback.any()) {
    CopyOutcome rc = robust_copy(Direction::DeviceToHost, t,
                                 runs_to_bytes(writeback));
    t = rc.done;
    recovery = rc.recovery;
  }
  counters_.pages_evicted += writeback.count();
  counters_.prefetched_evicted_unused +=
      (vb.prefetched_unused & freed_pages).count();

  d_.pt->unmap_pages(vb, resident);
  t += cm_.map_membar +
       static_cast<SimDuration>(resident.count()) * cm_.unmap_per_page;
  d_.gpu->invalidate_tlbs();

  vb.cpu_resident |= resident;
  vb.read_duplicated = vb.read_duplicated.and_not(freed_pages);
  vb.dirty = vb.dirty.and_not(freed_pages);
  thrashing_.on_eviction(vb.id, t);
  vb.prefetched_unused = vb.prefetched_unused.and_not(freed_pages);
  ++vb.eviction_count;
  d_.pma->release_bytes(taken.bytes);
  if (vb.backing.any()) {
    ++counters_.partial_evictions;
  } else {
    eviction_->on_slice_evicted(*v);
  }
  if (!whole) counters_.chunks_evicted += taken.chunks;
  ++counters_.evictions;

  if (log_.enabled()) {
    log_.record(FaultLogEntry{
        0, t, FaultLogKind::Eviction,
        vb.first_page + freed_pages.find_next_set(0), vb.id, vb.range,
        false});
  }
  prof_.add(CostCategory::Eviction, (t - t0) - recovery);
  trace_span(TraceCategory::Eviction, "evict.victim", t0, t, v->block,
             "chunks", taken.chunks, "writeback_pages", writeback.count(),
             "scanned", eviction_->last_scan_length());
  return true;
}

SimTime Driver::service_cpu_access(VirtPage first, std::uint64_t npages,
                                   bool write) {
  SimTime t = d_.eq->now();
  const auto visit = [&](VaBlock& blk, const PageMask& window) {
    // Pages valid on the host already (resident or duplicated) are free.
    PageMask gpu_only = (blk.gpu_resident & window).and_not(blk.cpu_resident);
    if (gpu_only.none() && !write) return;

    SimTime t0 = t;
    SimDuration recovery = 0;
    if (gpu_only.any()) {
      t += cm_.service_block_overhead;  // CPU fault handling bookkeeping
      CopyOutcome rc = robust_copy(Direction::DeviceToHost, t,
                                   runs_to_bytes(gpu_only));
      t = rc.done;
      recovery = rc.recovery;
      blk.cpu_resident |= gpu_only;
      counters_.cpu_faults_serviced += gpu_only.count();
    }
    if (write) {
      // Host writes invalidate every GPU copy in the window.
      PageMask gpu_copies = blk.gpu_resident & window;
      if (gpu_copies.any()) {
        d_.pt->unmap_pages(blk, gpu_copies);
        t += cm_.map_membar + static_cast<SimDuration>(gpu_copies.count()) *
                                  cm_.unmap_per_page;
        d_.gpu->invalidate_tlbs();
        blk.read_duplicated &= ~window;
        blk.dirty &= ~window;
      }
      blk.ever_populated |= window;
    }
    prof_.add(CostCategory::ServiceMigrate, (t - t0) - recovery);
  };
  for_each_block_window(*d_.as, first, npages, visit);
  return t;
}

SimTime Driver::prefetch_pages(VirtPage first, std::uint64_t npages) {
  SimTime t = d_.eq->now();
  const auto visit = [&](VaBlock& blk, const PageMask& window) {
    // Remote-mapped pages are pinned to the host by design; bulk prefetch
    // must not migrate them.
    PageMask to_move = (window & blk.cpu_resident & blk.ever_populated)
                           .and_not(blk.gpu_resident)
                           .and_not(blk.remote_mapped);
    if (to_move.none()) return;

    const ServiceLock lock(blk);
    // Bulk prefetch is advisory: pages on slices that cannot be backed (no
    // eligible victim) are simply skipped.
    t = back_what_fits(blk, to_move, t, /*speculative=*/true);
    if (to_move.none()) return;

    const SimTime t0 = t;  // the trace span below covers the copy only
    t = migrate_h2d(to_move, t);
    blk.cpu_resident &= ~to_move;
    counters_.prefetch_async_pages += to_move.count();
    trace_span(TraceCategory::Prefetch, "prefetch.bulk", t0, t, blk.id,
               "pages", to_move.count());

    t = map_resident(blk, to_move, t);

    // No on_slice_touched here (PR-10 bugfix audit): speculative backing
    // emits exactly on_slice_allocated (inside ensure_backing). Bulk
    // prefetch is speculation, not a use — the stock LRU masked the
    // difference (allocation already MRU-inserts), but CLOCK/2Q would have
    // promoted never-demanded data.
    t = maybe_coalesce(blk, t);
  };
  for_each_block_window(*d_.as, first, npages, visit);
  return t;
}

SimTime Driver::issue_replay(SimTime t, std::uint64_t groups) {
  SimDuration cost = cm_.replay_issue;
  if (groups > 1) {
    // Replaying a batch that spans many VA-block groups costs extra driver
    // bookkeeping per group (§III-E); zero per-group cost collapses this
    // to the historical flat charge.
    cost += static_cast<SimDuration>(groups - 1) * cm_.replay_per_group;
  }
  prof_.add(CostCategory::ReplayPolicy, cost);
  ++counters_.replays_issued;
  SimTime t0 = t;
  t += cost;
  // Pipelined migrations: warps must not resume before their data lands,
  // so the replay notification trails the last outstanding copy. The
  // driver itself keeps working — only the replay waits.
  SimTime fire_at = std::max(t, migrations_inflight_until_);
  trace_span(TraceCategory::Replay, "replay.issue", t0, t,
             counters_.replays_issued, "fire_at", fire_at);
  d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
  return t;
}

SimTime Driver::flush_buffer(SimTime t) {
  SimDuration cost = cm_.flush_base + cm_.flush_per_entry * d_.fb->size();
  prof_.add(CostCategory::ReplayPolicy, cost);
  ++counters_.buffer_flushes;
  trace_span(TraceCategory::Replay, "replay.flush", t, t + cost,
             counters_.buffer_flushes, "pending_entries", d_.fb->size());
  t += cost;
  d_.eq->schedule_at(t, [this] {
    counters_.flushed_entries += d_.fb->flush();
  });
  return t;
}

SimTime Driver::drain_access_counters(SimTime t) {
  if (!d_.ac->enabled()) return t;
  auto notes = d_.ac->drain(~std::size_t{0});
  if (notes.empty()) return t;
  SimDuration cost =
      static_cast<SimDuration>(notes.size()) * cm_.access_notification;
  prof_.add(CostCategory::PreProcess, cost);
  counters_.access_notifications += notes.size();
  t += cost;
  for (const auto& n : notes) {
    eviction_->on_access_notification(n);
    if (cfg_.access_counter_migration) t = promote_hot_region(n, t);
  }
  return t;
}

SimTime Driver::promote_hot_region(const AccessCounterNotification& n,
                                   SimTime t) {
  VaBlock& blk = d_.as->block(n.block);
  std::uint32_t lo = n.big_page * kPagesPerBigPage;
  std::uint32_t hi = std::min(lo + kPagesPerBigPage, blk.num_pages);
  if (lo >= blk.num_pages) return t;
  PageMask window;
  window.set_range(lo, hi);

  PageMask remote = blk.remote_mapped & window;
  if (remote.none()) return t;

  const ServiceLock lock(blk);
  // Promotion is opportunistic: hot pages whose slices cannot be backed
  // stay remote-mapped and may promote later.
  t = back_what_fits(blk, remote, t, /*speculative=*/false);
  if (remote.none()) return t;

  // Drop the remote view, migrate the data local, and re-map resident (the
  // PTE rewrite + membar are charged with the map below). A remote-mapped
  // page keeps its data in host memory, so every populated page migrates;
  // a page never populated (GPU-born behind the remote mapping) is
  // zero-filled like at every other population site. The migrate charge
  // is made even when no page holds host data.
  blk.remote_mapped &= ~remote;
  const PageMask migrate = remote & blk.ever_populated;
  t = zero_fill(blk, remote, t);
  t = migrate_h2d(migrate, t);
  blk.cpu_resident &= ~migrate;

  t = map_resident(blk, remote, t);
  d_.gpu->invalidate_tlbs();  // the translation kind changed

  counters_.counter_promoted_pages += remote.count();
  touch_slices(blk, remote);
  return maybe_coalesce(blk, t);
}

Driver::CopyOutcome Driver::robust_copy(
    Direction dir, SimTime t, std::span<const std::uint64_t> run_bytes) {
  DmaEngine::CopyResult res = d_.dma->copy_runs(dir, t, run_bytes);
  if (res.ok()) return {res.done, 0};  // fast path: hazard-free arithmetic

  // Bounded retry with exponential backoff. After dma_max_retries failed
  // rounds the copy engine is reset and the retry budget renews, so the
  // copy always eventually completes (fail rates are validated < 1).
  // Everything from the first failure report onward — backoffs, resets,
  // and the re-issued transfers themselves — is recovery time.
  SimTime recovery_start = res.done;
  SimTime cur = res.done;
  std::uint32_t attempt = 0;
  while (!res.ok()) {
    if (attempt >= cfg_.recovery.dma_max_retries) {
      cur += cfg_.recovery.dma_reset_cost;
      ++counters_.dma_engine_resets;
      attempt = 0;
    }
    cur += cfg_.recovery.dma_backoff_base << attempt;
    ++counters_.dma_retries;
    counters_.dma_runs_retried += res.failed_run_bytes.size();
    std::vector<std::uint64_t> pending = std::move(res.failed_run_bytes);
    res = d_.dma->copy_runs(dir, cur, pending);
    cur = res.done;
    ++attempt;
  }
  SimDuration recovery = cur - recovery_start;
  prof_.add(CostCategory::ErrorRecovery, recovery);
  trace_span(TraceCategory::Recovery, "recover.dma", recovery_start, cur, 0,
             "retries", counters_.dma_retries, "resets",
             counters_.dma_engine_resets);
  return {cur, recovery};
}

SimTime Driver::storm_observe(VaBlockId block, std::uint64_t refaults,
                              SimTime t) {
  StormState& st = storm_state_[block];
  if (t - st.window_start > cfg_.storm.window) {
    st.window_start = t;
    st.refaults = 0;
  }
  st.refaults += refaults;
  if (st.refaults < cfg_.storm.refault_threshold || t < storm_until_) {
    return t;
  }
  // Storm detected: escalate the replay policy to BatchFlush for the
  // cooldown and flush the buffer now, draining the duplicate entries that
  // feed the storm. Forward progress is guaranteed — the escalated policy
  // still replays every batch, so parked warps re-fault and get serviced.
  ++counters_.replay_storms;
  storm_until_ = t + cfg_.storm.cooldown;
  st.refaults = 0;
  st.window_start = t;
  trace_instant(TraceCategory::Replay, "replay.storm", t, block, "cooldown",
                cfg_.storm.cooldown);

  SimDuration cost = cm_.flush_base + cm_.flush_per_entry * d_.fb->size();
  prof_.add(CostCategory::ErrorRecovery, cost);
  ++counters_.storm_flushes;
  trace_span(TraceCategory::Recovery, "recover.storm_flush", t, t + cost,
             block, "pending_entries", d_.fb->size());
  t += cost;
  d_.eq->schedule_at(t, [this] {
    counters_.flushed_entries += d_.fb->flush();
  });
  if (log_.enabled()) {
    const VaBlock& b = d_.as->block(block);
    log_.record(FaultLogEntry{0, t, FaultLogKind::Hazard, b.first_page,
                              block, b.range, false});
  }
  return t;
}

ReplayPolicyKind Driver::effective_replay_policy(SimTime t) const {
  if (cfg_.storm.enabled && t < storm_until_) {
    return ReplayPolicyKind::BatchFlush;
  }
  return cfg_.replay_policy;
}

void Driver::on_fault_dropped() {
  // Only armed under hazard injection: hazard-free runs keep the exact
  // event sequence (and end time) they had before this subsystem existed.
  if (!hazards_active() || watchdog_armed_) return;
  watchdog_armed_ = true;
  d_.eq->schedule_in(cfg_.recovery.watchdog_interval,
                     [this] { watchdog_check(); });
}

void Driver::watchdog_check() {
  watchdog_armed_ = false;
  // An active driver will replay on its own at batch end; only the
  // quiescent-but-stuck state needs a rescue.
  if (processing_ || wake_scheduled_) return;
  if (!d_.fb->empty()) {
    on_gpu_interrupt();
    return;
  }
  if (!d_.gpu->has_stalled_warps()) return;
  // Parked warps, empty buffer, idle driver: their fault entries were lost.
  // Force a replay so they re-fault (a fresh drop re-arms the watchdog).
  ++counters_.watchdog_rescues;
  ++counters_.replays_issued;
  prof_.add(CostCategory::ErrorRecovery, cm_.replay_issue);
  trace_instant(TraceCategory::Recovery, "recover.watchdog_rescue",
                d_.eq->now(), counters_.watchdog_rescues);
  SimTime fire_at = std::max(d_.eq->now() + cm_.replay_issue,
                             migrations_inflight_until_);
  d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
}

}  // namespace uvmsim
