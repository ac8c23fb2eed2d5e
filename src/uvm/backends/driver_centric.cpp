#include "uvm/backends/driver_centric.h"

#include <vector>

#include "sim/thread_pool.h"
#include "uvm/fault_batch.h"

namespace uvmsim {

SimTime DriverCentricBackend::service_pass() {
  DriverCounters& ctr = counters();
  const CostModel& cm = costs();
  Driver::Deps& d = deps();

  // Intra-run lane pipeline (PR 8): with a lane pool and service_lanes > 1,
  // the embarrassingly-parallel stages — fetch's sort/bin and the per-bin
  // prefetch-plan precompute — fan out over lanes. The per-bin service walk
  // below stays strictly serial and is the single ordering authority; it
  // applies a plan only while still valid, so the simulated timeline is
  // byte-identical for every lane count.
  const std::uint32_t lanes =
      d.lane_pool != nullptr ? config().service_lanes : 1;
  ThreadPool* pool = lanes > 1 ? d.lane_pool : nullptr;

  SimTime t = d.eq->now() + cm.pass_overhead;
  if (ctr.passes == 1 && cm.driver_cold_start > 0) {
    // First-fault path: channels, VA-space structures, cold caches.
    t += cm.driver_cold_start;
    profiler().add(CostCategory::ServiceOther, cm.driver_cold_start);
  }

  // Access-counter notifications (extension path; zero cost when disabled).
  t = drain_access_counters(t);

  // --- pre-processing ---
  const std::uint64_t pass_id = ctr.passes;
  SimTime t0 = t;
  FaultBatch batch =
      Preprocessor::fetch(*d.fb, config().batch_size, cm, t,
                          config().fetch_policy, &queue_latency(), d.tracer,
                          pool, lanes);
  if (batch.sharded) ++ctr.lane_sharded_batches;
  ctr.faults_fetched += batch.fetched;
  ctr.duplicate_faults += batch.duplicates;
  ctr.polls += batch.polls;
  ctr.queue_latency_clamped += batch.latency_clamps;
  profiler().add(CostCategory::PreProcess, t - t0);
  trace_span(TraceCategory::Fetch, "driver.fetch", t0, t, pass_id, "fetched",
             batch.fetched, "dups", batch.duplicates, "bins",
             batch.bins.size());

  if (!batch.empty()) {
    ++ctr.batches;
    // Lane stage: precompute each bin's prefetch plan from pre-walk block
    // state, for policies that plan per bin. Lanes touch disjoint plan
    // slots and only read shared state (the walk has not started, so
    // nothing mutates under them).
    UVMSIM_LANE_OWNED std::vector<BinPlan> plans;
    if (pool != nullptr && drv_.prefetch_policy().plans_bins() &&
        batch.bins.size() > 1) {
      plans.resize(batch.bins.size());
      pool->for_lanes(batch.bins.size(), lanes,
                      [&](std::size_t lane, std::size_t b, std::size_t e) {
                        (void)lane;
                        for (std::size_t i = b; i < e; ++i) {
                          precompute_plan(batch.bins[i], plans[i]);
                        }
                      });
    }
    // --- service, one VABlock bin at a time (the ordering authority) ---
    for (std::size_t i = 0; i < batch.bins.size(); ++i) {
      const auto& bin = batch.bins[i];
      SimTime tb = t;
      t = service_bin(bin, t, plans.empty() ? nullptr : &plans[i]);
      trace_span(TraceCategory::Service, "service.bin", tb, t, bin.block,
                 "entries", bin.fault_entries, "pages", bin.faulted.count(),
                 "pass", pass_id);
      if (effective_replay_policy(t) == ReplayPolicyKind::Block) {
        t = issue_replay(t);
      }
    }
    // --- end-of-batch replay policy ---
    switch (effective_replay_policy(t)) {
      case ReplayPolicyKind::Block:
        break;  // replays already issued per block
      case ReplayPolicyKind::Batch:
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::BatchFlush:
        t = flush_buffer(t);
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::Once:
        break;  // handled by the driver shell at pass end
    }
  }
  return t;
}

}  // namespace uvmsim
