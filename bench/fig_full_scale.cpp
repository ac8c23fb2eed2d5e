// Full-scale Titan V determinism check: the paper's hardware scale —
// 12 GB GPU memory, 80 SMs, a multi-GiB oversubscribed working set, millions
// of 4 KB pages — driven once on the serial servicing path and once with
// intra-run servicing lanes. The simulated run (end-to-end time + every
// counter that reaches a report) must be bit-identical for any lane count:
// a digest of each result is compared, and a mismatch exits nonzero.
//
// Host cost of the laned path (servicing critical path, offload ratio) is
// measured by uvmbench (`uvm.servicing_s`, `lanes.offload_ratio`), not here;
// this bench prints simulated output only.
//
// Scale knobs: UVMSIM_GPU_MIB overrides the 12 GB GPU (CI smoke uses a small
// value), UVMSIM_FAST=1 shrinks to a seconds-long smoke run, UVMSIM_THREADS
// picks the lane count (default 4 here — this bench exists to check the
// laned path).
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "core/env.h"
#include "core/metrics.h"
#include "core/report.h"

namespace {

using namespace uvmsim;
using namespace uvmsim::bench;

/// FNV-1a over every run property a report prints: simulated times, fault
/// accounting, migration/eviction traffic. Two runs with equal digests are
/// indistinguishable to every downstream consumer.
std::uint64_t result_digest(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(r.end_time));
  mix(static_cast<std::uint64_t>(r.total_kernel_time()));
  const DriverCounters& c = r.counters;
  mix(c.passes);
  mix(c.faults_fetched);
  mix(c.faults_serviced);
  mix(c.duplicate_faults);
  mix(c.stale_faults);
  mix(c.blocks_serviced);
  mix(c.pages_migrated_h2d);
  mix(c.pages_prefetched);
  mix(c.pages_evicted);
  mix(c.evictions);
  mix(c.replays_issued);
  mix(c.pages_zeroed);
  mix(static_cast<std::uint64_t>(r.profiler.grand_total()));
  mix(r.fault_queue_latency.count());
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

int main() {
  // Default to the Titan V's 12 GB unless the environment scales it down.
  const std::uint64_t gpu_mib =
      env_u64("UVMSIM_GPU_MIB", fast_mode() ? 256 : 12 * 1024);
  const std::uint64_t gpu_bytes = gpu_mib << 20;
  // 4:3 oversubscription: servicing-dominated (evictions + prefetch churn),
  // the regime the lane pipeline targets.
  const std::uint64_t size_bytes = gpu_bytes + gpu_bytes / 3;

  std::uint64_t threads = env_u64("UVMSIM_THREADS", 4);
  if (threads < 2) threads = 4;  // this bench checks the laned path
  const std::size_t lanes = clamp_thread_count(threads, "UVMSIM_THREADS");

  SimConfig cfg;
  cfg.set_gpu_memory(gpu_bytes);
  cfg.gpu.num_sms = 80;
  // The digest covers counters/profiler/latency, not the log; at full scale
  // the log would be millions of entries of pure allocation noise.
  cfg.enable_fault_log = false;

  std::cout << "full-scale Titan V mode: " << format_bytes(size_bytes)
            << " random working set on " << format_bytes(gpu_bytes)
            << " GPU (" << (size_bytes >> 12) << " pages), lanes=" << lanes
            << "\n\n";

  const auto run_with = [&](std::uint32_t n) {
    SimConfig c = cfg;
    c.driver.service_lanes = n;
    return run_workload(c, "random", size_bytes);
  };
  const RunResult serial = run_with(1);
  const RunResult laned = run_with(static_cast<std::uint32_t>(lanes));

  const std::uint64_t d1 = result_digest(serial);
  const std::uint64_t dn = result_digest(laned);
  const bool identical = d1 == dn;

  Table t({"path", "sim_end_to_end", "digest"});
  t.add_row({"serial", format_duration(serial.end_time), hex(d1)});
  t.add_row({"lanes=" + fmt(static_cast<std::uint64_t>(lanes)),
             format_duration(laned.end_time), hex(dn)});
  std::cout << t.to_text() << "\ndeterminism: "
            << (identical ? "PASS (digests equal)" : "FAIL (digests differ)")
            << "\n";
  std::cout << "lane stats: sharded_batches="
            << laned.counters.lane_sharded_batches
            << " plans_applied=" << laned.counters.lane_plans_applied
            << " plans_recomputed=" << laned.counters.lane_plans_recomputed
            << "\n";
  return identical ? 0 : 1;
}
