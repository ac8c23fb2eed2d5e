// uvmbench: host cost of uvmsim runs, end to end and per layer.
//
//   uvmbench --workload random-oversub --seed 42 --seconds 25 --trace 0
//            --digests uvmbench/digests.tsv
//
// --trace 0 repeats (set up, run, check) on the named workload for the
// given number of seconds and reports the end-to-end metrics as medians.
// Host times are in reference seconds: each is divided by the slowdown of
// a fixed reference loop run next to it (host_slowdown()), which takes out
// the shared host's speed swings but not uvmsim's own cost.
// --trace 1 does the same untraced loop, whose medians give the host-time
// per-layer metrics (servicing, ordering-thread CPU) and the base for
// trace.overhead_pct. It then makes one traced run with the fault log on,
// the eviction timing decorator installed and spans around every call into
// uvmsim, followed by the resident rerun, the fetch/prefetch replays and,
// for laned workloads, the lanes-1 invariance run.
// --print-digest runs the workload once and prints its digest (used to pin
// digests.tsv). The last line of stdout is one JSON object.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "core/errors.h"
#include "core/simulator.h"
#include "gpu/fault_buffer.h"
#include "uvm/eviction_clock.h"
#include "uvm/eviction_lru.h"
#include "uvm/fault_batch.h"
#include "uvm/prefetcher.h"
#include "workloads/registry.h"

namespace uvmbench {
namespace {

using uvmsim::EvictionPolicyKind;
using uvmsim::PrefetchPolicyKind;

/// The four workloads. Each is one closed, sequential simulation of the
/// Titan V GPU model of --full-scale (80 SMs). Memory sizes keep one run
/// between 0.1 and 0.7 s, so that host_slowdown() taken next to it tracks
/// the host's speed during it; see README.md for why each workload exists.
struct WorkloadSpec {
  const char* name;
  const char* kind;  ///< uvmsim workload generator
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  PrefetchPolicyKind prefetch;
  EvictionPolicyKind eviction;
  std::uint32_t lanes;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"regular-fit", "regular", 512, 1024, PrefetchPolicyKind::Tree,
     EvictionPolicyKind::Lru, 1},
    {"random-oversub", "random", 768, 384, PrefetchPolicyKind::Tree,
     EvictionPolicyKind::Lru, 1},
    {"sgemm-oversub", "sgemm", 48, 36, PrefetchPolicyKind::Tree,
     EvictionPolicyKind::Lru, 1},
    {"stream-markov-lanes", "stream", 384, 256, PrefetchPolicyKind::Markov,
     EvictionPolicyKind::Clock, 2},
};

uvmsim::SimConfig make_config(const WorkloadSpec& w, std::uint64_t seed,
                              std::uint32_t lanes, bool fault_log) {
  uvmsim::SimConfig cfg;
  cfg.gpu.num_sms = 80;
  cfg.set_gpu_memory(w.gpu_mib << 20);
  cfg.seed = seed;
  cfg.enable_fault_log = fault_log;
  cfg.driver.service_lanes = lanes;
  cfg.driver.prefetch_policy = w.prefetch;
  cfg.driver.eviction_policy = w.eviction;
  return cfg;
}

std::unique_ptr<uvmsim::EvictionPolicy> make_eviction(EvictionPolicyKind k) {
  if (k == EvictionPolicyKind::Clock) {
    return std::make_unique<uvmsim::ClockEviction>();
  }
  return std::make_unique<uvmsim::LruEviction>();
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// A simulator with the workload's kernels queued.
struct Built {
  std::unique_ptr<uvmsim::Workload> wl;
  std::unique_ptr<uvmsim::Simulator> sim;
  TimedEviction* decorator = nullptr;  ///< owned by the driver
  double setup_s = 0;  ///< make_workload + Simulator construction + setup
  double ctor_s = 0;
  double gen_s = 0;
};

Built build(const WorkloadSpec& w, const uvmsim::SimConfig& cfg,
            SpanLog* spans, bool decorate) {
  Built b;
  const std::uint64_t t0 = now_ns();
  {
    ScopedSpan s(spans, "workloads.make");
    b.wl = uvmsim::make_workload(w.kind, w.size_mib << 20);
  }
  const std::uint64_t t1 = now_ns();
  {
    ScopedSpan s(spans, "core.ctor");
    b.sim = std::make_unique<uvmsim::Simulator>(cfg);
  }
  const std::uint64_t t2 = now_ns();
  if (decorate) {
    // Before setup, so no hook can precede the installation.
    ScopedSpan s(spans, "evict.install");
    auto dec = std::make_unique<TimedEviction>(make_eviction(w.eviction),
                                               spans);
    b.decorator = dec.get();
    b.sim->driver().set_eviction_policy(std::move(dec));
  }
  const std::uint64_t t3 = now_ns();
  {
    ScopedSpan s(spans, "workloads.gen");
    b.wl->setup(*b.sim);
  }
  const std::uint64_t t4 = now_ns();
  b.ctor_s = secs(t2 - t1);
  b.gen_s = secs(t4 - t3);
  b.setup_s = secs((t1 - t0) + (t2 - t1) + (t4 - t3));
  return b;
}

struct Timed {
  uvmsim::RunResult r;
  double wall_s = 0;
  double cpu_s = 0;     ///< process CPU, all lane threads
  double thread_s = 0;  ///< ordering (calling) thread CPU
};

Timed timed_run(uvmsim::Simulator& sim, SpanLog* spans, const char* name) {
  Timed t;
  ScopedSpan s(spans, name);
  const std::uint64_t w0 = now_ns();
  const std::uint64_t c0 = process_cpu_ns();
  const std::uint64_t th0 = thread_cpu_ns();
  t.r = sim.run();
  t.thread_s = secs(thread_cpu_ns() - th0);
  t.cpu_s = secs(process_cpu_ns() - c0);
  t.wall_s = secs(now_ns() - w0);
  return t;
}

std::uint64_t page_touches(const uvmsim::RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& k : r.kernels) n += k.page_touches;
  return n;
}

/// Checks one run's output. `expected` is the pinned digest, or the first
/// digest seen in this process when the seed is not pinned.
bool check_output(const uvmsim::RunResult& r,
                  std::optional<std::uint64_t>& expected,
                  const char* what) {
  const uvmsim::DriverCounters& c = r.counters;
  if (c.faults_fetched !=
      c.faults_serviced + c.duplicate_faults + c.stale_faults) {
    std::cerr << what << ": fault conservation broken\n";
    return false;
  }
  const std::uint64_t d = run_digest(r);
  if (!expected) expected = d;
  if (d != *expected) {
    std::fprintf(stderr, "%s: digest %016" PRIx64 " != expected %016" PRIx64
                 "\n", what, d, *expected);
    return false;
  }
  return true;
}

/// Host times of one untraced run that passed its check, in reference
/// seconds: measured time / host_slowdown() taken between set-up and run().
struct Sample {
  double setup_s = 0;
  double run_s = 0;
  double run_cpu_s = 0;         ///< process CPU, all lane threads
  double thread_s = 0;          ///< ordering-thread CPU
  double servicing_s = 0;       ///< RunResult::servicing_host_ns
  double servicing_work_s = 0;  ///< RunResult::servicing_cpu_ns
  double touches_per_s = 0;
  double slowdown = 0;  ///< host_slowdown() of this run
  double wall_s = 0;    ///< run() wall time as measured, not scaled
};

/// Result of the untraced measurement loop.
struct Loop {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;  ///< EventQueue::executed_events() of one run
  double sim_kernel_ms = 0;
  double sim_h2d_mib = 0;
  double peak_rss_mib = 0;  ///< high-water mark after the first run

  /// Median over the passing runs of one Sample field, or of a function
  /// of a Sample.
  template <typename F>
  [[nodiscard]] double med(F f) const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) v.push_back(std::invoke(f, s));
    return median(std::move(v));
  }
};

Loop untraced_loop(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                   std::optional<std::uint64_t>& expected) {
  Loop L;
  const std::uint64_t start = now_ns();
  for (;;) {
    ++L.attempted;
    try {
      Built b = build(w, make_config(w, seed, w.lanes, false), nullptr, false);
      const double k = host_slowdown();
      Timed t = timed_run(*b.sim, nullptr, "");
      if (!check_output(t.r, expected, "untraced run")) {
        ++L.failed;
      } else {
        L.samples.push_back(
            {b.setup_s / k, t.wall_s / k, t.cpu_s / k, t.thread_s / k,
             secs(t.r.servicing_host_ns) / k, secs(t.r.servicing_cpu_ns) / k,
             ratio(static_cast<double>(page_touches(t.r)) * k, t.wall_s), k,
             t.wall_s});
        L.events = b.sim->event_queue().executed_events();
        L.sim_kernel_ms = static_cast<double>(t.r.total_kernel_time()) * 1e-6;
        L.sim_h2d_mib = static_cast<double>(t.r.bytes_h2d) / (1 << 20);
      }
    } catch (const uvmsim::ConfigError& e) {
      std::cerr << "config error: " << e.what() << "\n";
      ++L.failed;
    } catch (const uvmsim::SimulationError& e) {
      std::cerr << "simulation error: " << e.what() << "\n";
      ++L.failed;
    }
    // Later runs reuse a heap fragmented by earlier ones, which makes the
    // process high-water mark grow with the run count; one run's peak is
    // the figure that does not depend on the time budget.
    if (L.attempted == 1) {
      L.peak_rss_mib = static_cast<double>(peak_rss_kib()) / 1024.0;
    }
    // Stop before an iteration that would overrun the time budget.
    const double elapsed = secs(now_ns() - start);
    const double per_iter = elapsed / static_cast<double>(L.attempted);
    if (elapsed + per_iter > seconds) break;
  }
  return L;
}

/// Ordered metric list; printed as a table and as the JSON result.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    rows_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void print_table(std::ostream& os) const {
    for (const Row& r : rows_) {
      os << "  " << r.name << " = " << r.value << " " << r.unit;
      if (!r.note.empty()) os << "  (" << r.note << ")";
      os << "\n";
    }
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
      os << (i ? ", " : "") << '"' << rows_[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

std::string n_note(std::size_t n) { return "median of n=" + std::to_string(n); }

std::string tail_note(std::size_t n, double q) {
  if (n == 0) return "n=0, nothing measured";
  return "n=" + std::to_string(n) + (tail_supported(n, q)
                                         ? ""
                                         : ", fewer than 10 samples beyond");
}

// --- replays of the traced run's fault log ---------------------------------

struct FetchReplay {
  std::uint64_t faults = 0;
  std::uint64_t batches = 0;
  std::uint64_t ns = 0;
};

/// Pushes every logged fault (stale ones included) through a standalone
/// FaultBuffer and drains it with Preprocessor::fetch at the run's batch
/// size; only the fetch calls are timed. The log holds one record per
/// faulted page of a bin, so duplicate faults are not replayed.
FetchReplay replay_fetch(const std::vector<uvmsim::FaultLogEntry>& log,
                         const uvmsim::SimConfig& cfg) {
  std::vector<uvmsim::FaultEntry> faults;
  for (const auto& e : log) {
    if (e.kind != uvmsim::FaultLogKind::Fault) continue;
    uvmsim::FaultEntry f;
    f.fault_id = faults.size();
    f.page = e.page;
    f.block = e.block;
    f.range = e.range;
    faults.push_back(f);
  }
  uvmsim::FaultBuffer fb(cfg.fault_buffer);
  uvmsim::SimTime t = 0;
  FetchReplay out;
  std::size_t i = 0;
  while (i < faults.size()) {
    while (i < faults.size() && !fb.full()) fb.push(faults[i++], t);
    while (!fb.empty()) {
      const std::uint64_t t0 = now_ns();
      uvmsim::FaultBatch b = uvmsim::Preprocessor::fetch(
          fb, cfg.driver.batch_size, cfg.costs, t, cfg.driver.fetch_policy);
      out.ns += now_ns() - t0;
      out.faults += b.fetched;
      ++out.batches;
    }
  }
  if (out.faults != faults.size()) {
    throw uvmsim::SimulationError("fetch replay lost faults");
  }
  return out;
}

struct PrefetchReplay {
  std::vector<double> tree_ns;
  std::vector<double> fast_ns;
  std::uint64_t mismatches = 0;
};

/// Rebuilds each serviced bin from the fault log (consecutive Fault records
/// of one block at one time) and calls Prefetcher::compute and compute_fast
/// on it against replica blocks whose residency follows the log: faulted
/// and prefetched pages become resident, an eviction empties the block.
/// The replica is an input generator, not a second simulation.
PrefetchReplay replay_prefetch(const std::vector<uvmsim::FaultLogEntry>& log,
                               uvmsim::AddressSpace& as, bool upgrade,
                               std::uint32_t threshold) {
  PrefetchReplay out;
  std::size_t i = 0;
  while (i < log.size()) {
    const uvmsim::FaultLogEntry& e = log[i];
    uvmsim::VaBlock& blk = as.block(e.block);
    const auto idx = static_cast<std::uint32_t>(e.page - blk.first_page);
    if (e.kind == uvmsim::FaultLogKind::Prefetch) {
      blk.gpu_resident.set(idx);
    } else if (e.kind == uvmsim::FaultLogKind::Eviction) {
      blk.gpu_resident.clear();
    }
    if (e.kind != uvmsim::FaultLogKind::Fault) {
      ++i;
      continue;
    }
    uvmsim::PageMask faulted;
    for (; i < log.size() && log[i].kind == uvmsim::FaultLogKind::Fault &&
           log[i].block == e.block && log[i].time == e.time;
         ++i) {
      faulted.set(static_cast<std::uint32_t>(log[i].page - blk.first_page));
    }
    const uvmsim::PageMask need = faulted.and_not(blk.gpu_resident);
    if (need.none()) continue;
    const std::uint64_t t0 = now_ns();
    const uvmsim::Prefetcher::Result a =
        uvmsim::Prefetcher::compute(blk, need, upgrade, threshold);
    const std::uint64_t t1 = now_ns();
    const uvmsim::Prefetcher::Result b =
        uvmsim::Prefetcher::compute_fast(blk, need, upgrade, threshold);
    const std::uint64_t t2 = now_ns();
    out.tree_ns.push_back(static_cast<double>(t1 - t0));
    out.fast_ns.push_back(static_cast<double>(t2 - t1));
    if (!(a.prefetch == b.prefetch) || a.tree_updates != b.tree_updates) {
      ++out.mismatches;
    }
    blk.gpu_resident |= need;
  }
  return out;
}

// --- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0;  ///< required unless --print-digest
  int trace = 0;
  std::string digests;
  std::string spans_out;
  bool print_digest = false;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-digest") {
      a.print_digest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--digests") {
        a.digests = v;
      } else if (k == "--spans-out") {
        a.spans_out = v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || (!a.print_digest && a.seconds <= 0) ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

/// Pinned digest for (workload, seed) from a "workload seed hex" table.
std::optional<std::uint64_t> pinned_digest(const std::string& path,
                                           const std::string& workload,
                                           std::uint64_t seed) {
  if (path.empty()) return std::nullopt;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest table " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w;
    std::uint64_t s = 0;
    std::string hex;
    if (ls >> w >> s >> hex && w == workload && s == seed) {
      return std::stoull(hex, nullptr, 16);
    }
  }
  return std::nullopt;
}

/// Runs attempted and failed, plus checks that are not runs of their own.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;
  void fail_run() {
    ++failed;
    checks_ok = false;
  }
};

/// The traced run and what follows it (see the file comment); adds every
/// per-layer metric to `m`.
void measure_layers(const WorkloadSpec& w, std::uint64_t seed, const Loop& L,
                    std::optional<std::uint64_t>& expected, SpanLog& spans,
                    Metrics& m, Tally& tally) {
  const uvmsim::SimConfig cfg = make_config(w, seed, w.lanes, true);

  // Run 1: the traced run.
  spans.set_run(1);
  ++tally.attempted;
  Built b = build(w, cfg, &spans, true);
  std::uint64_t touches = 0;
  for (const uvmsim::KernelSpec* k : b.sim->queued_kernels()) {
    for (const auto& tb : k->blocks) {
      for (const auto& ws : tb.warps) touches += ws.total_page_touches();
    }
  }
  // Host times of the traced section are scaled to reference seconds by a
  // host_slowdown() taken next to the calls they time, as in the loop.
  const double k_traced = host_slowdown();
  Timed t = timed_run(*b.sim, &spans, "core.run");
  if (!check_output(t.r, expected, "traced run")) tally.fail_run();
  TimedEviction::Stats ev = b.decorator->stats();
  for (double& ns : ev.pick_ns) ns /= k_traced;
  const std::vector<uvmsim::FaultLogEntry> log = std::move(t.r.fault_log);
  std::vector<std::pair<std::uint64_t, std::string>> ranges;
  for (const auto& r : b.sim->address_space().ranges()) {
    ranges.emplace_back(r.bytes, r.name);
  }
  const double gen_s = b.gen_s / k_traced;
  const double ctor_s = b.ctor_s / k_traced;
  b = Built{};  // free the traced simulator before the next one

  // Run 2: the same kernels with every page resident (hit path only).
  spans.set_run(2);
  ++tally.attempted;
  Built rb = build(w, make_config(w, seed, w.lanes, false), &spans, false);
  {
    ScopedSpan s(&spans, "gpu.prefill");
    rb.sim->prefill_all_resident();
  }
  const double k_resident = host_slowdown();
  const Timed rt = timed_run(*rb.sim, &spans, "gpu.resident_run");
  if (rt.r.counters.faults_fetched != 0) {
    std::cerr << "resident rerun faulted\n";
    tally.fail_run();
  }
  rb = Built{};

  // Replays of the traced run's fault log. Under markov the driver never
  // calls the tree prefetcher, so there is nothing to replay.
  spans.set_run(3);
  const double k_replay = host_slowdown();
  FetchReplay fr;
  {
    ScopedSpan s(&spans, "uvm.fetch_replay");
    fr = replay_fetch(log, cfg);
  }
  PrefetchReplay pr;
  if (w.prefetch == PrefetchPolicyKind::Tree) {
    ScopedSpan s(&spans, "prefetch.replay");
    uvmsim::AddressSpace as;
    for (const auto& [bytes, name] : ranges) as.create_range(bytes, name);
    pr = replay_prefetch(log, as, cfg.driver.big_page_upgrade,
                         cfg.driver.prefetch_threshold);
  }
  for (double& ns : pr.tree_ns) ns /= k_replay;
  for (double& ns : pr.fast_ns) ns /= k_replay;
  if (pr.mismatches != 0) {
    std::cerr << "compute and compute_fast differ on " << pr.mismatches
              << " replayed bins\n";
    tally.checks_ok = false;
  }

  // Run 4: lane invariance, same workload at lanes 1.
  if (w.lanes > 1) {
    spans.set_run(4);
    ++tally.attempted;
    Built lb = build(w, make_config(w, seed, 1, false), &spans, false);
    const Timed lt = timed_run(*lb.sim, &spans, "lanes.lanes1_run");
    if (!check_output(lt.r, expected, "lanes-1 run")) tally.fail_run();
  }

  // Host times come from the untraced runs: the traced run pays for the
  // fault log and the decorator inside the metered passes. Counts come from
  // the traced run, whose digest equals the untraced one.
  const uvmsim::RunResult& r = t.r;
  const uvmsim::DriverCounters& c = r.counters;
  const std::string n_untraced = n_note(L.samples.size());
  const double thread_s = L.med(&Sample::thread_s);
  const double servicing_s = L.med(&Sample::servicing_s);
  const double outside_servicing =
      L.med([](const Sample& s) { return s.thread_s - s.servicing_s; });
  const auto prof_ms = [&](uvmsim::CostCategory cat) {
    return static_cast<double>(r.profiler.total(cat)) * 1e-6;
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  m.add("workloads.gen_s", gen_s, "s");
  m.add("workloads.touches", u(touches), "count");
  m.add("core.ctor_s", ctor_s, "s");
  m.add("core.run_thread_cpu_s", thread_s, "s",
        "ordering-thread CPU of run(), " + n_untraced);
  m.add("sim.events", u(L.events), "count");
  m.add("sim.ns_per_event", ratio(outside_servicing * 1e9, u(L.events)), "ns",
        "(ordering CPU - servicing) / events, " + n_untraced);
  const double resident_s = rt.thread_s / k_resident;
  m.add("gpu.resident_run_s", resident_s, "s",
        "ordering-thread CPU, all pages resident");
  m.add("gpu.fault_path_s", outside_servicing - resident_s, "s",
        "residual: ordering CPU - servicing - resident run");
  m.add("gpu.faults_raised", u(r.total_faults_raised()), "count");
  m.add("gpu.utlb_hit_ratio",
        ratio(u(r.utlb_hits), u(r.utlb_hits + r.utlb_misses)), "ratio");
  m.add("gpu.dup_fault_ratio",
        ratio(u(c.duplicate_faults + c.stale_faults), u(c.faults_fetched)),
        "ratio");
  m.add("uvm.servicing_s", servicing_s, "s", n_untraced);
  m.add("uvm.servicing_work_s", L.med(&Sample::servicing_work_s), "s",
        n_untraced);
  m.add("uvm.ns_per_fault", ratio(servicing_s * 1e9, u(c.faults_fetched)),
        "ns", n_untraced);
  m.add("uvm.passes", u(c.passes), "count");
  m.add("uvm.faults_serviced", u(c.faults_serviced), "count");
  m.add("uvm.blocks_serviced", u(c.blocks_serviced), "count");
  m.add("uvm.fetch_ns_per_fault", ratio(u(fr.ns) / k_replay, u(fr.faults)),
        "ns",
        std::to_string(fr.faults) + " faults in " +
            std::to_string(fr.batches) + " fetches");
  m.add("uvm.fetch_batches", u(fr.batches), "count");
  using uvmsim::CostCategory;
  m.add("uvm.sim_pre_process_ms", prof_ms(CostCategory::PreProcess), "ms");
  m.add("uvm.sim_pma_alloc_ms", prof_ms(CostCategory::ServicePmaAlloc), "ms");
  m.add("uvm.sim_migrate_ms", prof_ms(CostCategory::ServiceMigrate), "ms");
  m.add("uvm.sim_map_ms", prof_ms(CostCategory::ServiceMap), "ms");
  m.add("uvm.sim_service_other_ms", prof_ms(CostCategory::ServiceOther), "ms");
  m.add("uvm.sim_replay_ms", prof_ms(CostCategory::ReplayPolicy), "ms");
  m.add("uvm.sim_eviction_ms", prof_ms(CostCategory::Eviction), "ms");
  m.add("prefetch.pages", u(c.pages_prefetched), "count");
  m.add("prefetch.unused_evicted_ratio",
        ratio(u(c.prefetched_evicted_unused), u(c.pages_prefetched)), "ratio");
  const std::size_t nb = pr.tree_ns.size();
  m.add("prefetch.tree_ns_per_bin_p50", percentile(pr.tree_ns, 0.5), "ns",
        tail_note(nb, 0.5));
  m.add("prefetch.tree_ns_per_bin_p99", percentile(pr.tree_ns, 0.99), "ns",
        tail_note(nb, 0.99));
  m.add("prefetch.fast_ns_per_bin_p50", percentile(pr.fast_ns, 0.5), "ns",
        tail_note(nb, 0.5));
  m.add("prefetch.fast_ns_per_bin_p99", percentile(pr.fast_ns, 0.99), "ns",
        tail_note(nb, 0.99));
  m.add("prefetch.bins_replayed", u(nb), "count");
  m.add("prefetch.markov_observes", u(c.markov_observes), "count");
  const std::size_t np = ev.pick_ns.size();
  m.add("evict.ops", u(c.evictions), "count");
  m.add("evict.pages", u(c.pages_evicted), "count");
  m.add("evict.call_ns_p50", percentile(ev.pick_ns, 0.5), "ns",
        tail_note(np, 0.5));
  m.add("evict.call_ns_p99", percentile(ev.pick_ns, 0.99), "ns",
        tail_note(np, 0.99));
  m.add("evict.picks", u(np), "count");
  m.add("evict.scan_len_mean", ratio(u(ev.scan_total), u(np)), "slices");
  m.add("evict.hook_s", secs(ev.hook_ns) / k_traced, "s",
        std::to_string(ev.hook_calls) + " on_slice_* calls");
  m.add("mem.pma_rm_calls", u(r.pma_rm_calls), "count");
  m.add("mem.blocks_split", u(c.blocks_split), "count");
  m.add("mem.subchunk_allocs", u(c.subchunk_allocs), "count");
  m.add("lanes.offload_ratio", L.med([](const Sample& s) {
          return std::max(0.0, 1.0 - ratio(s.servicing_s, s.servicing_work_s));
        }),
        "ratio", n_untraced);
  m.add("lanes.sharded_batches", u(c.lane_sharded_batches), "count");
  m.add("trace.overhead_pct",
        100.0 * (ratio(t.wall_s / k_traced, L.med(&Sample::run_s)) - 1.0),
        "%", "traced run_s vs untraced " + n_untraced);
  m.add("host.slowdown", L.med(&Sample::slowdown), "ratio",
        "reference loop time / nominal, " + n_untraced);
}

/// Prints count, total and self time per span name, and writes every span
/// to `out` when it is non-empty.
void report_spans(const SpanLog& spans, const std::string& out) {
  const std::vector<Span>& sp = spans.spans();
  const std::vector<std::uint64_t> self = self_times(sp);
  std::map<std::string, std::tuple<std::uint64_t, std::uint64_t,
                                   std::uint64_t>> by_name;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    auto& [n, total, s] = by_name[sp[i].name];
    ++n;
    total += sp[i].end_ns - sp[i].start_ns;
    s += self[i];
  }
  std::cout << "spans (name: count, total s, self s)\n";
  for (const auto& [name, v] : by_name) {
    std::cout << "  " << name << ": " << std::get<0>(v) << ", "
              << secs(std::get<1>(v)) << ", " << secs(std::get<2>(v)) << "\n";
  }
  if (!out.empty()) {
    const std::filesystem::path p(out);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream os(p);
    spans.write_tsv(os);
  }
}

int run(const Args& a) {
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (a.workload == s.name) w = &s;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  }

  if (a.print_digest) {
    Built b = build(*w, make_config(*w, a.seed, w->lanes, false), nullptr,
                    false);
    const uvmsim::RunResult r = b.sim->run();
    std::printf("%s\t%" PRIu64 "\t%016" PRIx64 "\n", w->name, a.seed,
                run_digest(r));
    return 0;
  }

  const std::optional<std::uint64_t> pinned =
      pinned_digest(a.digests, w->name, a.seed);
  std::optional<std::uint64_t> expected = pinned;
  std::cout << "workload " << w->name << " seed " << a.seed << " ("
            << (pinned ? "pinned digest" : "no pinned digest: runs must agree")
            << ")\n";

  const Loop L = untraced_loop(*w, a.seed, a.seconds, expected);
  Tally tally{L.attempted, L.failed, L.failed == 0};
  Metrics m;
  if (a.trace == 0) {
    const std::string n = n_note(L.samples.size());
    m.add("setup_s", L.med(&Sample::setup_s), "s", n);
    m.add("run_s", L.med(&Sample::run_s), "s", n);
    m.add("run_cpu_s", L.med(&Sample::run_cpu_s), "s", n);
    m.add("touches_per_s", L.med(&Sample::touches_per_s), "1/s", n);
    m.add("peak_rss_mib", L.peak_rss_mib, "MiB",
          "process high-water mark after the first run");
    m.add("sim_kernel_ms", L.sim_kernel_ms, "ms", "simulated");
    m.add("sim_h2d_mib", L.sim_h2d_mib, "MiB", "simulated");
  } else {
    SpanLog spans;
    try {
      measure_layers(*w, a.seed, L, expected, spans, m, tally);
    } catch (const uvmsim::ConfigError& e) {
      std::cerr << "config error: " << e.what() << "\n";
      tally.fail_run();
    } catch (const uvmsim::SimulationError& e) {
      std::cerr << "simulation error: " << e.what() << "\n";
      tally.fail_run();
    }
    report_spans(spans, a.spans_out);
  }

  std::cout << "untraced run() wall s, as measured:";
  for (const Sample& s : L.samples) std::cout << " " << s.wall_s;
  std::cout << "\nhost slowdown per run:";
  for (const Sample& s : L.samples) std::cout << " " << s.slowdown;
  std::cout << "\nmedian run() wall s, as measured: " << L.med(&Sample::wall_s)
            << "\nmetrics (" << L.samples.size()
            << " untraced runs; host times in reference seconds):\n";
  m.print_table(std::cout);
  std::cout << "{\"correct\": " << (tally.checks_ok ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": " << m.json()
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace uvmbench

int main(int argc, char** argv) {
  const auto args = uvmbench::parse(argc, argv);
  if (!args) {
    std::cerr << "usage: uvmbench --workload NAME [--seed N] --seconds S "
                 "[--trace 0|1] [--digests FILE] [--spans-out FILE]\n"
                 "       uvmbench --workload NAME [--seed N] --print-digest\n";
    return 2;
  }
  try {
    return uvmbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "uvmbench: " << e.what() << "\n";
    return 1;
  }
}
