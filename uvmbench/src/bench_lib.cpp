#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "core/profiler.h"

namespace uvmbench {

void Fnv1a::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Fnv1a::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(b, sizeof b);
}

void Fnv1a::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Fnv1a::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::uint64_t run_digest(const uvmsim::RunResult& r) {
  Fnv1a h;
  const uvmsim::DriverCounters& c = r.counters;
  // Every field of DriverCounters in declaration order, except
  // lane_sharded_batches / lane_plans_applied / lane_plans_recomputed.
  for (std::uint64_t v :
       {c.passes, c.batches, c.wakeups, c.faults_fetched, c.faults_serviced,
        c.duplicate_faults, c.stale_faults, c.polls, c.queue_latency_clamped,
        c.blocks_serviced, c.pages_migrated_h2d, c.pages_zeroed,
        c.pages_prefetched, c.replays_issued, c.buffer_flushes,
        c.flushed_entries, c.evictions, c.pages_evicted,
        c.prefetched_evicted_unused, c.service_restarts,
        c.access_notifications, c.pages_remote_mapped, c.pages_duplicated,
        c.writebacks_avoided, c.cpu_faults_serviced, c.prefetch_async_pages,
        c.base_page_fill_pages, c.counter_promoted_pages, c.blocks_split,
        c.subchunk_allocs, c.partial_evictions, c.chunks_evicted,
        c.blocks_coalesced, c.markov_observes, c.markov_predictions,
        c.markov_blocks_prefetched, c.thrash_pinned_pages, c.thrash_throttles,
        c.gpu_resolved_faults, c.gpu_queue_stalls, c.gpu_queue_stall_ns,
        c.gpu_page_fetches, c.gpu_remote_fallback_pages, c.dma_retries,
        c.dma_runs_retried, c.dma_engine_resets, c.pma_alloc_retries,
        c.watchdog_rescues, c.replay_storms, c.storm_flushes,
        c.degraded_remote_pages, c.eviction_victim_unavailable}) {
    h.u64(v);
  }
  for (std::size_t i = 0; i < uvmsim::Profiler::kNumCategories; ++i) {
    const auto cat = static_cast<uvmsim::CostCategory>(i);
    h.u64(r.profiler.total(cat));
    h.u64(r.profiler.count(cat));
  }
  h.u64(r.end_time);
  for (const uvmsim::KernelStats& k : r.kernels) {
    h.str(k.name);
    for (std::uint64_t v : {std::uint64_t{k.stream}, k.launched_at,
                            k.completed_at, k.faults_raised, k.page_touches,
                            k.stall_ns, k.stall_episodes, k.replays_seen}) {
      h.u64(v);
    }
    h.f64(k.work_units);
  }
  for (std::uint64_t v :
       {r.bytes_h2d, r.bytes_d2h, r.bytes_zero_copy, r.transfers_h2d,
        r.transfers_d2h, r.dma_copy_ops, r.buffer_pushed, r.buffer_dropped,
        r.buffer_flushed, r.buffer_max_occupancy, r.pma_rm_calls,
        r.total_pages, r.total_bytes, r.gpu_capacity_bytes,
        r.resident_pages_at_end, r.wasted_prefetch_at_end, r.utlb_hits,
        r.utlb_misses}) {
    h.u64(v);
  }
  h.u64(r.stall_latency.count());
  h.str(r.stall_latency.to_string());
  h.u64(r.fault_queue_latency.count());
  h.str(r.fault_queue_latency.to_string());
  return h.value();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {
/// 1-based nearest rank of the q-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

namespace {
// The seed is read and the result written through volatiles so that the
// compiler can neither fold the loop nor drop it.
volatile std::uint64_t reference_seed = 0x9E3779B97F4A7C15ULL;
volatile std::uint64_t reference_sink = 0;

std::uint64_t reference_loop_ns() {
  constexpr std::size_t kHeap = 20000;
  constexpr int kOps = 200000;
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeap + 1);
  std::uint64_t x = reference_seed;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kHeap; ++i) {
    heap.push_back(next());
    std::push_heap(heap.begin(), heap.end());
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kOps; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    sum += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
  }
  const std::uint64_t ns = now_ns() - t0;
  reference_sink = sum;
  return ns;
}

}  // namespace

double host_slowdown() {
  return static_cast<double>(reference_loop_ns()) / kReferenceLoopNominalNs;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return out;
}

std::size_t SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns() - epoch_;
  s.end_ns = s.start_ns;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.run_id = run_;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t idx) {
  // Every call site closes spans innermost-first.
  spans_[idx].end_ns = now_ns() - epoch_;
  open_.pop_back();
}

void SpanLog::write_tsv(std::ostream& os) const {
  const std::vector<std::uint64_t> self = self_times(spans_);
  os << "name\tstart_ns\tend_ns\tparent\trun_id\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
       << '\t' << s.run_id << '\t' << self[i] << '\n';
  }
}

TimedEviction::TimedEviction(std::unique_ptr<uvmsim::EvictionPolicy> inner,
                             SpanLog* spans)
    : inner_(std::move(inner)), spans_(spans) {}

template <typename Hook>
void TimedEviction::timed_hook(Hook&& hook) {
  const std::uint64_t t0 = now_ns();
  hook();
  stats_.hook_ns += now_ns() - t0;
  ++stats_.hook_calls;
}

template <typename Pick>
std::optional<uvmsim::SliceKey> TimedEviction::timed_pick(Pick&& pick) {
  const std::size_t span =
      spans_ != nullptr ? spans_->begin("evict.pick") : 0;
  const std::uint64_t t0 = now_ns();
  std::optional<uvmsim::SliceKey> v = pick();
  const std::uint64_t t1 = now_ns();
  if (spans_ != nullptr) spans_->end(span);
  stats_.pick_ns.push_back(static_cast<double>(t1 - t0));
  last_scan_len_ = inner_->last_scan_length();
  stats_.scan_total += last_scan_len_;
  return v;
}

void TimedEviction::on_slice_allocated(uvmsim::SliceKey k) {
  timed_hook([&] { inner_->on_slice_allocated(k); });
}
void TimedEviction::on_slice_touched(uvmsim::SliceKey k) {
  timed_hook([&] { inner_->on_slice_touched(k); });
}
void TimedEviction::on_slice_evicted(uvmsim::SliceKey k) {
  timed_hook([&] { inner_->on_slice_evicted(k); });
}

std::optional<uvmsim::SliceKey> TimedEviction::pick_victim(
    const std::function<bool(uvmsim::SliceKey)>& eligible) {
  return timed_pick([&] { return inner_->pick_victim(eligible); });
}

std::optional<uvmsim::SliceKey> TimedEviction::pick_victim_classified(
    const std::function<uvmsim::VictimEligibility(uvmsim::SliceKey)>&
        classify) {
  return timed_pick([&] { return inner_->pick_victim_classified(classify); });
}

}  // namespace uvmbench
