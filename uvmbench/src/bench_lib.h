// Measurement helpers of the uvmsim benchmark: the output digest, robust
// statistics, the span recorder behind the traced run, and the timing
// decorator installed through Driver::set_eviction_policy.
//
// Everything here is host-side instrumentation owned by the benchmark; it
// calls uvmsim only through its public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/run_result.h"
#include "uvm/eviction_policy.h"

namespace uvmbench {

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Digest of a run's simulated output: every DriverCounters field except
/// the three lane_* fields (wall-clock instrumentation that legitimately
/// differs between lane counts), every Profiler category (time and count),
/// per-kernel times and counts, bytes moved, fault-buffer and µTLB counts,
/// and both latency histograms. Host timings are excluded, so the digest is
/// a pure function of (config, seed) and must not change with lanes,
/// tracing or the eviction timing decorator.
[[nodiscard]] std::uint64_t run_digest(const uvmsim::RunResult& r);

/// num / den, or 0 when den is 0.
[[nodiscard]] double ratio(double num, double den);

/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Samples ranked strictly above the q-th percentile's nearest rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// True when at least ten samples lie beyond the q-th percentile, the
/// condition for reporting that percentile as a tail figure.
[[nodiscard]] bool tail_supported(std::size_t n, double q);

/// Monotonic host clock in nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
/// CPU time of the calling thread, ns.
[[nodiscard]] std::uint64_t thread_cpu_ns();
/// CPU time of the whole process (all threads), ns.
[[nodiscard]] std::uint64_t process_cpu_ns();

/// This process's resident-set high-water mark in KiB (VmHWM), 0 if the
/// kernel does not report it. Unlike getrusage's ru_maxrss it starts over
/// at exec, so it does not include the launching process.
[[nodiscard]] std::uint64_t peak_rss_kib();

/// Wall time of the reference loop on the host that reference seconds are
/// defined on: a 4-vCPU KVM guest of a Xeon (Emerald Rapids) host.
inline constexpr double kReferenceLoopNominalNs = 17.5e6;

/// How much slower than nominal the host runs right now: the wall time of
/// a fixed reference loop (pops and pushes of pseudo-random keys on a
/// 20k-entry binary heap, the access pattern of an event queue, which
/// nothing in uvmsim can change) over kReferenceLoopNominalNs. Dividing a
/// host time measured next to it by this factor gives reference seconds.
[[nodiscard]] double host_slowdown();

/// One timed interval around a call the benchmark makes into uvmsim.
struct Span {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint32_t run_id = 0;
};

/// Per span: its duration minus the part of its interval that its direct
/// children cover (children are clipped to the parent; overlaps count once).
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

/// In-memory span recorder. Spans nest: a span begun while another is open
/// becomes its child. Single-threaded, like every call site that uses it.
class SpanLog {
 public:
  std::size_t begin(const char* name);
  void end(std::size_t idx);
  void set_run(std::uint32_t id) { run_ = id; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Tab-separated: name, start_ns, end_ns, parent, run_id, self_ns.
  void write_tsv(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t run_ = 0;
  std::uint64_t epoch_ = now_ns();
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), idx_(log != nullptr ? log->begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t idx_;
};

/// Eviction-policy decorator: forwards every hook to a real policy and
/// times the slice-lifecycle hooks and the victim picks. Victim picks are
/// also recorded as "evict.pick" spans when a SpanLog is attached. The
/// decorator changes no decision, so a run with it installed must produce
/// the same digest as one without.
class TimedEviction final : public uvmsim::EvictionPolicy {
 public:
  struct Stats {
    std::vector<double> pick_ns;  ///< one sample per pick_victim* call
    std::uint64_t scan_total = 0;  ///< sum of last_scan_length() after picks
    std::uint64_t hook_calls = 0;  ///< on_slice_* calls
    std::uint64_t hook_ns = 0;     ///< time inside on_slice_* calls
  };

  explicit TimedEviction(std::unique_ptr<uvmsim::EvictionPolicy> inner,
                         SpanLog* spans = nullptr);

  void on_slice_allocated(uvmsim::SliceKey k) override;
  void on_slice_touched(uvmsim::SliceKey k) override;
  void on_slice_evicted(uvmsim::SliceKey k) override;
  std::optional<uvmsim::SliceKey> pick_victim(
      const std::function<bool(uvmsim::SliceKey)>& eligible) override;
  std::optional<uvmsim::SliceKey> pick_victim_classified(
      const std::function<uvmsim::VictimEligibility(uvmsim::SliceKey)>&
          classify) override;
  void begin_victim_round() override { inner_->begin_victim_round(); }
  void end_victim_round() override { inner_->end_victim_round(); }
  void on_access_notification(
      const uvmsim::AccessCounterNotification& n) override {
    inner_->on_access_notification(n);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t tracked() const override {
    return inner_->tracked();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  template <typename Pick>
  std::optional<uvmsim::SliceKey> timed_pick(Pick&& pick);
  template <typename Hook>
  void timed_hook(Hook&& hook);

  std::unique_ptr<uvmsim::EvictionPolicy> inner_;
  SpanLog* spans_;
  Stats stats_;
};

}  // namespace uvmbench
