// Unit tests for the benchmark's own logic (bench_lib).
#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmbench {
namespace {

uvmsim::RunResult small_run(std::uint32_t lanes, bool fault_log) {
  uvmsim::SimConfig cfg;
  cfg.set_gpu_memory(std::uint64_t{16} << 20);
  cfg.seed = 7;
  cfg.enable_fault_log = fault_log;
  cfg.driver.service_lanes = lanes;
  auto wl = uvmsim::make_workload("random", std::uint64_t{24} << 20);
  uvmsim::Simulator sim(cfg);
  wl->setup(sim);
  return sim.run();
}

TEST(Digest, StableAcrossRunsLanesAndFaultLog) {
  const uvmsim::RunResult a = small_run(1, false);
  ASSERT_GT(a.counters.evictions, 0u);  // the oversubscribed path ran
  EXPECT_EQ(run_digest(a), run_digest(small_run(1, false)));
  EXPECT_EQ(run_digest(a), run_digest(small_run(1, true)));
  const uvmsim::RunResult laned = small_run(2, false);
  EXPECT_GT(laned.counters.lane_sharded_batches +
                laned.counters.lane_plans_applied,
            0u);
  EXPECT_EQ(run_digest(a), run_digest(laned));
}

TEST(Digest, CoversEveryDriverCounterExceptLaneFields) {
  using uvmsim::DriverCounters;
  static_assert(sizeof(DriverCounters) % sizeof(std::uint64_t) == 0);
  const std::set<std::size_t> lane_words = {
      offsetof(DriverCounters, lane_sharded_batches) / 8,
      offsetof(DriverCounters, lane_plans_applied) / 8,
      offsetof(DriverCounters, lane_plans_recomputed) / 8};
  const uvmsim::RunResult base;
  const std::uint64_t d0 = run_digest(base);
  for (std::size_t w = 0; w < sizeof(DriverCounters) / 8; ++w) {
    uvmsim::RunResult r;
    const std::uint64_t one = 1;
    std::memcpy(reinterpret_cast<unsigned char*>(&r.counters) + w * 8, &one,
                sizeof one);
    if (lane_words.count(w) != 0) {
      EXPECT_EQ(run_digest(r), d0) << "lane word " << w;
    } else {
      EXPECT_NE(run_digest(r), d0) << "counter word " << w << " not digested";
    }
  }
}

TEST(Digest, SeesProfilerKernelsBytesAndHistograms) {
  const uvmsim::RunResult base;
  const std::uint64_t d0 = run_digest(base);
  uvmsim::RunResult r = base;
  r.profiler.add(uvmsim::CostCategory::Eviction, 5);
  EXPECT_NE(run_digest(r), d0);
  r = base;
  r.kernels.emplace_back();
  EXPECT_NE(run_digest(r), d0);
  r = base;
  r.bytes_h2d = 4096;
  EXPECT_NE(run_digest(r), d0);
  r = base;
  r.stall_latency.add(100);
  EXPECT_NE(run_digest(r), d0);
  r = base;
  r.servicing_host_ns = 123;  // host timing is not output
  r.servicing_cpu_ns = 456;
  EXPECT_EQ(run_digest(r), d0);
}

TEST(Fnv1a, KnownVector) {
  Fnv1a h;
  h.bytes("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cULL);
}

TEST(Ratio, ZeroBaseIsZero) {
  EXPECT_EQ(ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(1.0, 4.0), 0.25);
}

TEST(PeakRss, ReportsThisProcessHighWaterMark) {
  const std::uint64_t before = peak_rss_kib();
  EXPECT_GT(before, 0u);
  std::vector<char> block(std::size_t{64} << 20, 1);  // touch 64 MiB
  EXPECT_GE(peak_rss_kib(), before + (std::size_t{60} << 10));
  EXPECT_EQ(block[12345], 1);
}

TEST(HostSlowdown, IsPositiveAndBounded) {
  const double k = host_slowdown();
  EXPECT_GT(k, 0.0);
  // A loop 100x slower than nominal would mean the work is not fixed.
  EXPECT_LT(k, 100.0);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(20, 0.5));
  EXPECT_FALSE(tail_supported(19, 0.5));
}

Span span(std::uint64_t s, std::uint64_t e, std::int64_t parent) {
  Span x;
  x.start_ns = s;
  x.end_ns = e;
  x.parent = parent;
  return x;
}

TEST(SelfTime, SubtractsChildUnionClippedToParent) {
  const std::vector<Span> spans = {
      span(0, 100, -1),  // 0: root
      span(10, 30, 0),   // 1
      span(20, 40, 0),   // 2 overlaps 1: union 10..40 = 30
      span(90, 120, 0),  // 3 runs past the parent: clipped to 90..100
      span(12, 18, 1),   // 4 grandchild: counts against 1, not 0
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 30u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
}

TEST(SpanLog, NestsAndTagsRuns) {
  SpanLog log;
  log.set_run(3);
  const std::size_t a = log.begin("a");
  {
    ScopedSpan b(&log, "b");
  }
  log.end(a);
  log.set_run(4);
  { ScopedSpan c(&log, "c"); }
  ScopedSpan off(nullptr, "ignored");
  const auto& s = log.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, -1);
  EXPECT_EQ(s[0].run_id, 3u);
  EXPECT_EQ(s[2].run_id, 4u);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_LE(s[1].end_ns, s[0].end_ns);
}

/// Records every hook it receives; picks return the first key it knows.
class Recording final : public uvmsim::EvictionPolicy {
 public:
  explicit Recording(std::vector<std::string>* log) : log_(log) {}
  void on_slice_allocated(uvmsim::SliceKey k) override {
    rec("alloc", k);
    keys_.push_back(k);
  }
  void on_slice_touched(uvmsim::SliceKey k) override { rec("touch", k); }
  void on_slice_evicted(uvmsim::SliceKey k) override { rec("evict", k); }
  std::optional<uvmsim::SliceKey> pick_victim(
      const std::function<bool(uvmsim::SliceKey)>& eligible) override {
    log_->push_back("pick");
    last_scan_len_ = 3;
    for (const auto& k : keys_) {
      if (eligible(k)) return k;
    }
    return std::nullopt;
  }
  std::optional<uvmsim::SliceKey> pick_victim_classified(
      const std::function<uvmsim::VictimEligibility(uvmsim::SliceKey)>&
          classify) override {
    log_->push_back("pick_classified");
    last_scan_len_ = 5;
    for (const auto& k : keys_) {
      if (classify(k) != uvmsim::VictimEligibility::Ineligible) return k;
    }
    return std::nullopt;
  }
  void begin_victim_round() override { log_->push_back("begin_round"); }
  void end_victim_round() override { log_->push_back("end_round"); }
  void on_access_notification(
      const uvmsim::AccessCounterNotification&) override {
    log_->push_back("notify");
  }
  [[nodiscard]] const char* name() const override { return "recording"; }
  [[nodiscard]] std::size_t tracked() const override { return keys_.size(); }

 private:
  void rec(const char* what, uvmsim::SliceKey k) {
    log_->push_back(std::string(what) + ":" + std::to_string(k.block) + "/" +
                    std::to_string(k.slice));
  }
  std::vector<std::string>* log_;
  std::vector<uvmsim::SliceKey> keys_;
};

TEST(TimedEviction, ForwardsEveryHookInOrder) {
  std::vector<std::string> log;
  SpanLog spans;
  TimedEviction dec(std::make_unique<Recording>(&log), &spans);
  dec.on_slice_allocated({1, 0});
  dec.on_slice_allocated({2, 0});
  dec.on_slice_touched({1, 0});
  dec.begin_victim_round();
  const auto v1 = dec.pick_victim_classified(
      [](uvmsim::SliceKey k) {
        return k.block == 1 ? uvmsim::VictimEligibility::Ineligible
                            : uvmsim::VictimEligibility::Eligible;
      });
  EXPECT_EQ(dec.last_scan_length(), 5u);
  dec.end_victim_round();
  dec.on_slice_evicted({2, 0});
  const auto v2 = dec.pick_victim([](uvmsim::SliceKey) { return true; });
  EXPECT_EQ(dec.last_scan_length(), 3u);
  dec.on_access_notification(uvmsim::AccessCounterNotification{});

  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->block, 2u);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->block, 1u);
  EXPECT_STREQ(dec.name(), "recording");
  EXPECT_EQ(dec.tracked(), 2u);
  const std::vector<std::string> want = {
      "alloc:1/0", "alloc:2/0",       "touch:1/0", "begin_round",
      "pick_classified", "end_round", "evict:2/0", "pick",
      "notify"};
  EXPECT_EQ(log, want);

  const TimedEviction::Stats& st = dec.stats();
  EXPECT_EQ(st.pick_ns.size(), 2u);
  EXPECT_EQ(st.scan_total, 8u);
  EXPECT_EQ(st.hook_calls, 4u);
  ASSERT_EQ(spans.spans().size(), 2u);
  EXPECT_STREQ(spans.spans()[0].name, "evict.pick");
}

}  // namespace
}  // namespace uvmbench
