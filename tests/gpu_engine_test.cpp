// GPU engine tests with a minimal "instant driver" stub: on interrupt it
// drains the fault buffer, maps every faulted page, and issues a replay —
// isolating warp/fault semantics from driver policy.
#include "gpu/gpu_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/page_table.h"

namespace uvmsim {
namespace {

class GpuEngineTest : public ::testing::Test {
 protected:
  GpuEngineTest()
      : pt_(as_),
        fb_(FaultBuffer::Config{}),
        ac_(AccessCounters::Config{}),
        gpu_(cfg(), eq_, as_, pt_, fb_, ac_) {
    rid_ = as_.create_range(8ull << 20, "data");  // 4 blocks
  }

  static GpuEngine::Config cfg() {
    GpuEngine::Config c;
    c.num_sms = 4;
    c.max_blocks_per_sm = 2;
    c.utlb_fault_slots = 8;  // small slots so throttling is observable
    return c;
  }

  /// Installs the instant-service stub driver.
  void install_instant_driver() {
    gpu_.set_interrupt_handler([this] {
      if (service_scheduled_) return;
      service_scheduled_ = true;
      eq_.schedule_in(1000, [this] {
        service_scheduled_ = false;
        while (auto e = fb_.pop()) {
          PageMask m;
          m.set(page_in_block(e->page));
          pt_.map_pages(as_.block(e->block), m);
          ++serviced_;
        }
        gpu_.replay();
      });
    });
  }

  KernelSpec touch_kernel(std::uint64_t pages, std::uint32_t per_warp = 32) {
    KernelSpec k;
    k.name = "touch";
    VirtPage first = as_.range(rid_).first_page;
    for (std::uint64_t p = 0; p < pages; p += per_warp) {
      if (k.blocks.empty() || k.blocks.back().warps.size() == 8) {
        k.blocks.emplace_back();
      }
      AccessStream s;
      auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(per_warp, pages - p));
      s.add_run(first + p, count, true, 500);
      k.blocks.back().warps.push_back(std::move(s));
    }
    return k;
  }

  EventQueue eq_;
  AddressSpace as_;
  PageTable pt_;
  FaultBuffer fb_;
  AccessCounters ac_;
  GpuEngine gpu_;
  RangeId rid_ = 0;
  bool service_scheduled_ = false;
  std::uint64_t serviced_ = 0;
};

TEST_F(GpuEngineTest, ResidentKernelCompletesWithoutFaults) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  KernelSpec k = touch_kernel(256);
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  ASSERT_EQ(gpu_.kernel_stats().size(), 1u);
  EXPECT_EQ(gpu_.kernel_stats()[0].faults_raised, 0u);
  EXPECT_EQ(gpu_.kernel_stats()[0].page_touches, 256u);
  EXPECT_GT(gpu_.kernel_stats()[0].completed_at, 0u);
}

TEST_F(GpuEngineTest, FaultingKernelStallsUntilReplay) {
  install_instant_driver();
  KernelSpec k = touch_kernel(64);
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(serviced_, 64u);
  const auto& ks = gpu_.kernel_stats()[0];
  EXPECT_EQ(ks.faults_raised, 64u);
  EXPECT_GT(ks.stall_ns, 0u);
  EXPECT_GE(ks.replays_seen, 1u);
}

TEST_F(GpuEngineTest, EveryTouchedPageEndsResident) {
  install_instant_driver();
  KernelSpec k = touch_kernel(300);
  gpu_.launch(&k);
  eq_.run();
  for (VirtPage p = 0; p < 300; ++p) EXPECT_TRUE(pt_.translate(p));
}

TEST_F(GpuEngineTest, WritesMarkDirtyAndPopulated) {
  install_instant_driver();
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_EQ(as_.block(0).dirty.count_range(0, 32), 32u);
}

TEST_F(GpuEngineTest, PendingFaultCoalescing) {
  install_instant_driver();
  // Two warps touching the SAME page: only one buffer entry per replay
  // round (µTLB coalescing), the other warp parks silently.
  KernelSpec k;
  k.name = "dup";
  k.blocks.emplace_back();
  for (int w = 0; w < 2; ++w) {
    AccessStream s;
    s.add_run(as_.range(rid_).first_page, 1, false, 100);
    k.blocks.back().warps.push_back(std::move(s));
  }
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(gpu_.kernel_stats()[0].faults_raised, 1u);
  EXPECT_EQ(gpu_.faults_coalesced(), 1u);
}

TEST_F(GpuEngineTest, FaultSlotThrottling) {
  install_instant_driver();
  // One SM (4 SMs but one block), 8 fault slots, a warp touching 32
  // distinct pages: only 8 entries surface per replay round.
  KernelSpec k = touch_kernel(32);
  k.blocks.resize(1);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_GT(gpu_.faults_throttled(), 0u);
  // All pages still end up resident (liveness through replays).
  for (VirtPage p = 0; p < 32; ++p) EXPECT_TRUE(pt_.translate(p));
}

TEST_F(GpuEngineTest, KernelsRunSequentially) {
  install_instant_driver();
  KernelSpec k1 = touch_kernel(32);
  KernelSpec k2 = touch_kernel(32);
  std::vector<int> order;
  gpu_.launch(&k1, [&] { order.push_back(1); });
  gpu_.launch(&k2, [&] { order.push_back(2); });
  eq_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(gpu_.kernel_stats().size(), 2u);
  EXPECT_LE(gpu_.kernel_stats()[0].completed_at,
            gpu_.kernel_stats()[1].launched_at);
}

TEST_F(GpuEngineTest, SecondKernelHitsWarmPages) {
  install_instant_driver();
  KernelSpec k1 = touch_kernel(64);
  KernelSpec k2 = touch_kernel(64);
  gpu_.launch(&k1);
  gpu_.launch(&k2);
  eq_.run();
  EXPECT_GT(gpu_.kernel_stats()[0].faults_raised, 0u);
  EXPECT_EQ(gpu_.kernel_stats()[1].faults_raised, 0u);
  // Warm kernel is faster (both pay launch overhead, only k1 pays faults).
  EXPECT_LT(gpu_.kernel_stats()[1].duration(),
            gpu_.kernel_stats()[0].duration());
}

TEST_F(GpuEngineTest, UtlbHitsAccumulate) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  // Two records touching the same page: second access hits the µTLB.
  KernelSpec k;
  k.name = "hit";
  k.blocks.emplace_back();
  AccessStream s;
  s.add_run(0, 1, false, 100);
  s.add_run(0, 1, false, 100);
  k.blocks.back().warps.push_back(std::move(s));
  gpu_.launch(&k);
  eq_.run();
  EXPECT_GE(gpu_.utlb_hits(), 1u);
  EXPECT_GE(gpu_.utlb_misses(), 1u);
}

TEST_F(GpuEngineTest, InvalidateTlbsForcesWalks) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  auto misses_before = gpu_.utlb_misses();
  gpu_.invalidate_tlbs();
  KernelSpec k2 = touch_kernel(32);
  gpu_.launch(&k2);
  eq_.run();
  EXPECT_GT(gpu_.utlb_misses(), misses_before);
}

TEST_F(GpuEngineTest, EmptyKernelThrows) {
  KernelSpec k;
  EXPECT_THROW(gpu_.launch(&k), std::invalid_argument);
  EXPECT_THROW(gpu_.launch(nullptr), std::invalid_argument);
}

TEST_F(GpuEngineTest, ResidentAccessClearsPrefetchedUnused) {
  VaBlock& blk = as_.block(0);
  blk.gpu_resident.set_range(0, 32);
  blk.prefetched_unused.set_range(0, 32);
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_TRUE(blk.prefetched_unused.none());
}

// Drains the fault buffer and returns the faulted pages in pop order.
std::vector<VirtPage> drain_pages(FaultBuffer& fb) {
  std::vector<VirtPage> pages;
  while (auto e = fb.pop()) pages.push_back(e->page);
  return pages;
}

KernelSpec one_record_kernel(const std::vector<VirtPage>& pages) {
  KernelSpec k;
  k.name = "record";
  k.blocks.emplace_back();
  AccessStream s;
  s.add(pages, false, 100);
  k.blocks.back().warps.push_back(std::move(s));
  return k;
}

TEST_F(GpuEngineTest, SixtyFourKbFaultsCoalesceUntilReplay) {
  GpuEngine::Config c = cfg();
  c.fault_granularity_pages = 16;
  GpuEngine gpu(c, eq_, as_, pt_, fb_, ac_);
  // Pages 3 and 9 share one 64 KB region: one entry, one coalesced lane.
  const VirtPage first = as_.range(rid_).first_page;
  KernelSpec k = one_record_kernel({first + 3, first + 9});
  gpu.launch(&k);
  eq_.run();
  EXPECT_TRUE(gpu.has_stalled_warps());
  EXPECT_EQ(drain_pages(fb_), (std::vector<VirtPage>{first + 3}));
  EXPECT_EQ(gpu.faults_coalesced(), 1u);

  // The replay clears the pending region, so the unserviced retry raises a
  // fresh entry for it (and coalesces the second lane again).
  gpu.replay();
  eq_.run();
  EXPECT_EQ(drain_pages(fb_), (std::vector<VirtPage>{first + 3}));
  EXPECT_EQ(gpu.faults_coalesced(), 2u);
}

TEST_F(GpuEngineTest, PendingFaultsInALaterRangeCoalesce) {
  // A fault in the first range sets a pending bit; a range created after
  // the engine puts its pages far beyond it, so marking them grows the
  // bitmap, and the earlier bit must survive the growth.
  const VirtPage a = as_.range(rid_).first_page + 5;
  KernelSpec k1 = one_record_kernel({a});
  gpu_.launch(&k1);
  eq_.run();
  EXPECT_EQ(drain_pages(fb_), (std::vector<VirtPage>{a}));

  const RangeId far = as_.create_range(64ull << 20, "far");
  const VirtPage b =
      as_.range(far).first_page + as_.range(far).num_pages - 1;
  KernelSpec k2;
  k2.name = "far";
  k2.blocks.emplace_back();
  for (const VirtPage p : {b, b, a}) {
    AccessStream s;
    s.add_run(p, 1, false, 100);
    k2.blocks.back().warps.push_back(std::move(s));
  }
  gpu_.launch(&k2, {}, /*stream=*/1);
  eq_.run();
  EXPECT_EQ(drain_pages(fb_), (std::vector<VirtPage>{b}));
  EXPECT_EQ(gpu_.faults_coalesced(), 2u);  // the second b, and a

  // After a replay both regions raise fresh entries.
  gpu_.replay();
  eq_.run();
  std::vector<VirtPage> retried = drain_pages(fb_);
  std::sort(retried.begin(), retried.end());
  EXPECT_EQ(retried, (std::vector<VirtPage>{a, b}));
}

TEST_F(GpuEngineTest, RetriedLanesKeepTheirOrder) {
  // Lanes 1 and 3 hit resident pages; 0, 2 and 4 miss and park.
  const VirtPage first = as_.range(rid_).first_page;
  as_.block(0).gpu_resident.set(page_in_block(first + 1));
  as_.block(0).gpu_resident.set(page_in_block(first + 3));
  KernelSpec k = one_record_kernel(
      {first + 7, first + 1, first + 5, first + 3, first + 2});
  gpu_.launch(&k);
  eq_.run();
  EXPECT_EQ(drain_pages(fb_),
            (std::vector<VirtPage>{first + 7, first + 5, first + 2}));

  // Unserviced retry: the parked lanes re-fault in their original order.
  gpu_.replay();
  eq_.run();
  EXPECT_EQ(drain_pages(fb_),
            (std::vector<VirtPage>{first + 7, first + 5, first + 2}));

  // Serve the middle lane; the other two still keep their order.
  PageMask m;
  m.set(page_in_block(first + 5));
  pt_.map_pages(as_.block(0), m);
  gpu_.replay();
  eq_.run();
  EXPECT_EQ(drain_pages(fb_), (std::vector<VirtPage>{first + 7, first + 2}));
  EXPECT_EQ(gpu_.kernel_stats()[0].page_touches, 3u);
}

}  // namespace
}  // namespace uvmsim
