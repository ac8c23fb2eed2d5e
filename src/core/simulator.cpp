#include "core/simulator.h"

#include "core/errors.h"

namespace uvmsim {

namespace {

/// SplitMix64-style finalizer: derives the hazard seed from the master seed
/// WITHOUT drawing from the simulator's Rng — an extra draw would shift the
/// GPU/driver/workload streams and break the invariant that hazard-free
/// runs are bit-identical to runs predating the hazard subsystem.
std::uint64_t derive_hazard_seed(std::uint64_t master_seed) {
  std::uint64_t z = master_seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      pt_(as_),
      fb_(cfg.fault_buffer),
      ac_(cfg.access_counters),
      pma_(cfg.pma),
      link_(cfg.interconnect),
      dma_(cfg.dma, link_) {
  if (cfg_.hazards.any()) {
    HazardConfig hc = cfg_.hazards;
    if (hc.seed == 0) hc.seed = derive_hazard_seed(cfg_.seed);
    hazards_ = std::make_unique<HazardInjector>(hc);
    fb_.set_hazard_injector(hazards_.get());
    pma_.set_hazard_injector(hazards_.get());
    ac_.set_hazard_injector(hazards_.get());
    dma_.set_hazard_injector(hazards_.get());
  }

  if (cfg_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(cfg_.trace);
  }

  GpuEngine::Config gcfg = cfg_.gpu;
  gcfg.seed = rng_.next_u64();
  gpu_ = std::make_unique<GpuEngine>(gcfg, eq_, as_, pt_, fb_, ac_, &link_);

  // Intra-run lane pool (PR 8): owned here, not shared with sweep pools —
  // fork-join work nested on a pool whose workers each run a whole
  // simulation would deadlock. service_lanes workers including the calling
  // thread (for_lanes runs lane 0 inline), so lanes-1 pool threads.
  if (cfg_.driver.service_lanes > 1) {
    lane_pool_ = std::make_unique<ThreadPool>(cfg_.driver.service_lanes - 1);
  }

  Driver::Deps deps{&eq_,  &as_,  &pt_, &fb_,           gpu_.get(),
                    &pma_, &dma_, &ac_, hazards_.get(), tracer_.get(),
                    lane_pool_.get()};
  DriverConfig dcfg = cfg_.driver;
  dcfg.seed = rng_.next_u64();
  driver_ = std::make_unique<Driver>(dcfg, cfg_.costs, deps,
                                     cfg_.enable_fault_log);
  gpu_->set_interrupt_handler([this] { driver_->on_gpu_interrupt(); });
  if (hazards_) {
    gpu_->set_fault_drop_handler([this] { driver_->on_fault_dropped(); });
  }
}

RangeId Simulator::malloc_managed(std::uint64_t bytes, std::string name,
                                  bool host_populated) {
  return as_.create_range(bytes, std::move(name), host_populated);
}

void Simulator::launch(KernelSpec spec, std::uint32_t stream) {
  kernels_.push_back(std::make_unique<KernelSpec>(std::move(spec)));
  gpu_->launch(kernels_.back().get(), [this] { ++kernels_completed_; },
               stream);
}

void Simulator::prefill_all_resident() {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    VaBlock& blk = as_.block(b);
    if (!blk.valid()) continue;
    blk.gpu_resident.set_range(0, blk.num_pages);
    blk.cpu_resident.clear();
    blk.backing.set_root();  // nominal backing
  }
}

RunResult Simulator::run() {
  eq_.run();

  if (kernels_completed_ != kernels_.size()) {
    throw SimulationError(
        "Simulator deadlock: event queue drained with " +
        std::to_string(kernels_.size() - kernels_completed_) +
        " kernel(s) unfinished (stalled warps without a pending replay?)");
  }

  RunResult r;
  r.end_time = eq_.now();
  r.kernels = gpu_->kernel_stats();
  r.counters = driver_->counters();
  r.profiler = driver_->profiler();
  if (cfg_.enable_fault_log) r.fault_log = driver_->fault_log().entries();

  r.bytes_h2d = link_.bytes_moved(Direction::HostToDevice);
  r.bytes_d2h = link_.bytes_moved(Direction::DeviceToHost);
  r.bytes_zero_copy = link_.zero_copy_bytes(Direction::HostToDevice) +
                      link_.zero_copy_bytes(Direction::DeviceToHost);
  r.transfers_h2d = link_.transfers(Direction::HostToDevice);
  r.transfers_d2h = link_.transfers(Direction::DeviceToHost);
  r.dma_copy_ops = dma_.copy_ops();

  r.buffer_pushed = fb_.total_pushed();
  r.buffer_dropped = fb_.total_dropped();
  r.buffer_flushed = fb_.total_flushed();
  r.buffer_max_occupancy = fb_.max_occupancy();

  r.pma_rm_calls = pma_.rm_calls();
  r.total_pages = as_.total_pages();
  r.total_bytes = as_.total_bytes();
  r.gpu_capacity_bytes = pma_.capacity_bytes();
  r.resident_pages_at_end = as_.gpu_resident_pages();
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    r.wasted_prefetch_at_end += as_.block(b).prefetched_unused.count();
  }

  if (hazards_) {
    r.hazards_enabled = true;
    r.hazards = hazards_->stats();
    r.dma_failed_runs = dma_.failed_runs();
    r.pma_failed_rm_calls = pma_.failed_rm_calls();
  }

  r.utlb_hits = gpu_->utlb_hits();
  r.utlb_misses = gpu_->utlb_misses();
  r.servicing_host_ns = driver_->servicing_host_ns();
  r.servicing_cpu_ns = driver_->servicing_cpu_ns();
  r.stall_latency = gpu_->stall_latency();
  r.fault_queue_latency = driver_->queue_latency();
  return r;
}

}  // namespace uvmsim
