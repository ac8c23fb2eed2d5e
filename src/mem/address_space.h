// The UVM virtual address space hierarchy (paper §III-A):
//
//   AddressSpace  — one per application
//     └ VaRange   — one per managed allocation (cudaMallocManaged)
//        └ VaBlock — 2 MB, page-aligned; unit of GPU allocation/eviction
//           └ 4 KB pages
//
// Ranges are laid out contiguously, each aligned up to a VABlock boundary, so
// a global page number maps to its block and range with pure arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/chunk_tree.h"
#include "mem/constants.h"
#include "mem/page_mask.h"

namespace uvmsim {

/// Residency/bookkeeping state of one 2 MB VABlock.
///
/// The masks use in-block page indices [0, num_pages). For a partial block
/// (a range whose size is not a multiple of 2 MB) indices >= num_pages are
/// never set.
struct VaBlock {
  VaBlockId id = 0;
  RangeId range = kInvalidRange;
  VirtPage first_page = 0;       ///< global page number of leaf 0
  std::uint32_t num_pages = 0;   ///< valid pages in this block (<= 512)

  PageMask gpu_resident;   ///< pages currently mapped on the GPU
  PageMask cpu_resident;   ///< pages currently resident on the host
  PageMask dirty;          ///< GPU-written pages needing writeback on evict
  PageMask ever_populated; ///< pages that hold data (host-initialized or GPU-written)
  /// Pages whose GPU copy is a read-duplicate: the host copy remains valid
  /// (read-mostly advise), so eviction needs no writeback.
  PageMask read_duplicated;
  /// Pages mapped into the GPU page table for *remote* (zero-copy) access;
  /// they occupy no GPU memory and never migrate.
  PageMask remote_mapped;
  /// Pages migrated only because the prefetcher asked for them and not yet
  /// touched by any warp: the "wasted prefetch" measure of §V-A2.
  PageMask prefetched_unused;

  /// GPU physical backing shape: one 2 MB root chunk when memory is
  /// plentiful, or a mix of 64 KB / 4 KB sub-chunks split under memory
  /// pressure (paper §V-A3 / §VI-B). The PMA owns the byte accounting;
  /// this tree records which chunks back the block.
  ChunkTree backing;
  bool service_locked = false;   ///< block lock held by an in-flight service

  /// Monotone counter: how many times this block was evicted.
  std::uint32_t eviction_count = 0;

  [[nodiscard]] bool valid() const { return range != kInvalidRange; }
  /// True when every valid page is GPU-resident.
  [[nodiscard]] bool fully_resident() const {
    return gpu_resident.count() == num_pages;
  }
};

/// Holds a block's service lock for one scope: sets VaBlock::service_locked
/// and restores the previous value on exit, so populating a block that an
/// enclosing service already locked leaves that outer lock in place. The
/// only writer of service_locked.
class ServiceLock {
 public:
  explicit ServiceLock(VaBlock& blk) : blk_(blk), was_(blk.service_locked) {
    blk_.service_locked = true;
  }
  ~ServiceLock() { blk_.service_locked = was_; }
  ServiceLock(const ServiceLock&) = delete;
  ServiceLock& operator=(const ServiceLock&) = delete;

 private:
  VaBlock& blk_;
  bool was_;
};

/// Memory-usage hints (the cudaMemAdvise flags relevant to the paper's
/// §III-A access behaviours).
struct MemAdvise {
  /// Read-mostly data: GPU read faults *duplicate* pages instead of
  /// migrating them, so the host copy stays valid (paper: "Read-only
  /// duplication"). A GPU write collapses the duplication.
  bool read_mostly = false;
  /// Pin to host + map remotely: GPU faults map the page for remote access
  /// over the interconnect without migrating it (paper: "Remote Mapping").
  bool remote_map = false;
  /// Preferred location GPU: the eviction policy avoids this range's slices
  /// while any non-preferred victim exists.
  bool preferred_location_gpu = false;
};

/// One managed allocation.
struct VaRange {
  RangeId id = 0;
  std::string name;            ///< label used in access-pattern plots
  VirtPage first_page = 0;     ///< global page number of byte 0
  std::uint64_t bytes = 0;
  std::uint64_t num_pages = 0;
  VaBlockId first_block = 0;
  std::uint64_t num_blocks = 0;
  MemAdvise advise;
};

/// The per-application address space. Owns all ranges and blocks.
class AddressSpace {
 public:
  /// Creates a managed range of `bytes` (rounded up to whole pages). If
  /// `host_populated` is true, all pages start CPU-resident and populated —
  /// the common case where the host initializes data before kernel launch —
  /// so every GPU first-touch triggers a host-to-device migration.
  RangeId create_range(std::uint64_t bytes, std::string name,
                       bool host_populated = true);

  [[nodiscard]] const VaRange& range(RangeId id) const { return ranges_.at(id); }
  [[nodiscard]] std::size_t num_ranges() const { return ranges_.size(); }
  [[nodiscard]] const std::vector<VaRange>& ranges() const { return ranges_; }

  [[nodiscard]] VaBlock& block(VaBlockId id) { return blocks_.at(id); }
  [[nodiscard]] const VaBlock& block(VaBlockId id) const { return blocks_.at(id); }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

  /// Block containing a global page (the block must belong to a range).
  [[nodiscard]] VaBlock& block_of(VirtPage p) { return blocks_.at(block_of_page(p)); }
  [[nodiscard]] const VaBlock& block_of(VirtPage p) const {
    return blocks_.at(block_of_page(p));
  }

  /// Range owning a global page, or kInvalidRange.
  [[nodiscard]] RangeId range_of(VirtPage p) const;

  /// Applies usage hints to a range (cudaMemAdvise).
  void set_advise(RangeId id, const MemAdvise& advise) {
    ranges_.at(id).advise = advise;
  }

  /// Total pages across all ranges.
  [[nodiscard]] std::uint64_t total_pages() const { return total_pages_; }
  /// Total bytes across all ranges.
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Sum of GPU-resident pages over all blocks (O(blocks); for
  /// assertions/metrics, not hot paths).
  [[nodiscard]] std::uint64_t gpu_resident_pages() const;

 private:
  std::vector<VaRange> ranges_;
  std::vector<VaBlock> blocks_;  // dense, indexed by VaBlockId
  std::uint64_t total_pages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace uvmsim
