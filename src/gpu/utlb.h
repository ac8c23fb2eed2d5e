// Per-SM micro-TLB model.
//
// Caches positive translations at big-page (64 KB) granularity. A hit skips
// the page-table walk; a miss pays the walk latency and, if the page is
// non-resident, raises a far-fault. Unmaps (eviction) invalidate all µTLBs —
// the membar/invalidate cost is charged by the driver's mapping cost model;
// this class only models the hit/miss behaviour on the GPU side.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class Utlb {
 public:
  explicit Utlb(std::uint32_t entries = 64)
      : slots_(entries, Slot{kEmpty, 0}),
        cells_(table_size(entries)),
        shift_(64 - std::countr_zero(cells_.size())) {}

  /// True if the big page containing `p` has a cached translation.
  [[nodiscard]] bool lookup(VirtPage p) const {
    // Membership index of the slots_ ring: O(1) instead of scanning every
    // slot — this runs once per lane per warp step, the hottest loop in the
    // simulator.
    const Cell& c = cells_[find(tag_of(p))];
    return c.tag != kEmpty && c.epoch == epoch_ && c.copies > 0;
  }

  /// Installs a translation (round-robin replacement).
  void insert(VirtPage p) {
    Slot& s = slots_[next_];
    if (s.tag != kEmpty && s.epoch == epoch_) {
      // The same tag can occupy several slots (re-inserted after its first
      // copy aged but before it was evicted); membership ends only when the
      // last copy leaves the ring. A live slot always has a live cell.
      --cells_[find(s.tag)].copies;
    }
    s = Slot{tag_of(p), epoch_};
    add_copy(s.tag);
    next_ = (next_ + 1) % slots_.size();
  }

  /// Drops every entry (driver-issued TLB invalidate). Epoch bump: slots
  /// and cells written under an older epoch are dead without touching
  /// them — the driver invalidates every SM's µTLB on every eviction, so
  /// this is hot.
  void invalidate_all() {
    ++invalidations_;
    if (++epoch_ != 0) return;
    // The 32-bit epoch wrapped: a cell or slot from 2^32 invalidations ago
    // would read as current, so forget them all once.
    std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    std::fill(cells_.begin(), cells_.end(), Cell{});
    used_ = 0;
  }

  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static std::uint64_t tag_of(VirtPage p) { return p / kPagesPerBigPage; }

  /// One ring slot: the tag it holds and the epoch it was written in.
  struct Slot {
    std::uint64_t tag;
    std::uint32_t epoch;
  };
  /// One table cell (16 bytes). A cell is live when its epoch is current
  /// and at least one live ring slot holds its tag; dead cells stay in
  /// place (they keep probe chains intact) until the next rebuild.
  struct Cell {
    std::uint64_t tag = kEmpty;
    std::uint32_t epoch = 0;
    std::uint32_t copies = 0;
  };

  /// Two cells per ring slot, rounded up to a power of two. Live tags
  /// never exceed the ring size, so a rebuild leaves the table at most half
  /// full, and the next one comes after another quarter of it fills.
  static std::size_t table_size(std::uint32_t entries) {
    std::size_t n = 2;
    while (n < 2 * static_cast<std::size_t>(entries)) n *= 2;
    return n;
  }

  /// Index of `tag`'s cell, or of the empty cell its probe ends at.
  [[nodiscard]] std::size_t find(std::uint64_t tag) const {
    const std::size_t mask = cells_.size() - 1;
    // Fibonacci hashing: consecutive big pages spread over the table.
    std::size_t i =
        static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (cells_[i].tag != tag && cells_[i].tag != kEmpty) i = (i + 1) & mask;
    return i;
  }

  void add_copy(std::uint64_t tag) {
    std::size_t i = find(tag);
    if (cells_[i].tag == kEmpty) {
      if (4 * (used_ + 1) > 3 * cells_.size()) {
        rebuild();
        i = find(tag);
      }
      cells_[i].tag = tag;
      ++used_;
    }
    Cell& c = cells_[i];
    if (c.epoch != epoch_) c = Cell{tag, epoch_, 0};
    ++c.copies;
  }

  /// Drops the dead cells: re-counts the copies of every live ring slot
  /// except the one being overwritten, which add_copy re-adds.
  void rebuild() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    used_ = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      const Slot& s = slots_[k];
      if (k == next_ || s.tag == kEmpty || s.epoch != epoch_) continue;
      const std::size_t i = find(s.tag);
      if (cells_[i].tag == kEmpty) {
        cells_[i] = Cell{s.tag, epoch_, 0};
        ++used_;
      }
      ++cells_[i].copies;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Cell> cells_;
  int shift_;             ///< 64 - log2(cells_.size())
  std::size_t used_ = 0;  ///< cells holding a tag, live or dead
  std::uint32_t epoch_ = 0;
  std::size_t next_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace uvmsim
