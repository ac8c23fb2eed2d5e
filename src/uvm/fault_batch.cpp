#include "uvm/fault_batch.h"

#include <algorithm>
#include <cassert>

#include "sim/annotations.h"
#include "sim/thread_pool.h"
#include "sim/trace.h"

namespace uvmsim {

namespace {

/// The serial sort-then-group pass, verbatim from the historical fetch()
/// body: sorts [first, last) by faulting page in place, then bins per
/// VABlock while deduplicating same-page entries. Returns nothing; appends
/// to `batch` and counts duplicates there. The time cursor is NOT advanced
/// here — the caller charges sort/bin and dedup costs (identically on both
/// the serial and the sharded path).
void sort_and_group(std::vector<FaultEntry>::iterator first,
                    std::vector<FaultEntry>::iterator last,
                    FaultBatch& batch) {
  std::sort(first, last, [](const FaultEntry& a, const FaultEntry& b) {
    return a.page < b.page;
  });

  // Page-sorted entries are already grouped by ascending VABlock (entries
  // carry block == block_of_page(page)), so binning is a single grouping
  // pass appending to the output vector — no per-batch ordered map.
  VirtPage prev_page = ~VirtPage{0};
  FaultBatch::Bin* bin = nullptr;
  for (auto it = first; it != last; ++it) {
    const FaultEntry& e = *it;
    assert(e.block == block_of_page(e.page));
    if (bin == nullptr || bin->block != e.block) {
      assert(bin == nullptr || bin->block < e.block);
      bin = &batch.bins.emplace_back();
      bin->block = e.block;
    }
    ++bin->fault_entries;
    // The access-type upgrade must happen before the dedup skip: a
    // Read-then-Write pair on the same page still makes Write the bin's
    // strongest access.
    if (e.access == FaultAccessType::Write) {
      bin->strongest_access = FaultAccessType::Write;
    }
    if (e.page == prev_page) {
      ++batch.duplicates;
      continue;
    }
    prev_page = e.page;
    bin->faulted.set(page_in_block(e.page));
  }
}

}  // namespace

void Preprocessor::shard_bins(std::vector<FaultEntry>& entries,
                              FaultBatch& batch, ThreadPool& pool,
                              std::uint32_t lanes) {
  // Each lane sorts a contiguous slice and groups it into mini-bins; since
  // all entries of one page share a block, the per-lane grouping differs
  // from the global one only in how duplicates split across lanes — the
  // merged masks (set union), entry sums, and access-type ORs are partition-
  // independent, and the global duplicate count falls out of the union size.
  UVMSIM_LANE_OWNED std::vector<FaultBatch> lane_bins(lanes);
  pool.for_lanes(
      entries.size(), lanes,
      [&](std::size_t lane, std::size_t begin, std::size_t end) {
        FaultBatch local;
        // Lanes own disjoint subranges of `entries`, so the sort runs in
        // place — no per-lane slice copy.
        sort_and_group(entries.begin() + begin, entries.begin() + end, local);
        lane_bins[lane] = std::move(local);
      });

  // Merge lane outputs by ascending block id; equal blocks fold together
  // (mask OR, entry sum, strongest-access OR). Lane order never matters:
  // every fold is commutative and associative over sets and sums.
  std::vector<std::size_t> cursor(lanes, 0);
  std::uint32_t unique_pages = 0;
  for (;;) {
    VaBlockId next = ~VaBlockId{0};
    bool have = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      if (cursor[l] < lane_bins[l].bins.size()) {
        next = have ? std::min(next, lane_bins[l].bins[cursor[l]].block)
                    : lane_bins[l].bins[cursor[l]].block;
        have = true;
      }
    }
    if (!have) break;
    FaultBatch::Bin& out = batch.bins.emplace_back();
    out.block = next;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      if (cursor[l] >= lane_bins[l].bins.size()) continue;
      const FaultBatch::Bin& src = lane_bins[l].bins[cursor[l]];
      if (src.block != next) continue;
      out.faulted |= src.faulted;
      out.fault_entries += src.fault_entries;
      if (src.strongest_access == FaultAccessType::Write) {
        out.strongest_access = FaultAccessType::Write;
      }
      ++cursor[l];
    }
    unique_pages += out.faulted.count();
  }
  // Equal pages always group under one block, so the serial pass's adjacent
  // same-page count equals fetched minus the union of unique pages.
  batch.duplicates =
      batch.fetched > unique_pages ? batch.fetched - unique_pages : 0;
}

UVMSIM_HOT FaultBatch Preprocessor::fetch(
    FaultBuffer& fb, std::uint32_t batch_size, const CostModel& cm, SimTime& t,
    FetchPolicy policy, LogHistogram* queue_latency, Tracer* tracer,
    ThreadPool* lane_pool, std::uint32_t lanes) {
  FaultBatch batch;
  // uvmsim-lint: allow(hot-local-container, "per-batch staging vector, reserved upfront; amortized across the whole batch")
  std::vector<FaultEntry> entries;
  entries.reserve(std::min<std::size_t>(batch_size, fb.size()));

  const SimTime t_pop0 = t;
  while (entries.size() < batch_size) {
    const FaultEntry* head = fb.peek();
    if (head == nullptr) break;
    if (head->ready_at > t) {
      if (policy == FetchPolicy::StopAtNotReady && !entries.empty()) {
        break;  // close the batch early; the laggard waits for the next pass
      }
      // Poll the ready flag until the entry lands.
      std::uint32_t polls = static_cast<std::uint32_t>(
          (head->ready_at - t + cm.poll_retry - 1) / cm.poll_retry);
      polls = std::max<std::uint32_t>(polls, 1);
      batch.polls += polls;
      t += static_cast<SimDuration>(polls) * cm.poll_retry;
    }
    entries.push_back(*fb.pop());
    if (queue_latency != nullptr) {
      const FaultEntry& e = entries.back();
      if (t >= e.raised_at) {
        queue_latency->add(t - e.raised_at);
      } else {
        // A corrupted or reordered entry can carry a raise time past the
        // fetch cursor; clamp the sample to zero and count the occurrence
        // instead of silently losing it.
        queue_latency->add(0);
        ++batch.latency_clamps;
      }
    }
    t += cm.fetch_per_fault;
  }
  batch.fetched = static_cast<std::uint32_t>(entries.size());
  if (entries.empty()) return batch;
  if (tracer != nullptr) {
    tracer->span(TraceCategory::Fetch, "fetch.pop", t_pop0, t, 0, "fetched",
                 batch.fetched, "polls", batch.polls);
  }

  // Sort by faulting page, then bin per VABlock, deduplicating same-page
  // entries (parallel SMs frequently fault on the same page). The charge is
  // count-based — entries * (sort + bin) plus one dedup charge per
  // duplicate — so the sharded stage advances the cursor identically.
  const SimTime t_sort0 = t;
  t += static_cast<SimDuration>(entries.size()) *
       (cm.sort_per_fault + cm.bin_per_fault);
  if (lane_pool != nullptr && lanes > 1 &&
      entries.size() >= static_cast<std::size_t>(lanes) * kShardGrain) {
    batch.sharded = true;
    shard_bins(entries, batch, *lane_pool, lanes);
  } else {
    sort_and_group(entries.begin(), entries.end(), batch);
  }
  t += static_cast<SimDuration>(batch.duplicates) * cm.dedup_per_fault;
  if (tracer != nullptr) {
    tracer->span(TraceCategory::Fetch, "fetch.sort_bin", t_sort0, t, 0,
                 "bins", batch.bins.size(), "dups", batch.duplicates);
  }
  return batch;
}

}  // namespace uvmsim
