#include "uvm/markov_prefetcher.h"

#include "core/errors.h"

namespace uvmsim {

namespace {
[[nodiscard]] bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

MarkovPrefetcher::MarkovPrefetcher(const MarkovPrefetchConfig& cfg)
    : cfg_(cfg) {
  if (!is_pow2(cfg.table_entries) || cfg.table_entries < 2 ||
      cfg.table_entries > (1u << 20)) {
    throw ConfigError("Markov.table_entries",
                      "must be a power of two in [2, 2^20] (direct-mapped "
                      "index masking)");
  }
  if (cfg.degree == 0 || cfg.degree > kMaxDegree) {
    throw ConfigError("Markov.degree", "must be in [1, kMaxDegree (8)]");
  }
  if (cfg.confidence_emit == 0 || cfg.confidence_emit > cfg.confidence_max) {
    throw ConfigError("Markov.confidence_emit",
                      "must be in [1, confidence_max]; 0 would emit "
                      "untrained predictions");
  }
  table_.resize(cfg.table_entries);
}

void MarkovPrefetcher::observe(VaBlockId block) {
  const auto signed_block = static_cast<std::int64_t>(block);
  if (have_last_) {
    const std::int64_t delta = signed_block - last_block_;
    if (delta != 0) {
      if (have_context_) {
        ++observes_;
        Entry& e = table_[index_of(context_)];
        if (!e.valid || e.context != context_) {
          // Deterministic replacement: tag mismatch overwrites the slot.
          e = Entry{context_, delta, 1, true};
        } else if (e.delta == delta) {
          if (e.confidence < cfg_.confidence_max) ++e.confidence;
        } else if (e.confidence > 0) {
          --e.confidence;  // damped: one miss does not forget a hot stride
        } else {
          e.delta = delta;
          e.confidence = 1;
        }
      }
      context_ = delta;
      have_context_ = true;
    }
  }
  last_block_ = signed_block;
  have_last_ = true;
}

void MarkovPrefetcher::advance(VaBlockId block) {
  const auto signed_block = static_cast<std::int64_t>(block);
  if (have_last_) {
    const std::int64_t delta = signed_block - last_block_;
    if (delta != 0) {
      context_ = delta;
      have_context_ = true;
    }
  }
  last_block_ = signed_block;
  have_last_ = true;
}

std::size_t MarkovPrefetcher::predict(
    VaBlockId from, std::array<VaBlockId, kMaxDegree>& out) const {
  if (!have_context_) return 0;
  std::size_t n = 0;
  std::int64_t ctx = context_;
  auto cur = static_cast<std::int64_t>(from);
  const std::size_t degree =
      cfg_.degree < kMaxDegree ? cfg_.degree : kMaxDegree;
  while (n < degree) {
    const Entry& e = table_[index_of(ctx)];
    if (!e.valid || e.context != ctx || e.confidence < cfg_.confidence_emit) {
      break;
    }
    cur += e.delta;
    if (cur < 0) break;  // would underflow the block-ID space
    out[n++] = static_cast<VaBlockId>(cur);
    ctx = e.delta;  // chain: the emitted delta becomes the next context
  }
  return n;
}

bool MarkovPrefetcher::speculate(const FaultBatch::Bin& bin,
                                 const AddressSpace& as,
                                 const DriverCounters& c,
                                 std::vector<Speculation>& out) {
  observe(bin.block);

  // Online accuracy feedback: under this policy every prefetched page is
  // the predictor's, so the run-wide issued/wasted counters are its own
  // hit-rate ledger. Once more than a quarter of a meaningful sample was
  // evicted before first use, emissions mute (observation continues for
  // free) — unpredictable access converges toward prefetch-off instead of
  // paying for misspeculation. The ledger only charges under memory
  // pressure, which is exactly when misspeculation costs anything.
  if (c.pages_prefetched > 256 &&
      c.prefetched_evicted_unused * 4 > c.pages_prefetched) {
    return true;
  }

  // --- (a) intra-block stride continuation --------------------------------
  // A bin whose faulted pages sit at one constant gap is a strided warp
  // mid-block; its next faults are that gap continued. Bin-local evidence
  // only — deterministic, and immune to the cross-block interleave that
  // warp scheduling imposes on the serviced-bin sequence.
  const VaBlock& blk = as.block(bin.block);
  const std::uint32_t nbits = bin.faulted.count();
  if (nbits >= 3) {
    std::uint32_t prev = bin.faulted.find_next_set(0);
    std::uint32_t gap = 0;
    bool constant = true;
    for (std::uint32_t p = bin.faulted.find_next_set(prev + 1);
         p < blk.num_pages; p = bin.faulted.find_next_set(p + 1)) {
      const std::uint32_t g = p - prev;
      if (gap == 0) {
        gap = g;
      } else if (g != gap) {
        constant = false;
        break;
      }
      prev = p;
    }
    if (constant && gap > 0) {
      PageMask ahead;
      std::uint64_t emit =
          static_cast<std::uint64_t>(nbits) * cfg_.degree;
      for (std::uint64_t p = prev + gap; p < blk.num_pages && emit > 0;
           p += gap, --emit) {
        ahead.set(static_cast<std::uint32_t>(p));
      }
      if (ahead.any()) out.push_back({bin.block, ahead});
    }
  }

  // --- (b) cross-block Markov chain ---------------------------------------
  std::array<VaBlockId, kMaxDegree> pred{};
  const std::size_t n = predict(bin.block, pred);
  for (std::size_t i = 0; i < n; ++i) {
    const VaBlockId nb_id = pred[i];
    // Chains stop at the first unusable link: later links are relative to
    // this one, so skipping it would speculate on a gap we never verified.
    // Populating earlier links changes none of these checks.
    if (nb_id >= as.num_blocks()) break;
    const VaBlock& nb = as.block(nb_id);
    if (!nb.valid() || nb.service_locked) break;
    if (as.range(nb.range).advise.remote_map) break;
    // The emission itself advances the history (no training): a prefetch
    // hit never faults, and the next real fault's delta must be measured
    // from where the stream actually is.
    advance(nb_id);
    // Footprint projection: speculate the same page offsets the triggering
    // bin faulted on, not the whole block. A dense sweep projects dense
    // masks, a strided kernel projects exactly its stride set, and a wrong
    // prediction wastes at most one bin's worth of traffic.
    out.push_back({nb_id, bin.faulted});
  }
  return true;
}

}  // namespace uvmsim
