// Prefetch-policy interface.
//
// The driver's speculation decisions live behind this one seam, like
// eviction behind EvictionPolicy; the mechanism — backing, zero-fill,
// migration, mapping, cost charges and counters — stays in the driver.
// DriverConfig::prefetch_policy picks one of four policies: Off (this base
// class), Tree (the paper's two-stage density tree, §IV-A), Adaptive (the
// tree with its threshold tuned from eviction load, §VI-B) and Markov (the
// online-learned delta predictor, uvm/markov_prefetcher.h). Only the tree
// family plans per bin; only Markov speculates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "mem/page_mask.h"
#include "uvm/counters.h"
#include "uvm/driver_config.h"
#include "uvm/fault_batch.h"
#include "uvm/prefetcher.h"

namespace uvmsim {

/// One speculative population a policy asks the driver to perform: the
/// absent pages of `block` covered by `shape`.
struct Speculation {
  VaBlockId block = 0;
  PageMask shape;
};

/// The base class is the Off policy: no plan, no speculation, no feedback.
class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  /// True when plan() proposes pages for every serviced bin. The driver
  /// runs the plan stage (and the lane plan fork-join) only for these.
  [[nodiscard]] virtual bool plans_bins() const { return false; }
  /// Density threshold percent the next plans are made under (> 100 turns
  /// the density stage off); a lane plan made under another is stale.
  [[nodiscard]] virtual std::uint32_t threshold() const { return 101; }
  /// The prefetch set for a bin whose pages `need` service. Pure — reads
  /// the block and the current threshold only — so lanes may call it
  /// concurrently over disjoint bins.
  [[nodiscard]] virtual Prefetcher::Result plan(
      const VaBlock& /*blk*/, const PageMask& /*need*/) const {
    return {};
  }

  /// Called after each serviced bin, from the serial walk only. Returns
  /// false when the policy does not learn from bins; otherwise it consumed
  /// the bin (the driver charges one predictor lookup) and appended to
  /// `out`, in order, the populations it wants. `as` and `c` are read-only
  /// views of the address space and the run's counters.
  virtual bool speculate(const FaultBatch::Bin& /*bin*/,
                         const AddressSpace& /*as*/,
                         const DriverCounters& /*c*/,
                         std::vector<Speculation>& /*out*/) {
    return false;
  }

  /// Feedback at the end of each servicing pass.
  virtual void observe_pass(std::uint64_t /*evictions_in_pass*/) {}
};

/// The paper's two-stage density tree (§IV-A) at a fixed threshold.
class TreePrefetchPolicy : public PrefetchPolicy {
 public:
  TreePrefetchPolicy(std::uint32_t threshold, bool big_page_upgrade)
      : threshold_(threshold), big_page_upgrade_(big_page_upgrade) {}

  [[nodiscard]] bool plans_bins() const override { return true; }
  [[nodiscard]] std::uint32_t threshold() const override { return threshold_; }
  [[nodiscard]] Prefetcher::Result plan(const VaBlock& blk,
                                        const PageMask& need) const override {
    return Prefetcher::compute_fast(blk, need, big_page_upgrade_,
                                    threshold());
  }

 private:
  std::uint32_t threshold_;
  bool big_page_upgrade_;
};

/// Adaptive prefetching (paper §VI-B): "infer from the fault/eviction load
/// how effective prefetching is and tune the prefetching threshold
/// accordingly", with hysteresis. The threshold starts aggressive (§IV-C);
/// any eviction in a pass escalates one level towards disabled (§V-A2),
/// and a run of eviction-free passes de-escalates back.
class AdaptivePrefetcher final : public TreePrefetchPolicy {
 public:
  struct Config {
    /// Threshold ladder, aggressive -> conservative -> disabled (>100 means
    /// the density stage is off).
    std::array<std::uint32_t, 3> levels = {1, 51, 101};
    /// Consecutive eviction-free passes required to de-escalate one level.
    std::uint32_t cooldown_batches = 32;
  };

  AdaptivePrefetcher();
  explicit AdaptivePrefetcher(const Config& cfg, bool big_page_upgrade = true)
      : TreePrefetchPolicy(cfg.levels[0], big_page_upgrade), cfg_(cfg) {}

  void observe_pass(std::uint64_t evictions_in_pass) override;

  /// The effective density threshold for the next pass (1..101).
  [[nodiscard]] std::uint32_t threshold() const override {
    return cfg_.levels[level_];
  }
  /// True when the density stage is active.
  [[nodiscard]] bool density_enabled() const { return threshold() <= 100; }
  [[nodiscard]] std::uint32_t escalations() const { return escalations_; }
  [[nodiscard]] std::uint32_t deescalations() const { return deescalations_; }

 private:
  Config cfg_;
  std::uint32_t level_ = 0;  ///< index into cfg_.levels
  std::uint32_t calm_batches_ = 0;
  std::uint32_t escalations_ = 0;
  std::uint32_t deescalations_ = 0;
};

/// Builds the policy DriverConfig::prefetch_policy selects.
[[nodiscard]] std::unique_ptr<PrefetchPolicy> make_prefetch_policy(
    const DriverConfig& cfg);

/// The one string -> kind mapping, shared by the CLI and campaign requests:
/// `prefetch` is off|on|tree|adaptive|markov (on = tree); `predictor`, the
/// legacy --prefetch-policy alias (tree|markov), names the policy behind
/// `on`. Throws ConfigError naming `param_prefix` + the offending key.
[[nodiscard]] PrefetchPolicyKind parse_prefetch_policy(
    const std::string& prefetch, const std::string& predictor,
    const std::string& param_prefix);

}  // namespace uvmsim
