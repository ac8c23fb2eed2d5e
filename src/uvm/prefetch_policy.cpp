#include "uvm/prefetch_policy.h"

#include "core/errors.h"
#include "uvm/markov_prefetcher.h"

namespace uvmsim {

AdaptivePrefetcher::AdaptivePrefetcher() : AdaptivePrefetcher(Config{}) {}

void AdaptivePrefetcher::observe_pass(std::uint64_t evictions_in_pass) {
  if (evictions_in_pass > 0) {
    calm_batches_ = 0;
    if (level_ + 1 < cfg_.levels.size()) {
      ++level_;
      ++escalations_;
    }
    return;
  }
  if (level_ == 0) return;
  if (++calm_batches_ >= cfg_.cooldown_batches) {
    --level_;
    ++deescalations_;
    calm_batches_ = 0;
  }
}

std::unique_ptr<PrefetchPolicy> make_prefetch_policy(const DriverConfig& cfg) {
  switch (cfg.prefetch_policy) {
    case PrefetchPolicyKind::Off:
      return std::make_unique<PrefetchPolicy>();
    case PrefetchPolicyKind::Tree:
      return std::make_unique<TreePrefetchPolicy>(cfg.prefetch_threshold,
                                                  cfg.big_page_upgrade);
    case PrefetchPolicyKind::Adaptive:
      return std::make_unique<AdaptivePrefetcher>(AdaptivePrefetcher::Config{},
                                                  cfg.big_page_upgrade);
    case PrefetchPolicyKind::Markov:
      // MarkovPrefetcher's ctor validates the table/confidence knobs.
      return std::make_unique<MarkovPrefetcher>(cfg.markov);
  }
  throw ConfigError("Driver.prefetch_policy", "unknown policy kind");
}

PrefetchPolicyKind parse_prefetch_policy(const std::string& prefetch,
                                         const std::string& predictor,
                                         const std::string& param_prefix) {
  if (prefetch != "off" && prefetch != "on" && prefetch != "tree" &&
      prefetch != "adaptive" && prefetch != "markov") {
    throw ConfigError(param_prefix + "prefetch",
                      "wants off|on|tree|adaptive|markov, got '" + prefetch +
                          "'");
  }
  if (predictor != "tree" && predictor != "markov") {
    throw ConfigError(param_prefix + "prefetch-policy",
                      "wants tree|markov, got '" + predictor + "'");
  }
  // Markov replaces the density tree (whose threshold adaptive tunes).
  if (predictor == "markov" && (prefetch == "adaptive" || prefetch == "tree")) {
    throw ConfigError(param_prefix + "prefetch-policy",
                      "markov cannot combine with prefetch " + prefetch);
  }
  if (prefetch == "off") return PrefetchPolicyKind::Off;
  if (prefetch == "adaptive") return PrefetchPolicyKind::Adaptive;
  if (prefetch == "markov" || predictor == "markov") {
    return PrefetchPolicyKind::Markov;
  }
  return PrefetchPolicyKind::Tree;
}

}  // namespace uvmsim
