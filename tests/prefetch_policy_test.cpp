// The prefetch-policy seam: the shared spelling parser, the factory, and
// each policy's hooks in isolation.
#include "uvm/prefetch_policy.h"

#include <gtest/gtest.h>

#include "core/errors.h"
#include "uvm/markov_prefetcher.h"

namespace uvmsim {
namespace {

TEST(PrefetchPolicyParse, MapsEverySpellingPair) {
  struct Case {
    const char* prefetch;
    const char* predictor;
    PrefetchPolicyKind want;
  };
  const Case cases[] = {
      {"off", "tree", PrefetchPolicyKind::Off},
      {"off", "markov", PrefetchPolicyKind::Off},  // off ignores the alias
      {"on", "tree", PrefetchPolicyKind::Tree},
      {"on", "markov", PrefetchPolicyKind::Markov},
      {"tree", "tree", PrefetchPolicyKind::Tree},
      {"adaptive", "tree", PrefetchPolicyKind::Adaptive},
      {"markov", "tree", PrefetchPolicyKind::Markov},
      {"markov", "markov", PrefetchPolicyKind::Markov},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_prefetch_policy(c.prefetch, c.predictor, "--"), c.want)
        << c.prefetch << " + " << c.predictor;
  }
}

TEST(PrefetchPolicyParse, RejectsUnknownAndContradictorySpellings) {
  const auto param_of = [](const std::string& p, const std::string& q) {
    try {
      (void)parse_prefetch_policy(p, q, "request.");
    } catch (const ConfigError& e) {
      return e.param();
    }
    return std::string("accepted");
  };
  EXPECT_EQ(param_of("sideways", "tree"), "request.prefetch");
  EXPECT_EQ(param_of("on", "oracle"), "request.prefetch-policy");
  EXPECT_EQ(param_of("adaptive", "markov"), "request.prefetch-policy");
  EXPECT_EQ(param_of("tree", "markov"), "request.prefetch-policy");
}

TEST(PrefetchPolicyFactory, BuildsOnePolicyPerKind) {
  DriverConfig cfg;
  cfg.prefetch_threshold = 26;
  cfg.prefetch_policy = PrefetchPolicyKind::Off;
  auto off = make_prefetch_policy(cfg);
  EXPECT_FALSE(off->plans_bins());

  cfg.prefetch_policy = PrefetchPolicyKind::Tree;
  auto tree = make_prefetch_policy(cfg);
  EXPECT_TRUE(tree->plans_bins());
  EXPECT_EQ(tree->threshold(), 26u);

  cfg.prefetch_policy = PrefetchPolicyKind::Adaptive;
  auto adaptive = make_prefetch_policy(cfg);
  EXPECT_TRUE(adaptive->plans_bins());
  EXPECT_EQ(adaptive->threshold(), 1u);  // the ladder, not the config
  EXPECT_NE(dynamic_cast<AdaptivePrefetcher*>(adaptive.get()), nullptr);

  cfg.prefetch_policy = PrefetchPolicyKind::Markov;
  auto markov = make_prefetch_policy(cfg);
  EXPECT_FALSE(markov->plans_bins());
  EXPECT_NE(dynamic_cast<MarkovPrefetcher*>(markov.get()), nullptr);

  // Invalid learned-predictor knobs still fail at construction.
  cfg.markov.table_entries = 3;
  EXPECT_THROW((void)make_prefetch_policy(cfg), ConfigError);
}

TEST(PrefetchPolicyHooks, OffAndTreeNeverSpeculate) {
  AddressSpace as;
  (void)as.create_range(4 * kVaBlockSize, "r");
  FaultBatch::Bin bin;
  bin.faulted.set(3);
  DriverCounters c;
  std::vector<Speculation> out;
  PrefetchPolicy off;
  TreePrefetchPolicy tree(51, true);
  EXPECT_FALSE(off.speculate(bin, as, c, out));
  EXPECT_FALSE(tree.speculate(bin, as, c, out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(off.plan(as.block(0), bin.faulted).prefetch.none());
}

TEST(PrefetchPolicyHooks, MarkovEmitsStrideContinuationAndMutes) {
  AddressSpace as;
  (void)as.create_range(4 * kVaBlockSize, "r");
  MarkovPrefetchConfig mc;
  MarkovPrefetcher markov(mc);
  FaultBatch::Bin bin;
  for (std::uint32_t p : {10u, 14u, 18u}) bin.faulted.set(p);
  DriverCounters c;
  std::vector<Speculation> out;
  ASSERT_TRUE(markov.speculate(bin, as, c, out));
  ASSERT_EQ(out.size(), 1u);  // no chain yet: one observation
  EXPECT_EQ(out[0].block, bin.block);
  EXPECT_EQ(out[0].shape.count(), 3u * mc.degree);
  EXPECT_TRUE(out[0].shape.test(22));

  // Poor accuracy mutes emission; the bin is still consumed.
  c.pages_prefetched = 1000;
  c.prefetched_evicted_unused = 400;
  out.clear();
  EXPECT_TRUE(markov.speculate(bin, as, c, out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace uvmsim
