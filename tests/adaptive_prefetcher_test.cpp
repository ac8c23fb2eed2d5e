#include "uvm/prefetch_policy.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(AdaptivePrefetcher, StartsAggressive) {
  AdaptivePrefetcher ap;
  EXPECT_EQ(ap.threshold(), 1u);
  EXPECT_TRUE(ap.density_enabled());
}

TEST(AdaptivePrefetcher, EvictionEscalates) {
  AdaptivePrefetcher ap;
  ap.observe_pass(3);
  EXPECT_EQ(ap.threshold(), 51u);
  ap.observe_pass(1);
  EXPECT_EQ(ap.threshold(), 101u);
  EXPECT_FALSE(ap.density_enabled());
  EXPECT_EQ(ap.escalations(), 2u);
}

TEST(AdaptivePrefetcher, SaturatesAtDisabled) {
  AdaptivePrefetcher ap;
  for (int i = 0; i < 10; ++i) ap.observe_pass(1);
  EXPECT_EQ(ap.threshold(), 101u);
  EXPECT_EQ(ap.escalations(), 2u);  // only two ladder steps exist
}

TEST(AdaptivePrefetcher, CalmBatchesDeescalate) {
  AdaptivePrefetcher::Config cfg;
  cfg.cooldown_batches = 3;
  AdaptivePrefetcher ap(cfg);
  ap.observe_pass(1);  // -> 51
  EXPECT_EQ(ap.threshold(), 51u);
  ap.observe_pass(0);
  ap.observe_pass(0);
  EXPECT_EQ(ap.threshold(), 51u);  // cooldown not reached
  ap.observe_pass(0);
  EXPECT_EQ(ap.threshold(), 1u);
  EXPECT_EQ(ap.deescalations(), 1u);
}

TEST(AdaptivePrefetcher, EvictionResetsCooldown) {
  AdaptivePrefetcher::Config cfg;
  cfg.cooldown_batches = 3;
  AdaptivePrefetcher ap(cfg);
  ap.observe_pass(1);
  ap.observe_pass(0);
  ap.observe_pass(0);
  ap.observe_pass(1);  // escalate again, cooldown resets
  EXPECT_EQ(ap.threshold(), 101u);
  ap.observe_pass(0);
  ap.observe_pass(0);
  EXPECT_EQ(ap.threshold(), 101u);
  ap.observe_pass(0);
  EXPECT_EQ(ap.threshold(), 51u);
}

TEST(AdaptivePrefetcher, StaysAggressiveWhileCalm) {
  AdaptivePrefetcher ap;
  for (int i = 0; i < 100; ++i) ap.observe_pass(0);
  EXPECT_EQ(ap.threshold(), 1u);
  EXPECT_EQ(ap.deescalations(), 0u);
}

TEST(AdaptivePrefetcher, CustomLadder) {
  AdaptivePrefetcher::Config cfg;
  cfg.levels = {10, 60, 101};
  AdaptivePrefetcher ap(cfg);
  EXPECT_EQ(ap.threshold(), 10u);
  ap.observe_pass(1);
  EXPECT_EQ(ap.threshold(), 60u);
}

}  // namespace
}  // namespace uvmsim
