#include "gpu/utlb.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"

namespace uvmsim {
namespace {

// Reference model: the earlier Utlb, which mirrored the slot ring in an
// unordered_map of {epoch, copies} per tag and pruned dead entries once
// they outnumbered the ring. The flat table must answer every lookup the
// same way.
class ReferenceUtlb {
 public:
  explicit ReferenceUtlb(std::uint32_t entries)
      : slots_(entries, kEmpty), slot_epoch_(entries, 0) {}

  [[nodiscard]] bool lookup(VirtPage p) const {
    auto it = tags_.find(p / kPagesPerBigPage);
    return it != tags_.end() && it->second.epoch == epoch_ &&
           it->second.copies > 0;
  }

  void insert(VirtPage p) {
    if (slots_[next_] != kEmpty && slot_epoch_[next_] == epoch_) {
      auto it = tags_.find(slots_[next_]);
      if (it != tags_.end() && it->second.epoch == epoch_ &&
          it->second.copies > 0) {
        --it->second.copies;
      }
    }
    const std::uint64_t tag = p / kPagesPerBigPage;
    slots_[next_] = tag;
    slot_epoch_[next_] = epoch_;
    Entry& e = tags_[tag];
    if (e.epoch != epoch_) e = Entry{epoch_, 0};
    ++e.copies;
    next_ = (next_ + 1) % slots_.size();
    if (tags_.size() > 2 * slots_.size()) {
      for (auto it = tags_.begin(); it != tags_.end();) {
        const bool live = it->second.epoch == epoch_ && it->second.copies > 0;
        it = live ? std::next(it) : tags_.erase(it);
      }
    }
  }

  void invalidate_all() { ++epoch_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Entry {
    std::uint64_t epoch = 0;
    std::uint32_t copies = 0;
  };
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> slot_epoch_;
  std::unordered_map<std::uint64_t, Entry> tags_;
  std::uint64_t epoch_ = 0;
  std::size_t next_ = 0;
};

TEST(Utlb, MissWhenEmpty) {
  Utlb t(4);
  EXPECT_FALSE(t.lookup(0));
}

TEST(Utlb, InsertThenHit) {
  Utlb t(4);
  t.insert(100);
  EXPECT_TRUE(t.lookup(100));
}

TEST(Utlb, BigPageGranularity) {
  Utlb t(4);
  t.insert(0);
  // All pages in the same 16-page big page hit.
  for (VirtPage p = 0; p < kPagesPerBigPage; ++p) EXPECT_TRUE(t.lookup(p));
  EXPECT_FALSE(t.lookup(kPagesPerBigPage));
}

TEST(Utlb, RoundRobinEviction) {
  Utlb t(2);
  t.insert(0 * kPagesPerBigPage);
  t.insert(1 * kPagesPerBigPage);
  t.insert(2 * kPagesPerBigPage);  // evicts the first slot
  EXPECT_FALSE(t.lookup(0));
  EXPECT_TRUE(t.lookup(1 * kPagesPerBigPage));
  EXPECT_TRUE(t.lookup(2 * kPagesPerBigPage));
}

TEST(Utlb, InvalidateAllClears) {
  Utlb t(4);
  t.insert(0);
  t.insert(100);
  t.invalidate_all();
  EXPECT_FALSE(t.lookup(0));
  EXPECT_FALSE(t.lookup(100));
  EXPECT_EQ(t.invalidations(), 1u);
}

TEST(Utlb, ReinsertAfterInvalidate) {
  Utlb t(4);
  t.insert(5);
  t.invalidate_all();
  t.insert(5);
  EXPECT_TRUE(t.lookup(5));
}

TEST(Utlb, DuplicateCopiesKeepTagUntilLastLeaves) {
  Utlb t(2);
  t.insert(0);                     // slot 0: A
  t.insert(0);                     // slot 1: A again
  t.insert(1 * kPagesPerBigPage);  // slot 0: B; one copy of A remains
  EXPECT_TRUE(t.lookup(0));
  t.insert(2 * kPagesPerBigPage);  // slot 1: C; the last copy of A leaves
  EXPECT_FALSE(t.lookup(0));
  EXPECT_TRUE(t.lookup(1 * kPagesPerBigPage));
}

// Differential check against the reference model: random insert / lookup /
// invalidate_all sequences over a tag space a few times the ring size (so
// tags are re-inserted while an older copy is still in the ring), long
// enough to rebuild the table many times. Every lookup must agree.
TEST(Utlb, MatchesReferenceOnRandomSequences) {
  for (const std::uint32_t entries : {1u, 4u, 64u}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      Utlb t(entries);
      ReferenceUtlb ref(entries);
      Rng rng(seed * 1000 + entries);
      const std::uint64_t tags = 3 * entries + 2;
      std::uint64_t inserts = 0;
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.next_below(100);
        const VirtPage p = rng.next_below(tags) * kPagesPerBigPage +
                           rng.next_below(kPagesPerBigPage);
        if (op < 45) {
          t.insert(p);
          ref.insert(p);
          ++inserts;
        } else if (op < 99) {
          ASSERT_EQ(t.lookup(p), ref.lookup(p))
              << "entries " << entries << " seed " << seed << " step " << step;
        } else {
          t.invalidate_all();
          ref.invalidate_all();
        }
        // Every step also checks the whole tag space.
        for (std::uint64_t tag = 0; tag < tags; ++tag) {
          ASSERT_EQ(t.lookup(tag * kPagesPerBigPage),
                    ref.lookup(tag * kPagesPerBigPage))
              << "entries " << entries << " seed " << seed << " step " << step
              << " tag " << tag;
        }
      }
      EXPECT_GT(inserts, 100u * entries);
    }
  }
}

}  // namespace
}  // namespace uvmsim
