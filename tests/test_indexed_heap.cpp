#include "support/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <map>

#include "support/random.hpp"

namespace mcgp {
namespace {

TEST(IndexedMaxHeap, EmptyAfterReset) {
  IndexedMaxHeap h;
  h.reset(5);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0);
  EXPECT_FALSE(h.contains(3));
}

TEST(IndexedMaxHeap, SingleElement) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(1, 2.5);
  EXPECT_TRUE(h.contains(1));
  EXPECT_DOUBLE_EQ(h.key(1), 2.5);
  EXPECT_EQ(h.top(), 1);
  EXPECT_DOUBLE_EQ(h.top_key(), 2.5);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMaxHeap, PopsDescending) {
  IndexedMaxHeap h;
  h.reset(6);
  const double keys[] = {0.5, -1.0, 3.0, 2.0, 3.0, 0.0};
  for (idx_t i = 0; i < 6; ++i) h.insert(i, keys[i]);
  double last = 1e300;
  while (!h.empty()) {
    EXPECT_LE(h.top_key(), last);
    last = h.top_key();
    h.pop_max();
  }
}

TEST(IndexedMaxHeap, UpdateUp) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(0, 1.0);
  h.insert(1, 2.0);
  h.insert(2, 3.0);
  h.update(0, 10.0);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, UpdateDown) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(0, 5.0);
  h.insert(1, 2.0);
  h.insert(2, 3.0);
  h.update(0, -1.0);
  EXPECT_EQ(h.pop_max(), 2);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, RemoveArbitrary) {
  IndexedMaxHeap h;
  h.reset(5);
  for (idx_t i = 0; i < 5; ++i) h.insert(i, static_cast<real_t>(i));
  h.remove(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.pop_max(), 4);
  EXPECT_EQ(h.pop_max(), 3);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, ReinsertAfterRemove) {
  IndexedMaxHeap h;
  h.reset(2);
  h.insert(0, 1.0);
  h.remove(0);
  h.insert(0, 2.0);
  EXPECT_DOUBLE_EQ(h.key(0), 2.0);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, ClearThenReuseMatchesFreshReset) {
  constexpr idx_t kN = 64;
  Rng rng(5);
  IndexedMaxHeap reused;
  reused.reset(kN);
  // Leave the heap partly popped, with stale keys behind the cleared ids.
  for (idx_t id = 0; id < kN; id += 2) {
    reused.insert(id, rng.next_real() * 100 - 50);
  }
  for (int i = 0; i < 5; ++i) reused.pop_max();
  reused.clear();
  EXPECT_TRUE(reused.empty());
  for (idx_t id = 0; id < kN; ++id) EXPECT_FALSE(reused.contains(id));

  IndexedMaxHeap fresh;
  fresh.reset(kN);
  for (IndexedMaxHeap* h : {&reused, &fresh}) {
    // Five distinct keys over 64 ids: ties pop in an order fixed by the
    // insertion sequence alone, which both heaps share.
    for (idx_t id = 0; id < kN; ++id) {
      h->insert(id, static_cast<real_t>((id * 7) % 5) - 2.0);
    }
    for (idx_t id = 0; id < kN; id += 9) h->update(id, 3.0);
    for (idx_t id = 1; id < kN; id += 11) h->remove(id);
  }
  ASSERT_EQ(reused.size(), fresh.size());
  while (!fresh.empty()) {
    ASSERT_EQ(reused.top_key(), fresh.top_key());
    ASSERT_EQ(reused.pop_max(), fresh.pop_max());
  }
  EXPECT_TRUE(reused.empty());
  reused.clear();  // clearing an empty heap is a no-op
  EXPECT_TRUE(reused.empty());
}

TEST(IndexedMaxHeap, StressAgainstReference) {
  constexpr idx_t kN = 150;
  IndexedMaxHeap h;
  h.reset(kN);
  std::map<idx_t, real_t> ref;
  Rng rng(123);

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.next_below(4));
    const idx_t id = static_cast<idx_t>(rng.next_below(kN));
    const real_t key = rng.next_real() * 100 - 50;
    if (op == 0) {
      if (!ref.count(id)) {
        ref[id] = key;
        h.insert(id, key);
      }
    } else if (op == 1) {
      if (ref.count(id)) {
        ref.erase(id);
        h.remove(id);
      }
    } else if (op == 2) {
      if (ref.count(id)) {
        ref[id] = key;
        h.update(id, key);
      }
    } else if (!ref.empty()) {
      real_t expect = -1e300;
      for (const auto& [i, k] : ref) expect = std::max(expect, k);
      ASSERT_DOUBLE_EQ(h.top_key(), expect);
      const idx_t popped = h.pop_max();
      ASSERT_DOUBLE_EQ(ref[popped], expect);
      ref.erase(popped);
    }
    ASSERT_EQ(h.size(), static_cast<idx_t>(ref.size()));
  }
}

}  // namespace
}  // namespace mcgp
