#include <gtest/gtest.h>

#include <set>

#include "align/bottom_row_store.hpp"
#include "align/sparse_override.hpp"
#include "align/override_triangle.hpp"
#include "util/rng.hpp"

namespace repro::align {
namespace {

TEST(OverrideTriangle, StartsEmpty) {
  OverrideTriangle tri(50);
  EXPECT_EQ(tri.count(), 0);
  for (int i = 0; i < 49; ++i) {
    EXPECT_TRUE(tri.row_empty(i));
    for (int j = i + 1; j < 50; ++j) EXPECT_FALSE(tri.contains(i, j));
  }
}

TEST(OverrideTriangle, SetAndContains) {
  OverrideTriangle tri(10);
  tri.set(2, 7);
  EXPECT_TRUE(tri.contains(2, 7));
  EXPECT_FALSE(tri.contains(2, 6));
  EXPECT_FALSE(tri.contains(7, 8));
  EXPECT_FALSE(tri.row_empty(2));
  EXPECT_TRUE(tri.row_empty(3));
  EXPECT_EQ(tri.count(), 1);
}

TEST(OverrideTriangle, SetIsIdempotent) {
  OverrideTriangle tri(10);
  tri.set(1, 2);
  tri.set(1, 2);
  EXPECT_EQ(tri.count(), 1);
}

TEST(OverrideTriangle, Clear) {
  OverrideTriangle tri(10);
  tri.set(0, 9);
  tri.set(3, 4);
  tri.clear();
  EXPECT_EQ(tri.count(), 0);
  EXPECT_FALSE(tri.contains(0, 9));
  EXPECT_TRUE(tri.row_empty(0));
}

TEST(OverrideTriangle, MatchesSetReference) {
  // Property test against std::set over random pairs, including boundary
  // pairs (0, 1) and (m-2, m-1) and long rows crossing word boundaries.
  const int m = 300;
  OverrideTriangle tri(m);
  std::set<std::pair<int, int>> ref;
  util::Rng rng(4242);
  for (int k = 0; k < 2000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    tri.set(i, j);
    ref.insert({i, j});
  }
  tri.set(0, 1);
  ref.insert({0, 1});
  tri.set(m - 2, m - 1);
  ref.insert({m - 2, m - 1});
  EXPECT_EQ(tri.count(), static_cast<std::int64_t>(ref.size()));
  for (int i = 0; i < m - 1; ++i)
    for (int j = i + 1; j < m; ++j)
      ASSERT_EQ(tri.contains(i, j), ref.contains({i, j})) << i << "," << j;
}

TEST(OverrideTriangle, RejectsBadPairs) {
  OverrideTriangle tri(10);
  EXPECT_THROW(tri.set(5, 5), std::logic_error);
  EXPECT_THROW(tri.set(7, 3), std::logic_error);
  EXPECT_THROW(tri.set(-1, 3), std::logic_error);
  EXPECT_THROW(tri.set(3, 10), std::logic_error);
  EXPECT_THROW(OverrideTriangle(1), std::logic_error);
}

TEST(BottomRowStore, StoreAndRead) {
  BottomRowStore rows(10);
  EXPECT_FALSE(rows.computed(3));
  const std::vector<Score> row{1, 2, 3, 4, 5, 6, 7};
  rows.store(3, row);
  EXPECT_TRUE(rows.computed(3));
  const auto back = rows.row(3);
  ASSERT_EQ(back.size(), 7u);
  for (int x = 0; x < 7; ++x) EXPECT_EQ(back[static_cast<std::size_t>(x)], x + 1);
}

TEST(BottomRowStore, LayoutIsDense) {
  // Adjacent rows must not clobber each other.
  const int m = 40;
  BottomRowStore rows(m);
  for (int r = 1; r < m; ++r) {
    std::vector<Score> row(static_cast<std::size_t>(m - r));
    for (std::size_t x = 0; x < row.size(); ++x)
      row[x] = r * 100 + static_cast<int>(x);
    rows.store(r, row);
  }
  for (int r = 1; r < m; ++r) {
    const auto row = rows.row(r);
    for (std::size_t x = 0; x < row.size(); ++x)
      ASSERT_EQ(row[x], r * 100 + static_cast<int>(x)) << "r=" << r;
  }
  EXPECT_EQ(rows.bytes(), static_cast<std::size_t>(m) * (m - 1) / 2 * 2);
}

TEST(BottomRowStore, GuardsMisuse) {
  BottomRowStore rows(10);
  const std::vector<Score> row7(7, 1);
  EXPECT_THROW((void)rows.row(3), std::logic_error);    // not yet stored
  EXPECT_THROW(rows.store(3, {{1, 2}}), std::logic_error);  // wrong size
  rows.store(3, row7);
  EXPECT_THROW(rows.store(3, row7), std::logic_error);  // stored twice
  const std::vector<Score> overflow{1, 2, 3, 4, 5, 100000};
  EXPECT_THROW(rows.store(4, overflow), std::logic_error);  // > i16
}

TEST(SparseOverrideSet, SetContainsAndCount) {
  SparseOverrideSet sparse(50);
  EXPECT_EQ(sparse.count(), 0);
  sparse.set(3, 17);
  sparse.set(3, 17);  // idempotent
  sparse.set(0, 49);
  EXPECT_TRUE(sparse.contains(3, 17));
  EXPECT_TRUE(sparse.contains(0, 49));
  EXPECT_FALSE(sparse.contains(3, 18));
  EXPECT_EQ(sparse.count(), 2);
  EXPECT_THROW(sparse.set(5, 5), std::logic_error);
  EXPECT_THROW(sparse.set(5, 50), std::logic_error);
}

TEST(SparseOverrideSet, RoundTripsWithDense) {
  const int m = 200;
  OverrideTriangle dense(m);
  SparseOverrideSet sparse(m);
  util::Rng rng(77);
  for (int k = 0; k < 3000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    dense.set(i, j);
    sparse.set(i, j);
  }
  EXPECT_EQ(sparse.count(), dense.count());
  // sparse -> dense
  OverrideTriangle dense2(m);
  sparse.expand_into(dense2);
  for (int i = 0; i < m - 1; ++i)
    for (int j = i + 1; j < m; ++j)
      ASSERT_EQ(dense2.contains(i, j), dense.contains(i, j)) << i << "," << j;
  // dense -> sparse
  SparseOverrideSet sparse2(m);
  sparse2.add_all(dense);
  EXPECT_EQ(sparse2.count(), dense.count());
  for (const auto& [i, j] : sparse2.pairs()) EXPECT_TRUE(dense.contains(i, j));
}

TEST(SparseOverrideSet, PairsAreSortedUnique) {
  SparseOverrideSet sparse(30);
  util::Rng rng(5);
  for (int k = 0; k < 500; ++k) {
    const int i = static_cast<int>(rng.below(29));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(29 - i)));
    sparse.set(i, j);
  }
  const auto pairs = sparse.pairs();
  for (std::size_t k = 1; k < pairs.size(); ++k)
    EXPECT_LT(pairs[k - 1], pairs[k]);
  EXPECT_EQ(static_cast<std::int64_t>(pairs.size()), sparse.count());
}

TEST(SparseOverrideSet, CompressionWinsAtRealisticDensity) {
  // After a realistic number of top alignments the sparse form is far
  // smaller than the dense bit triangle (the paper's compression remark).
  const int m = 4000;
  SparseOverrideSet sparse(m);
  util::Rng rng(9);
  // ~30 tops x ~300 pairs each.
  for (int k = 0; k < 9000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    sparse.set(i, j);
  }
  EXPECT_LT(sparse.bytes(), SparseOverrideSet::dense_bytes(m) / 5);
}

TEST(SparseOverrideSet, TailMergeStressConsistency) {
  // Push far past the merge threshold and verify against a std::set.
  const int m = 500;
  SparseOverrideSet sparse(m);
  std::set<std::pair<int, int>> ref;
  util::Rng rng(13);
  for (int k = 0; k < 6000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    sparse.set(i, j);
    ref.insert({i, j});
    if (k % 997 == 0) {
      const int qi = static_cast<int>(rng.below(m - 1));
      const int qj = qi + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - qi)));
      ASSERT_EQ(sparse.contains(qi, qj), ref.contains({qi, qj}));
    }
  }
  EXPECT_EQ(sparse.count(), static_cast<std::int64_t>(ref.size()));
}

}  // namespace
}  // namespace repro::align
