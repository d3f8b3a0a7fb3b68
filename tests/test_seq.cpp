// Tests for the sequential substrate: loser-tree multiway merge, branchless
// partitioning with Appendix-D tie breaking, Batcher networks, small sorts.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "seq/multiway_merge.hpp"
#include "seq/partition.hpp"
#include "seq/radix_sort.hpp"
#include "seq/small_sort.hpp"
#include "seq/sorting_network.hpp"

namespace pmps::seq {
namespace {

std::vector<std::vector<std::uint64_t>> random_runs(int k, int max_len,
                                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint64_t>> runs(static_cast<std::size_t>(k));
  for (auto& r : runs) {
    const auto len = rng.bounded(static_cast<std::uint64_t>(max_len + 1));
    for (std::uint64_t i = 0; i < len; ++i) r.push_back(rng.bounded(1000));
    std::sort(r.begin(), r.end());
  }
  return runs;
}

class MultiwayMerge : public ::testing::TestWithParam<int> {};

TEST_P(MultiwayMerge, MatchesSortedConcatenation) {
  const int k = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto runs = random_runs(k, 200, seed);
    std::vector<std::uint64_t> expect;
    for (const auto& r : runs) expect.insert(expect.end(), r.begin(), r.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(multiway_merge(runs), expect) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, MultiwayMerge,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 33,
                                           64, 100));

TEST(MultiwayMerge, EmptyRuns) {
  std::vector<std::vector<std::uint64_t>> runs(5);
  EXPECT_TRUE(multiway_merge(runs).empty());
  runs[2] = {1, 2, 3};
  EXPECT_EQ(multiway_merge(runs), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(MultiwayMerge, NoRuns) {
  std::vector<std::vector<std::uint64_t>> runs;
  EXPECT_TRUE(multiway_merge(runs).empty());
}

TEST(MultiwayMerge, StableAcrossRunsForTies) {
  // Ties must come out in run-index order (loser tree tie breaking).
  std::vector<std::vector<std::uint64_t>> runs = {{5, 5}, {5}, {5, 5}};
  std::vector<std::span<const std::uint64_t>> spans;
  for (auto& r : runs) spans.emplace_back(r.data(), r.size());
  LoserTree<std::uint64_t> tree(
      std::span<const std::span<const std::uint64_t>>(spans.data(),
                                                      spans.size()));
  std::vector<int> order;
  while (!tree.empty()) {
    order.push_back(tree.winner_run());
    tree.pop();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 2, 2}));
}

TEST(MultiwayMerge, BulkPopMatchesPopByOne) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto runs = random_runs(9, 300, seed);
    std::vector<std::span<const std::uint64_t>> spans;
    for (auto& r : runs) spans.emplace_back(r.data(), r.size());
    const std::span<const std::span<const std::uint64_t>> rs(spans.data(),
                                                             spans.size());
    LoserTree<std::uint64_t> one(rs);
    LoserTree<std::uint64_t> bulk(rs);
    std::vector<std::uint64_t> expect;
    while (!one.empty()) expect.push_back(one.pop());
    // Odd-sized chunks so bulk boundaries don't align with run boundaries.
    std::vector<std::uint64_t> got(expect.size());
    std::size_t at = 0;
    while (at < got.size()) {
      const auto chunk = std::min<std::size_t>(7, got.size() - at);
      EXPECT_EQ(bulk.pop_bulk(std::span<std::uint64_t>(got.data() + at, chunk)),
                static_cast<std::int64_t>(chunk));
      at += chunk;
    }
    EXPECT_EQ(bulk.pop_bulk(std::span<std::uint64_t>(got.data(), 1)), 0);
    EXPECT_TRUE(bulk.empty());
    EXPECT_EQ(got, expect) << "seed=" << seed;
  }
}

TEST(MultiwayMerge, BulkPopAllEqualKeysIsStable) {
  // All keys identical: bulk popping must emit runs in run-index order
  // (stability), exercising the tie-break path of every replay.
  using KV = std::pair<std::uint64_t, int>;  // (key, origin run)
  struct KeyLess {
    bool operator()(const KV& a, const KV& b) const {
      return a.first < b.first;
    }
  };
  std::vector<std::vector<KV>> runs;
  for (int r = 0; r < 6; ++r)
    runs.emplace_back(static_cast<std::size_t>(10 + r), KV{42, r});
  std::vector<std::span<const KV>> spans;
  for (auto& r : runs) spans.emplace_back(r.data(), r.size());
  LoserTree<KV, KeyLess> tree(
      std::span<const std::span<const KV>>(spans.data(), spans.size()));
  std::vector<KV> out(static_cast<std::size_t>(tree.size()));
  EXPECT_EQ(tree.pop_bulk(std::span<KV>(out.data(), out.size())),
            static_cast<std::int64_t>(out.size()));
  std::size_t at = 0;
  for (int r = 0; r < 6; ++r)
    for (std::size_t i = 0; i < runs[static_cast<std::size_t>(r)].size(); ++i)
      EXPECT_EQ(out[at++].second, r) << "position " << at - 1;
}

TEST(MultiwayMerge, BulkPopManyEmptyRuns) {
  // 64 runs, only three of them non-empty — exhausted-run sentinels dominate
  // every tournament.
  std::vector<std::vector<std::uint64_t>> runs(64);
  runs[5] = {1, 4, 9};
  runs[20] = {2, 2, 7};
  runs[63] = {0, 8};
  std::vector<std::span<const std::uint64_t>> spans;
  for (auto& r : runs) spans.emplace_back(r.data(), r.size());
  LoserTree<std::uint64_t> tree(
      std::span<const std::span<const std::uint64_t>>(spans.data(),
                                                      spans.size()));
  std::vector<std::uint64_t> out(8);
  EXPECT_EQ(tree.pop_bulk(std::span<std::uint64_t>(out.data(), out.size())), 8);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 2, 4, 7, 8, 9}));
  EXPECT_TRUE(tree.empty());
}

TEST(MultiwayMerge, LargeMerge) {
  auto runs = random_runs(31, 5000, 99);
  auto merged = multiway_merge(runs);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  EXPECT_EQ(merged.size(), total);
}

// ---------------------------------------------------------------------------

std::vector<TaggedKey<std::uint64_t>> make_splitters(
    std::vector<std::uint64_t> keys) {
  std::vector<TaggedKey<std::uint64_t>> sp;
  for (std::size_t i = 0; i < keys.size(); ++i)
    sp.push_back(TaggedKey<std::uint64_t>{keys[i], 0,
                                          static_cast<std::int64_t>(i)});
  return sp;
}

class PartitionBuckets : public ::testing::TestWithParam<int> {};

TEST_P(PartitionBuckets, RespectsSplitterOrder) {
  const int k = GetParam();  // number of buckets
  Xoshiro256 rng(static_cast<std::uint64_t>(k) + 17);
  std::vector<std::uint64_t> input(1000);
  for (auto& v : input) v = rng.bounded(10000);
  std::vector<std::uint64_t> keys;
  for (int i = 1; i < k; ++i)
    keys.push_back(static_cast<std::uint64_t>(i) * 10000 /
                   static_cast<std::uint64_t>(k));
  auto cls = BucketClassifier<std::uint64_t>(make_splitters(keys));
  auto part = partition_into_buckets(
      std::span<const std::uint64_t>(input.data(), input.size()), 1, cls);

  ASSERT_EQ(static_cast<int>(part.sizes.size()), k);
  std::int64_t total = 0;
  for (auto s : part.sizes) total += s;
  EXPECT_EQ(total, static_cast<std::int64_t>(input.size()));

  // Every element in bucket b must be ≥ splitter b−1 and ≤ splitter b (keys).
  for (int b = 0; b < k; ++b) {
    for (std::int64_t i = part.offsets[static_cast<std::size_t>(b)];
         i < part.offsets[static_cast<std::size_t>(b)] +
                 part.sizes[static_cast<std::size_t>(b)];
         ++i) {
      const auto v = part.elements[static_cast<std::size_t>(i)];
      if (b > 0) {
        EXPECT_GE(v, keys[static_cast<std::size_t>(b - 1)]);
      }
      if (b < k - 1) {
        EXPECT_LE(v, keys[static_cast<std::size_t>(b)]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, PartitionBuckets,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 31, 64, 100));

TEST(PartitionBuckets, MatchesBruteForceClassification) {
  // Splitter counts on both sides of the padded tree's powers of two, with
  // about two splitters per key, and elements whose tags interleave with
  // the splitters' (even indices for splitters, odd for elements), so that
  // elements equal to a splitter key land on both sides of it.
  for (const int count : {1, 2, 3, 7, 8, 9, 255, 256, 4095}) {
    Xoshiro256 rng(5 + static_cast<std::uint64_t>(count));
    const auto keys = static_cast<std::uint64_t>(count / 2 + 2);
    std::vector<TaggedKey<std::uint64_t>> sp;
    for (int j = 0; j < count; ++j)
      sp.push_back({rng.bounded(keys), 0,
                    2 * static_cast<std::int64_t>(rng.bounded(1000))});
    std::sort(sp.begin(), sp.end());
    auto cls = BucketClassifier<std::uint64_t>(sp);
    for (std::int64_t i = 0; i < 2000; ++i) {
      const std::uint64_t v = rng.bounded(keys + 2);
      const std::int64_t index = 2 * (i % 1000) + 1;
      const int b = cls.classify(v, 0, index);
      // brute force: count splitters tagged-less than (v, 0, index)
      const TaggedKey<std::uint64_t> tx{v, 0, index};
      int expect = 0;
      for (const auto& ts : sp)
        if (ts < tx) ++expect;
      ASSERT_EQ(b, expect) << "splitters=" << count << " v=" << v
                           << " index=" << index;
    }
  }
}

TEST(PartitionBuckets, AllEqualKeysSplitByTags) {
  // All elements equal to all splitters: the tagged comparison must spread
  // them across buckets rather than piling into one (Appendix D).
  std::vector<std::uint64_t> input(100, 7);
  // Splitters with the same key but increasing tags.
  std::vector<TaggedKey<std::uint64_t>> sp;
  sp.push_back({7, 0, 25});
  sp.push_back({7, 0, 50});
  sp.push_back({7, 0, 75});
  auto cls = BucketClassifier<std::uint64_t>(sp);
  auto part = partition_into_buckets(
      std::span<const std::uint64_t>(input.data(), input.size()), 0, cls);
  // Elements with index < 25 are tagged-less than splitter (7,0,25) → bucket
  // 0, etc.: exact quarters.
  EXPECT_EQ(part.sizes, (std::vector<std::int64_t>{25, 25, 25, 25}));
}

TEST(PartitionBuckets, StripClassificationMatchesScalar) {
  // The strip descent must agree with the per-element descent everywhere,
  // including duplicate keys that hit the Appendix-D tie-break loop and a
  // final partial strip.
  using Cls = BucketClassifier<std::uint64_t>;
  for (int k : {2, 3, 16, 33, 100}) {
    Xoshiro256 rng(static_cast<std::uint64_t>(k) * 31 + 1);
    std::vector<std::uint64_t> keys;
    for (int i = 1; i < k; ++i) keys.push_back(rng.bounded(64));  // many dups
    std::sort(keys.begin(), keys.end());
    const auto cls = Cls(make_splitters(keys));
    std::vector<std::uint64_t> input(Cls::kStrip * 5 + 3);
    for (auto& v : input) v = rng.bounded(64);

    std::vector<std::int32_t> strip(input.size());
    std::int64_t done = 0;
    const auto n = static_cast<std::int64_t>(input.size());
    for (; done < n; done += Cls::kStrip) {
      const int count = static_cast<int>(std::min<std::int64_t>(
          Cls::kStrip, n - done));
      cls.classify_strip(input.data() + done, count, /*pe=*/3, done,
                         strip.data() + done);
    }
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(strip[static_cast<std::size_t>(i)],
                cls.classify(input[static_cast<std::size_t>(i)], 3, i))
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(PartitionBuckets, SingleSplitter) {
  std::vector<std::uint64_t> input{1, 5, 9, 5, 0};
  auto cls = BucketClassifier<std::uint64_t>(make_splitters({5}));
  auto part = partition_into_buckets(
      std::span<const std::uint64_t>(input.data(), input.size()), 1, cls);
  EXPECT_EQ(part.sizes[0] + part.sizes[1], 5);
  // 1 and 0 strictly below; 9 strictly above; the 5s go right of the
  // splitter (their PE tag 1 > splitter PE tag 0).
  EXPECT_EQ(part.sizes[0], 2);
  EXPECT_EQ(part.sizes[1], 3);
}

// ---------------------------------------------------------------------------

TEST(SortingNetwork, ZeroOnePrinciple) {
  // A comparator network sorts all inputs iff it sorts all 0-1 inputs.
  for (std::int64_t n : {2, 4, 8, 16}) {
    const auto net = odd_even_mergesort_network(n);
    for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
      std::vector<int> v(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        v[static_cast<std::size_t>(i)] = (mask >> i) & 1;
      apply_network(std::span<int>(v.data(), v.size()),
                    std::span<const Comparator>(net.data(), net.size()));
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << "n=" << n
                                                      << " mask=" << mask;
    }
  }
}

TEST(SortingNetwork, MergeNetworkMergesHalves) {
  const std::int64_t n = 16;
  const auto net = odd_even_merge_network(n);
  Xoshiro256 rng(13);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.bounded(100);
    std::sort(v.begin(), v.begin() + n / 2);
    std::sort(v.begin() + n / 2, v.end());
    apply_network(std::span<std::uint64_t>(v.data(), v.size()),
                  std::span<const Comparator>(net.data(), net.size()));
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
}

class NetworkSortSizes : public ::testing::TestWithParam<int> {};

TEST_P(NetworkSortSizes, SortsArbitrarySizes) {
  const int n = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(n));
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.bounded(1000);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  network_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkSortSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 17, 31, 32,
                                           100, 255, 256));

// ---------------------------------------------------------------------------

TEST(SmallSort, InsertionSortMatchesStdSort) {
  Xoshiro256 rng(77);
  for (int n = 0; n <= 64; ++n) {
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.bounded(50);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    insertion_sort(std::span<std::uint64_t>(v.data(), v.size()));
    EXPECT_EQ(v, expect) << "n=" << n;
  }
}

TEST(SmallSort, LocalSortLargeInput) {
  Xoshiro256 rng(78);
  std::vector<std::uint64_t> v(10000);
  for (auto& x : v) x = rng();
  local_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// ---------------------------------------------------------------------------

class RadixSortSizes : public ::testing::TestWithParam<int> {};

TEST_P(RadixSortSizes, MatchesStdSortU64) {
  const int n = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(n) + 5);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  radix_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortSizes,
                         ::testing::Values(0, 1, 2, 3, 17, 255, 256, 257,
                                           1000, 65536));

TEST(RadixSort, SmallValueRangeSkipsPasses) {
  // Values fit in one byte: the implementation must still be correct (and
  // internally skips the 7 all-zero digit passes).
  Xoshiro256 rng(6);
  std::vector<std::uint64_t> v(5000);
  for (auto& x : v) x = rng.bounded(200);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  radix_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
}

TEST(RadixSort, U32AndU16) {
  Xoshiro256 rng(7);
  std::vector<std::uint32_t> a(3000);
  for (auto& x : a) x = static_cast<std::uint32_t>(rng());
  radix_sort(std::span<std::uint32_t>(a.data(), a.size()));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

  std::vector<std::uint16_t> b(3000);
  for (auto& x : b) x = static_cast<std::uint16_t>(rng());
  radix_sort(std::span<std::uint16_t>(b.data(), b.size()));
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(RadixSort, AlreadySortedAndReverse) {
  std::vector<std::uint64_t> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 7;
  auto expect = v;
  radix_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
  std::reverse(v.begin(), v.end());
  radix_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
}

TEST(SmallSort, LocalSortDispatchesToRadixAboveThreshold) {
  // Behavioural check only: result identical to std::sort either way.
  Xoshiro256 rng(8);
  std::vector<std::uint64_t> v(kRadixSortThreshold * 2);
  for (auto& x : v) x = rng();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  local_sort(std::span<std::uint64_t>(v.data(), v.size()));
  EXPECT_EQ(v, expect);
}

}  // namespace
}  // namespace pmps::seq
