// Tests for bucket grouping (§6, Lemma 1, Appendix C): the scanning
// algorithm, optimality of the binary search variants, and the parallel
// search.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "grouping/bucket_grouping.hpp"
#include "net/engine.hpp"

namespace pmps::grouping {
namespace {

std::vector<std::int64_t> random_buckets(int n, std::uint64_t max_size,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int64_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<std::int64_t>(rng.bounded(max_size + 1));
  return b;
}

/// Checks that a grouping result is a valid consecutive partition with the
/// claimed max load.
void check_valid(const std::vector<std::int64_t>& buckets, int r,
                 const GroupingResult& res) {
  ASSERT_EQ(static_cast<int>(res.group_first.size()), r);
  EXPECT_EQ(res.group_first[0], 0);
  std::int64_t max_load = 0;
  for (int g = 0; g < r; ++g) {
    const std::int64_t from = res.group_first[static_cast<std::size_t>(g)];
    const std::int64_t to =
        g + 1 < r ? res.group_first[static_cast<std::size_t>(g + 1)]
                  : static_cast<std::int64_t>(buckets.size());
    ASSERT_LE(from, to);
    std::int64_t load = 0;
    for (std::int64_t i = from; i < to; ++i)
      load += buckets[static_cast<std::size_t>(i)];
    max_load = std::max(max_load, load);
  }
  EXPECT_EQ(max_load, res.max_load);
}

struct Case {
  int buckets;
  int r;
  std::uint64_t max_size;
  std::uint64_t seed;
};

class GroupingOptimality : public ::testing::TestWithParam<Case> {};

TEST_P(GroupingOptimality, NaiveOptimalAndBruteForceAgree) {
  const auto c = GetParam();
  auto buckets = random_buckets(c.buckets, c.max_size, c.seed);
  // Ensure nonzero total.
  buckets[0] += 1;
  const auto naive = group_buckets_naive(buckets, c.r);
  const auto fast = group_buckets_optimal(buckets, c.r);
  const auto brute = group_buckets_bruteforce(buckets, c.r);
  EXPECT_EQ(naive.max_load, brute.max_load);
  EXPECT_EQ(fast.max_load, brute.max_load);
  check_valid(buckets, c.r, naive);
  check_valid(buckets, c.r, fast);
  check_valid(buckets, c.r, brute);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GroupingOptimality,
    ::testing::Values(Case{1, 1, 100, 1}, Case{5, 2, 100, 2},
                      Case{16, 4, 1000, 3}, Case{16, 4, 3, 4},
                      Case{32, 8, 50, 5}, Case{33, 7, 50, 6},
                      Case{64, 16, 1000, 7}, Case{64, 16, 1, 8},
                      Case{100, 10, 10000, 9}, Case{128, 16, 7, 10},
                      Case{12, 12, 100, 11}, Case{12, 20, 100, 12}));

TEST(Grouping, FewerBucketsThanGroups) {
  std::vector<std::int64_t> buckets{10, 20, 30};
  const auto res = group_buckets_optimal(buckets, 8);
  check_valid(buckets, 8, res);
  EXPECT_EQ(res.max_load, 30);  // each bucket its own group
}

TEST(Grouping, SingleGroupTakesAll) {
  std::vector<std::int64_t> buckets{5, 5, 5, 5};
  const auto res = group_buckets_optimal(buckets, 1);
  EXPECT_EQ(res.max_load, 20);
}

TEST(Grouping, AllZeroBuckets) {
  std::vector<std::int64_t> buckets(10, 0);
  const auto res = group_buckets_optimal(buckets, 4);
  EXPECT_EQ(res.max_load, 0);
  check_valid(buckets, 4, res);
}

TEST(Grouping, OneHugeBucket) {
  std::vector<std::int64_t> buckets{1, 1, 1000, 1, 1};
  const auto res = group_buckets_optimal(buckets, 3);
  EXPECT_EQ(res.max_load, 1000);  // unavoidable
  check_valid(buckets, 3, res);
}

TEST(Grouping, GroupOfMapsBucketsToGroups) {
  std::vector<std::int64_t> buckets{10, 10, 10, 10};
  const auto res = group_buckets_optimal(buckets, 2);
  EXPECT_EQ(res.group_of(0), 0);
  EXPECT_EQ(res.group_of(3), 1);
  for (std::int64_t b = 0; b + 1 < 4; ++b)
    EXPECT_LE(res.group_of(b), res.group_of(b + 1));
}

TEST(Grouping, AcceleratedNeedsFewerScansOnLargeInputs) {
  auto buckets = random_buckets(512, 1000, 42);
  buckets[0] += 1;
  const auto naive = group_buckets_naive(buckets, 32);
  const auto fast = group_buckets_optimal(buckets, 32);
  EXPECT_EQ(naive.max_load, fast.max_load);
  EXPECT_LE(fast.scans, naive.scans);
}

TEST(Grouping, ParallelMatchesSequential) {
  for (int p : {1, 2, 4, 8, 16}) {
    auto buckets = random_buckets(64, 500, 21);
    buckets[0] += 1;
    const auto expect = group_buckets_optimal(buckets, 8);
    net::Engine engine(p, net::MachineParams::supermuc_like(), 1);
    engine.run([&](net::Comm& comm) {
      const auto res = group_buckets_parallel(comm, buckets, 8);
      EXPECT_EQ(res.max_load, expect.max_load);
      ASSERT_EQ(res.group_first.size(), expect.group_first.size());
    });
  }
}

TEST(Grouping, ParallelUsesFewIterations) {
  // Appendix C: with p PEs probing per iteration, convergence is
  // log_{p+1}(candidates); at p = 64 over 256 buckets a handful of scans
  // per PE suffices.
  auto buckets = random_buckets(256, 1000, 33);
  buckets[0] += 1;
  net::Engine engine(64, net::MachineParams::supermuc_like(), 1);
  engine.run([&](net::Comm& comm) {
    const auto res = group_buckets_parallel(comm, buckets, 16);
    EXPECT_LE(res.scans, 12);
  });
}

class RelevantRanges : public ::testing::TestWithParam<Case> {};

TEST_P(RelevantRanges, MatchesGeneralOptimal) {
  const auto c = GetParam();
  auto buckets = random_buckets(c.buckets, c.max_size, c.seed);
  buckets[0] += 1;
  const auto expect = group_buckets_optimal(buckets, c.r);
  const auto fast = group_buckets_relevant_ranges(buckets, c.r);
  EXPECT_EQ(fast.max_load, expect.max_load);
  check_valid(buckets, c.r, fast);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RelevantRanges,
    ::testing::Values(Case{16, 4, 1000, 13}, Case{64, 8, 100, 14},
                      Case{128, 16, 7, 15}, Case{100, 10, 10000, 16},
                      Case{256, 16, 50, 17}, Case{33, 3, 1000, 18},
                      Case{5, 2, 100, 19}, Case{12, 12, 100, 20}));

TEST(RelevantRangesSearch, FallsBackWhenOptimumOutsideWindow) {
  // One huge bucket forces L far above (2/r)·total — window misses it and
  // the fallback must kick in and still be optimal.
  std::vector<std::int64_t> buckets{1, 1, 1000, 1, 1, 1, 1, 1};
  const auto res = group_buckets_relevant_ranges(buckets, 4);
  EXPECT_EQ(res.max_load, group_buckets_optimal(buckets, 4).max_load);
}

TEST(RelevantRangesSearch, BalancedBucketsUseWindow) {
  // Well-sampled buckets: the optimum sits near total/r, inside the window.
  Xoshiro256 rng(3);
  std::vector<std::int64_t> buckets(128);
  for (auto& b : buckets) b = 50 + static_cast<std::int64_t>(rng.bounded(20));
  const auto fast = group_buckets_relevant_ranges(buckets, 8);
  const auto naive = group_buckets_naive(buckets, 8);
  EXPECT_EQ(fast.max_load, naive.max_load);
  EXPECT_LT(fast.scans, naive.scans);
}

// --- the prefix-sum scan against the bucket-by-bucket greedy -------------

/// Reference: the scanning algorithm of §6 as stated, one bucket at a
/// time.
detail::ScanOutcome reference_scan(std::span<const std::int64_t> buckets,
                                   int r, std::int64_t limit) {
  detail::ScanOutcome out;
  out.group_first.push_back(0);
  std::int64_t load = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::int64_t b = buckets[i];
    if (b > limit) {
      out.min_overflow = std::min(out.min_overflow, b);
      return out;
    }
    if (load + b > limit) {
      out.min_overflow = std::min(out.min_overflow, load + b);
      out.largest_group = std::max(out.largest_group, load);
      if (static_cast<int>(out.group_first.size()) == r) return out;
      out.group_first.push_back(static_cast<std::int64_t>(i));
      load = 0;
    }
    load += b;
  }
  out.largest_group = std::max(out.largest_group, load);
  out.feasible = true;
  while (static_cast<int>(out.group_first.size()) < r)
    out.group_first.push_back(static_cast<std::int64_t>(buckets.size()));
  return out;
}

/// group_buckets_optimal's search (Appendix C), run on reference_scan.
GroupingResult reference_optimal(std::span<const std::int64_t> buckets,
                                 int r) {
  std::int64_t tot = 0, largest = 0;
  for (const auto b : buckets) {
    tot += b;
    largest = std::max(largest, b);
  }
  std::int64_t lo = std::max(largest, (tot + r - 1) / r);
  std::int64_t hi = tot;
  GroupingResult res;
  res.max_load = -1;
  while (lo <= hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    auto sc = reference_scan(buckets, r, mid);
    ++res.scans;
    if (sc.feasible) {
      res.max_load = sc.largest_group;
      res.group_first = std::move(sc.group_first);
      hi = sc.largest_group - 1;
    } else {
      lo = sc.min_overflow;
    }
  }
  return res;
}

/// Random bucket vectors of four kinds (uniform, mostly zeros, one huge
/// bucket, all zeros), with B from 1 to 300 and r from 1 to 64, so that
/// B < r occurs too.
std::vector<std::int64_t> scan_case(std::uint64_t seed, int& r) {
  Xoshiro256 rng(seed, 99);
  const int B = 1 + static_cast<int>(rng.bounded(300));
  r = 1 + static_cast<int>(rng.bounded(64));
  std::vector<std::int64_t> buckets(static_cast<std::size_t>(B), 0);
  switch (seed % 4) {
    case 0:
      for (auto& b : buckets) b = static_cast<std::int64_t>(rng.bounded(1000));
      break;
    case 1:
      for (auto& b : buckets)
        b = rng.bounded(4) == 0 ? static_cast<std::int64_t>(rng.bounded(50))
                                : 0;
      break;
    case 2:
      for (auto& b : buckets) b = static_cast<std::int64_t>(rng.bounded(20));
      buckets[rng.bounded(buckets.size())] = 100000;
      break;
    default:
      break;  // all zeros
  }
  return buckets;
}

TEST(GroupingScan, PrefixScanMatchesBucketByBucketGreedy) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    int r = 0;
    const auto buckets = scan_case(seed, r);
    const auto prefix = detail::prefix_sums(buckets);
    const std::int64_t tot = prefix.back();
    const std::int64_t largest = detail::max_bucket(buckets);
    // Limits from the largest bucket up to the total, both ends included,
    // plus a few below the largest bucket (infeasible at once).
    Xoshiro256 rng(seed, 7);
    std::vector<std::int64_t> limits{largest, tot, 0, largest / 2,
                                     std::max<std::int64_t>(largest - 1, 0)};
    for (int i = 0; i < 40; ++i)
      limits.push_back(largest + static_cast<std::int64_t>(rng.bounded(
                                     static_cast<std::uint64_t>(tot - largest) + 1)));
    for (const std::int64_t limit : limits) {
      const auto fast = detail::scan(prefix, r, limit);
      const auto ref = reference_scan(buckets, r, limit);
      const std::string where = "seed=" + std::to_string(seed) +
                                " B=" + std::to_string(buckets.size()) +
                                " r=" + std::to_string(r) +
                                " limit=" + std::to_string(limit);
      ASSERT_EQ(fast.feasible, ref.feasible) << where;
      ASSERT_EQ(fast.group_first, ref.group_first) << where;
      ASSERT_EQ(fast.largest_group, ref.largest_group) << where;
      ASSERT_EQ(fast.min_overflow, ref.min_overflow) << where;
    }
  }
}

TEST(GroupingScan, OptimalSearchMakesTheSameScans) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    int r = 0;
    const auto buckets = scan_case(seed, r);
    const auto fast = group_buckets_optimal(buckets, r);
    const auto ref = reference_optimal(buckets, r);
    ASSERT_EQ(fast.max_load, ref.max_load) << "seed=" << seed;
    ASSERT_EQ(fast.group_first, ref.group_first) << "seed=" << seed;
    ASSERT_EQ(fast.scans, ref.scans) << "seed=" << seed;
  }
}

TEST(Grouping, ScanningBoundMatchesLemma2Shape) {
  // With b·r buckets of a random partition, the optimal L should be close
  // to n/r: generous sampling keeps imbalance small (Lemma 2 regime).
  const int r = 8, b = 16;
  Xoshiro256 rng(55);
  // br buckets from n = 1e6 elements split at random splitters.
  std::vector<std::int64_t> buckets(static_cast<std::size_t>(b * r), 0);
  const std::int64_t n = 1000000;
  for (int i = 0; i < 200000; ++i)
    buckets[static_cast<std::size_t>(rng.bounded(static_cast<std::uint64_t>(b * r)))] += n / 200000;
  std::int64_t total = 0;
  for (auto v : buckets) total += v;
  const auto res = group_buckets_optimal(buckets, r);
  const double imbalance =
      static_cast<double>(res.max_load) /
          (static_cast<double>(total) / static_cast<double>(r)) -
      1.0;
  EXPECT_LT(imbalance, 0.2);
}

}  // namespace
}  // namespace pmps::grouping
