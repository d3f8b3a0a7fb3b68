// Tests for the fast work-inefficient sorting / rank selection (§4.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/math.hpp"
#include "common/random.hpp"
#include "fastsort/fast_rank_sort.hpp"
#include "net/engine.hpp"

namespace pmps::fastsort {
namespace {

using net::Comm;
using net::Engine;
using net::MachineParams;

/// Five ranks spread over `total` elements.
std::vector<std::int64_t> five_ranks(std::int64_t total) {
  std::vector<std::int64_t> want;
  for (int i = 1; i <= 5; ++i) want.push_back(i * total / 6);
  want.erase(std::unique(want.begin(), want.end()), want.end());
  return want;
}

/// AMS's splitter ranks: the `buckets` − 1 equidistant ranks of a sample
/// of `total` elements (ams_level's `want`).
std::vector<std::int64_t> equidistant_ranks(std::int64_t total,
                                            std::int64_t buckets) {
  std::vector<std::int64_t> want;
  for (std::int64_t j = 1; j < buckets; ++j) want.push_back(j * total / buckets);
  return want;
}

/// Reference: gather all tagged elements, sort, take want_ranks. With
/// `every_column`, also checks that each column of the p = 2^P grid
/// (b = 2^⌊P/2⌋ columns) holds at least one wanted element, so that every
/// PE of every row contributes to the row gossip.
void check_selection(int p, std::int64_t n_per_pe, std::uint64_t value_range,
                     std::uint64_t seed, const std::vector<std::int64_t>& want,
                     bool every_column = false) {
  // Build the global reference input.
  std::vector<std::vector<std::uint64_t>> per_pe(static_cast<std::size_t>(p));
  std::vector<TaggedKey<std::uint64_t>> all;
  for (int pe = 0; pe < p; ++pe) {
    Xoshiro256 rng(seed, static_cast<std::uint64_t>(pe));
    for (std::int64_t i = 0; i < n_per_pe; ++i) {
      per_pe[static_cast<std::size_t>(pe)].push_back(rng.bounded(value_range));
    }
  }
  // fast_rank_select tags elements with their position in the *locally
  // sorted* order, so sort per PE first to build the reference.
  for (auto& v : per_pe) std::sort(v.begin(), v.end());
  for (int pe = 0; pe < p; ++pe)
    for (std::int64_t i = 0; i < n_per_pe; ++i)
      all.push_back(TaggedKey<std::uint64_t>{
          per_pe[static_cast<std::size_t>(pe)][static_cast<std::size_t>(i)],
          pe, i});
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a < b; });

  if (every_column) {
    const int b = 1 << (floor_log2(static_cast<std::uint64_t>(p)) / 2);
    std::vector<int> per_column(static_cast<std::size_t>(b), 0);
    for (const std::int64_t k : want)
      ++per_column[static_cast<std::size_t>(
          all[static_cast<std::size_t>(k)].pe % b)];
    for (int c = 0; c < b; ++c)
      EXPECT_GT(per_column[static_cast<std::size_t>(c)], 0) << "column " << c;
  }

  Engine engine(p, MachineParams::supermuc_like(), seed);
  std::mutex mu;
  int checked = 0;
  engine.run([&](Comm& comm) {
    const auto& mine = per_pe[static_cast<std::size_t>(comm.rank())];
    auto sel = fast_rank_select(
        comm, std::span<const std::uint64_t>(mine.data(), mine.size()), want);
    ASSERT_EQ(sel.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      const auto& expect = all[static_cast<std::size_t>(want[j])];
      EXPECT_EQ(sel[j].key, expect.key) << "rank " << want[j];
      EXPECT_EQ(sel[j].pe, expect.pe);
      EXPECT_EQ(sel[j].index, expect.index);
    }
    std::lock_guard lock(mu);
    ++checked;
  });
  EXPECT_EQ(checked, p);
}

class FastSortP : public ::testing::TestWithParam<int> {};

TEST_P(FastSortP, SelectsExactRanks) {
  check_selection(GetParam(), 20, 1ull << 60, 1, five_ranks(GetParam() * 20));
}

TEST_P(FastSortP, SelectsExactRanksWithDuplicates) {
  check_selection(GetParam(), 20, 7, 2, five_ranks(GetParam() * 20));
}

TEST_P(FastSortP, SelectsExactRanksAllEqual) {
  check_selection(GetParam(), 10, 1, 3, five_ranks(GetParam() * 10));
}

// Powers of two take the a×b grid path; others take the gather fallback.
INSTANTIATE_TEST_SUITE_P(GridAndFallback, FastSortP,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 16, 32, 64));

/// AMS's shape: b·r − 1 equidistant ranks, as many that every column of
/// the grid finds some, for p and the bucket count b·r.
struct AmsShape {
  int p;
  std::int32_t unused = 0;  ///< fills the padding after p
  std::int64_t buckets;
  std::int64_t n_per_pe;
};
// gtest names each case by printing its raw bytes: padding bytes would put
// garbage into the name and make the CTest list differ from run to run.
static_assert(std::has_unique_object_representations_v<AmsShape>);

class FastSortAmsShape : public ::testing::TestWithParam<AmsShape> {};

TEST_P(FastSortAmsShape, SelectsEveryColumnsSplitters) {
  const AmsShape c = GetParam();
  const auto want = equidistant_ranks(c.p * c.n_per_pe, c.buckets);
  check_selection(c.p, c.n_per_pe, 1ull << 60, 4, want, true);
}

TEST_P(FastSortAmsShape, SelectsEveryColumnsSplittersWithDuplicates) {
  const AmsShape c = GetParam();
  const auto want = equidistant_ranks(c.p * c.n_per_pe, c.buckets);
  check_selection(c.p, c.n_per_pe, 7, 5, want, true);
}

// 255 ranks at p = 16, 1023 at p = 64 and at p = 256.
INSTANTIATE_TEST_SUITE_P(Splitters, FastSortAmsShape,
                         ::testing::Values(
                             AmsShape{.p = 16, .buckets = 256, .n_per_pe = 64},
                             AmsShape{.p = 64, .buckets = 1024, .n_per_pe = 32},
                             AmsShape{.p = 256, .buckets = 1024,
                                      .n_per_pe = 16}),
                         [](const auto& info) {
                           return std::string("p").append(
                               std::to_string(info.param.p));
                         });

TEST(FastSort, UnevenLocalCounts) {
  const int p = 8;
  Engine engine(p, MachineParams::supermuc_like(), 4);
  engine.run([&](Comm& comm) {
    // PE i holds i elements: 0..i-1 plus offset.
    std::vector<std::uint64_t> mine;
    for (int i = 0; i < comm.rank(); ++i)
      mine.push_back(static_cast<std::uint64_t>(comm.rank() * 100 + i));
    const std::int64_t total = p * (p - 1) / 2;
    auto sel = fast_rank_select(
        comm, std::span<const std::uint64_t>(mine.data(), mine.size()),
        {0, total / 2, total - 1});
    // Global order is by key = rank*100+i, so rank 0 → key 100 (pe 1).
    EXPECT_EQ(sel[0].key, 100u);
    EXPECT_EQ(sel[2].key, 706u);  // largest: pe 7, i = 6
  });
}

TEST(FastSort, GridTimeScalesBetterThanGather) {
  // The grid algorithm's gossip moves O(n/√p) per PE vs O(n) for a full
  // gather; check the virtual-time advantage at p = 64.
  const int p = 64;
  const std::int64_t n_per_pe = 64;
  auto run_one = [&](bool force_fallback) {
    Engine engine(force_fallback ? p - 1 : p,
                  MachineParams::supermuc_like(), 5);
    engine.run([&](Comm& comm) {
      Xoshiro256 rng(5, static_cast<std::uint64_t>(comm.rank()));
      std::vector<std::uint64_t> mine(static_cast<std::size_t>(n_per_pe));
      for (auto& v : mine) v = rng();
      const std::int64_t total = comm.size() * n_per_pe;
      (void)fast_rank_select(
          comm, std::span<const std::uint64_t>(mine.data(), mine.size()),
          {total / 2});
    });
    return engine.report();
  };
  const auto grid = run_one(false);
  const auto fallback = run_one(true);
  // Grid moves strictly less data in total.
  EXPECT_LT(grid.total_bytes_sent, fallback.total_bytes_sent);
}

}  // namespace
}  // namespace pmps::fastsort
