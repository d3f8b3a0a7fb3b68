// Tests for multisequence selection (§4.1): exact rank splits across
// distributed sorted sequences, including duplicate-heavy inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/random.hpp"
#include "net/engine.hpp"
#include "select/multiselect.hpp"

namespace pmps::select {
namespace {

using net::Comm;
using net::Engine;
using net::MachineParams;

/// Runs multiselect on p PEs over generated local sorted data and checks:
/// positions sum to the rank, and max(left) ≤ min(right) globally.
void check_multiselect(int p, std::int64_t n_per_pe,
                       const std::vector<std::int64_t>& ranks,
                       std::uint64_t value_range, std::uint64_t seed) {
  Engine engine(p, MachineParams::supermuc_like(), seed);
  std::mutex mu;
  std::vector<std::vector<std::uint64_t>> datasets(static_cast<std::size_t>(p));
  std::vector<std::vector<std::int64_t>> positions(static_cast<std::size_t>(p));

  engine.run([&](Comm& comm) {
    Xoshiro256 rng(seed, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::uint64_t> data(static_cast<std::size_t>(n_per_pe));
    for (auto& v : data) v = rng.bounded(value_range);
    std::sort(data.begin(), data.end());
    auto res = multiselect(
        comm, std::span<const std::uint64_t>(data.data(), data.size()), ranks);
    std::lock_guard lock(mu);
    datasets[static_cast<std::size_t>(comm.rank())] = std::move(data);
    positions[static_cast<std::size_t>(comm.rank())] =
        std::move(res.split_positions);
  });

  for (std::size_t j = 0; j < ranks.size(); ++j) {
    std::int64_t sum = 0;
    std::uint64_t max_left = 0;
    std::uint64_t min_right = ~0ull;
    bool has_left = false, has_right = false;
    for (int pe = 0; pe < p; ++pe) {
      const auto pos = positions[static_cast<std::size_t>(pe)][j];
      const auto& d = datasets[static_cast<std::size_t>(pe)];
      ASSERT_GE(pos, 0);
      ASSERT_LE(pos, static_cast<std::int64_t>(d.size()));
      sum += pos;
      if (pos > 0) {
        has_left = true;
        max_left = std::max(max_left, d[static_cast<std::size_t>(pos - 1)]);
      }
      if (pos < static_cast<std::int64_t>(d.size())) {
        has_right = true;
        min_right = std::min(min_right, d[static_cast<std::size_t>(pos)]);
      }
    }
    EXPECT_EQ(sum, ranks[j]) << "rank index " << j;
    if (has_left && has_right) {
      EXPECT_LE(max_left, min_right) << "rank index " << j;
    }
  }

  // Positions must be monotone across ranks on every PE.
  for (int pe = 0; pe < p; ++pe) {
    const auto& pos = positions[static_cast<std::size_t>(pe)];
    EXPECT_TRUE(std::is_sorted(pos.begin(), pos.end())) << "pe " << pe;
  }
}

// gtest prints a Case as its raw bytes, and CTest names each case by that
// print, so Case must have no padding: padding bytes are indeterminate and
// would give the case a different name on every run. Hence a 64-bit p.
struct Case {
  std::int64_t p;
  std::int64_t n_per_pe;
  std::uint64_t value_range;  // small ranges stress duplicates
};
static_assert(sizeof(Case) == 3 * sizeof(std::int64_t));

class MultiselectP : public ::testing::TestWithParam<Case> {};

TEST_P(MultiselectP, MedianRank) {
  const auto c = GetParam();
  const std::int64_t total = c.p * c.n_per_pe;
  check_multiselect(static_cast<int>(c.p), c.n_per_pe, {total / 2},
                    c.value_range, 1);
}

TEST_P(MultiselectP, ManySimultaneousRanks) {
  const auto c = GetParam();
  const std::int64_t total = c.p * c.n_per_pe;
  std::vector<std::int64_t> ranks;
  for (int i = 1; i < 8; ++i) ranks.push_back(i * total / 8);
  check_multiselect(static_cast<int>(c.p), c.n_per_pe, ranks, c.value_range,
                    2);
}

TEST_P(MultiselectP, ExtremeRanks) {
  const auto c = GetParam();
  const std::int64_t total = c.p * c.n_per_pe;
  check_multiselect(static_cast<int>(c.p), c.n_per_pe,
                    {0, 1, total - 1, total}, c.value_range, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MultiselectP,
    ::testing::Values(Case{1, 100, 1000}, Case{2, 50, 10},
                      Case{4, 200, 1ull << 60}, Case{7, 33, 100},
                      Case{8, 125, 5},  // heavy duplicates
                      Case{16, 64, 2},  // almost all equal
                      Case{16, 200, 1ull << 60}, Case{32, 40, 1000}));

TEST(Multiselect, AllEqualInput) {
  // Every element identical: split positions must still sum exactly.
  check_multiselect(8, 100, {0, 100, 400, 800}, 1, 4);
}

TEST(Multiselect, EmptySequencesOnSomePes) {
  const int p = 4;
  Engine engine(p, MachineParams::supermuc_like(), 9);
  std::mutex mu;
  std::int64_t sum = 0;
  engine.run([&](Comm& comm) {
    // Only even ranks have data.
    std::vector<std::uint64_t> data;
    if (comm.rank() % 2 == 0)
      for (int i = 0; i < 10; ++i)
        data.push_back(static_cast<std::uint64_t>(comm.rank() * 10 + i));
    auto res = multiselect(
        comm, std::span<const std::uint64_t>(data.data(), data.size()), {7});
    std::lock_guard lock(mu);
    sum += res.split_positions[0];
  });
  EXPECT_EQ(sum, 7);
}

TEST(Multiselect, NoRanksIsNoop) {
  Engine engine(4, MachineParams::supermuc_like(), 9);
  engine.run([&](Comm& comm) {
    std::vector<std::uint64_t> data{1, 2, 3};
    auto res = multiselect(
        comm, std::span<const std::uint64_t>(data.data(), data.size()), {});
    EXPECT_TRUE(res.split_positions.empty());
  });
}

}  // namespace
}  // namespace pmps::select
