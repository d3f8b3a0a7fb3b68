// Tests for AMS-sort: correctness across PE counts, level counts, delivery
// algorithms and workloads; imbalance bounds from overpartitioning; level
// configuration (Table 1 rule).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ams/ams_sort.hpp"
#include "ams/level_config.hpp"
#include "harness/runner.hpp"

namespace pmps::ams {
namespace {

using harness::Algorithm;
using harness::RunConfig;
using harness::Workload;

TEST(LevelConfig, SingleLevelIsP) {
  EXPECT_EQ(level_group_counts(512, 1), (std::vector<int>{512}));
  EXPECT_EQ(level_group_counts(7, 1), (std::vector<int>{7}));
}

TEST(LevelConfig, ReproducesTable1TwoLevels) {
  // Table 1, k = 2: r1 = p/16, r2 = 16.
  EXPECT_EQ(level_group_counts(512, 2), (std::vector<int>{32, 16}));
  EXPECT_EQ(level_group_counts(2048, 2), (std::vector<int>{128, 16}));
  EXPECT_EQ(level_group_counts(8192, 2), (std::vector<int>{512, 16}));
  EXPECT_EQ(level_group_counts(32768, 2), (std::vector<int>{2048, 16}));
}

TEST(LevelConfig, ReproducesTable1ThreeLevels) {
  // Table 1, k = 3: {8,4,16}, {16,8,16}, {32,16,16}, {64,32,16}.
  EXPECT_EQ(level_group_counts(512, 3), (std::vector<int>{8, 4, 16}));
  EXPECT_EQ(level_group_counts(2048, 3), (std::vector<int>{16, 8, 16}));
  EXPECT_EQ(level_group_counts(8192, 3), (std::vector<int>{32, 16, 16}));
  EXPECT_EQ(level_group_counts(32768, 3), (std::vector<int>{64, 32, 16}));
}

TEST(LevelConfig, ProductAlwaysP) {
  for (int p : {4, 12, 16, 36, 60, 64, 100, 128, 256}) {
    for (int k : {1, 2, 3, 4}) {
      const auto rs = level_group_counts(p, k);
      std::int64_t prod = 1;
      for (int r : rs) prod *= r;
      EXPECT_EQ(prod, p) << "p=" << p << " k=" << k;
      for (int r : rs) EXPECT_GT(r, 1);
    }
  }
}

TEST(LevelConfig, MachineAdaptedSplitsAtHierarchyBoundaries) {
  const auto m = net::MachineParams::supermuc_like();  // node 16, island 8192
  // 4 islands → islands, nodes, cores.
  EXPECT_EQ(level_group_counts_for_machine(4 * 8192, m),
            (std::vector<int>{4, 512, 16}));
  // One island → nodes, cores.
  EXPECT_EQ(level_group_counts_for_machine(8192, m),
            (std::vector<int>{512, 16}));
  // Part of an island, multiple of node size → nodes, cores.
  EXPECT_EQ(level_group_counts_for_machine(256, m),
            (std::vector<int>{16, 16}));
  // Within a node → single level.
  EXPECT_EQ(level_group_counts_for_machine(8, m), (std::vector<int>{8}));
}

TEST(LevelConfig, MachineAdaptedFallsBackForOddSizes) {
  const auto m = net::MachineParams::supermuc_like();
  for (std::int64_t p : {12, 36, 100, 1000}) {
    const auto rs = level_group_counts_for_machine(p, m);
    std::int64_t prod = 1;
    for (int r : rs) prod *= r;
    EXPECT_EQ(prod, p) << p;
  }
}

TEST(LevelConfig, NearestDivisor) {
  EXPECT_EQ(nearest_divisor(12, 3), 3);
  EXPECT_EQ(nearest_divisor(12, 5), 4);
  EXPECT_EQ(nearest_divisor(7, 3), 1);  // prime: only 1 and 7
  EXPECT_EQ(nearest_divisor(7, 5), 7);
  EXPECT_EQ(nearest_divisor(36, 6), 6);
}

// ---------------------------------------------------------------------------

struct AmsCase {
  int p;
  int levels;
  std::int64_t n_per_pe;
  Workload workload;
  std::int32_t unused = 0;  ///< fills the tail padding
};
// gtest names each case by printing its raw bytes: padding bytes would put
// garbage into the name and make the CTest list differ from run to run.
static_assert(std::has_unique_object_representations_v<AmsCase>);

class AmsSortCorrectness : public ::testing::TestWithParam<AmsCase> {};

TEST_P(AmsSortCorrectness, SortsAndBalances) {
  const auto c = GetParam();
  RunConfig cfg;
  cfg.p = c.p;
  cfg.n_per_pe = c.n_per_pe;
  cfg.workload = c.workload;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = c.levels;
  cfg.seed = 12345;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.locally_sorted);
  EXPECT_TRUE(res.check.globally_ordered);
  EXPECT_TRUE(res.check.permutation_ok);
  EXPECT_EQ(res.check.total, c.p * c.n_per_pe);
  EXPECT_GT(res.wall_time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AmsSortCorrectness,
    ::testing::Values(
        AmsCase{1, 1, 1000, Workload::kUniform},
        AmsCase{4, 1, 500, Workload::kUniform},
        AmsCase{16, 1, 500, Workload::kUniform},
        AmsCase{16, 2, 500, Workload::kUniform},
        AmsCase{16, 2, 500, Workload::kSortedGlobal},
        AmsCase{16, 2, 500, Workload::kReverseGlobal},
        AmsCase{16, 2, 500, Workload::kAllEqual},
        AmsCase{16, 2, 500, Workload::kFewDistinct},
        AmsCase{16, 2, 500, Workload::kZipfLike},
        AmsCase{16, 2, 500, Workload::kGaussian},
        AmsCase{64, 2, 300, Workload::kUniform},
        AmsCase{64, 3, 300, Workload::kUniform},
        AmsCase{64, 3, 300, Workload::kFewDistinct},
        AmsCase{27, 3, 200, Workload::kUniform},   // non-power-of-two
        AmsCase{36, 2, 200, Workload::kUniform},
        AmsCase{128, 2, 100, Workload::kUniform}));

class AmsDelivery : public ::testing::TestWithParam<delivery::Algo> {};

TEST_P(AmsDelivery, AllDeliveryAlgorithmsSortCorrectly) {
  RunConfig cfg;
  cfg.p = 32;
  cfg.n_per_pe = 400;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = 2;
  cfg.ams.delivery = GetParam();
  cfg.seed = 7;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
}

INSTANTIATE_TEST_SUITE_P(Algos, AmsDelivery,
                         ::testing::Values(delivery::Algo::kSimple,
                                           delivery::Algo::kRandomized,
                                           delivery::Algo::kDeterministic,
                                           delivery::Algo::kAdvancedRandomized));

TEST(AmsSort, ParallelGroupingMatchesSequential) {
  for (bool parallel : {false, true}) {
    RunConfig cfg;
    cfg.p = 16;
    cfg.n_per_pe = 300;
    cfg.algorithm = Algorithm::kAms;
    cfg.ams.levels = 2;
    cfg.ams.parallel_grouping = parallel;
    cfg.seed = 99;
    const auto res = harness::run_sort_experiment(cfg);
    EXPECT_TRUE(res.check.ok()) << "parallel=" << parallel;
  }
}

TEST(AmsSort, OverpartitioningImprovesImbalance) {
  // Lemma 2: with b = Ω(1/ε), imbalance ε shrinks as b grows. Compare the
  // achieved first-level max group load for b = 1 vs b = 16.
  auto run_with_b = [&](int b) {
    RunConfig cfg;
    cfg.p = 64;
    cfg.n_per_pe = 2000;
    cfg.algorithm = Algorithm::kAms;
    cfg.ams.levels = 1;
    cfg.ams.overpartition_b = b;
    cfg.ams.oversampling_a = 1.0;
    cfg.seed = 5;
    const auto res = harness::run_sort_experiment(cfg);
    EXPECT_TRUE(res.check.ok());
    return res.check.imbalance;
  };
  const double imb1 = run_with_b(1);
  const double imb16 = run_with_b(16);
  EXPECT_LT(imb16, imb1);
  EXPECT_LT(imb16, 0.25);
}

TEST(AmsSort, ImbalanceBoundedWithDefaults) {
  RunConfig cfg;
  cfg.p = 64;
  cfg.n_per_pe = 2000;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = 2;
  cfg.seed = 31;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
  // b=16 default: ε ≈ 2/b per level → comfortably under 50% for two levels.
  EXPECT_LT(res.check.imbalance, 0.5);
}

TEST(AmsSort, StatsPopulatedPerLevel) {
  RunConfig cfg;
  cfg.p = 16;
  cfg.n_per_pe = 500;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = 2;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_EQ(res.ams_stats.sample_sizes.size(), 2u);
  EXPECT_EQ(res.ams_stats.max_group_load.size(), 2u);
  for (auto s : res.ams_stats.sample_sizes) EXPECT_GT(s, 0);
}

TEST(AmsSort, PhaseTimesAccumulate) {
  RunConfig cfg;
  cfg.p = 16;
  cfg.n_per_pe = 1000;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = 2;
  const auto res = harness::run_sort_experiment(cfg);
  using net::Phase;
  EXPECT_GT(res.phase(Phase::kSplitterSelection), 0.0);
  EXPECT_GT(res.phase(Phase::kBucketProcessing), 0.0);
  EXPECT_GT(res.phase(Phase::kDataDelivery), 0.0);
  EXPECT_GT(res.phase(Phase::kLocalSort), 0.0);
}

TEST(AmsSort, ExplicitGroupCounts) {
  RunConfig cfg;
  cfg.p = 24;
  cfg.n_per_pe = 300;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.group_counts = {3, 4, 2};
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
}

TEST(AmsSort, TinyInputPerPe) {
  // n/p smaller than the bucket count: the sample degrades gracefully.
  RunConfig cfg;
  cfg.p = 16;
  cfg.n_per_pe = 4;
  cfg.algorithm = Algorithm::kAms;
  cfg.ams.levels = 2;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.locally_sorted);
  EXPECT_TRUE(res.check.globally_ordered);
  EXPECT_TRUE(res.check.permutation_ok);
}

}  // namespace
}  // namespace pmps::ams
