// Tests for RLM-sort: correctness and its distinguishing property, perfect
// output balance (§5).

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "harness/runner.hpp"
#include "rlm/rlm_sort.hpp"

namespace pmps::rlm {
namespace {

using harness::Algorithm;
using harness::RunConfig;
using harness::Workload;

struct RlmCase {
  int p;
  int levels;
  std::int64_t n_per_pe;
  Workload workload;
  std::int32_t unused = 0;  ///< fills the tail padding
};
// gtest names each case by printing its raw bytes: padding bytes would put
// garbage into the name and make the CTest list differ from run to run.
static_assert(std::has_unique_object_representations_v<RlmCase>);

class RlmSortCorrectness : public ::testing::TestWithParam<RlmCase> {};

TEST_P(RlmSortCorrectness, SortsPerfectlyBalanced) {
  const auto c = GetParam();
  RunConfig cfg;
  cfg.p = c.p;
  cfg.n_per_pe = c.n_per_pe;
  cfg.workload = c.workload;
  cfg.algorithm = Algorithm::kRlm;
  cfg.rlm.levels = c.levels;
  cfg.seed = 4242;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.locally_sorted);
  EXPECT_TRUE(res.check.globally_ordered);
  EXPECT_TRUE(res.check.permutation_ok);
  // Perfect balance: max local count differs from n/p by < 1 chunk unit.
  // With n divisible by p the imbalance must be ~0.
  EXPECT_NEAR(res.check.imbalance, 0.0, 1e-9)
      << "RLM-sort must balance perfectly";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RlmSortCorrectness,
    ::testing::Values(
        RlmCase{1, 1, 1000, Workload::kUniform},
        RlmCase{4, 1, 500, Workload::kUniform},
        RlmCase{16, 1, 500, Workload::kUniform},
        RlmCase{16, 2, 500, Workload::kUniform},
        RlmCase{16, 2, 500, Workload::kSortedGlobal},
        RlmCase{16, 2, 500, Workload::kReverseGlobal},
        RlmCase{16, 2, 500, Workload::kAllEqual},
        RlmCase{16, 2, 500, Workload::kFewDistinct},
        RlmCase{16, 2, 500, Workload::kLocalSorted},
        RlmCase{64, 2, 300, Workload::kUniform},
        RlmCase{64, 3, 300, Workload::kUniform},
        RlmCase{27, 3, 200, Workload::kUniform},
        RlmCase{36, 2, 200, Workload::kZipfLike},
        RlmCase{128, 2, 100, Workload::kUniform}));

class RlmDelivery : public ::testing::TestWithParam<delivery::Algo> {};

TEST_P(RlmDelivery, AllDeliveryAlgorithmsWork) {
  RunConfig cfg;
  cfg.p = 32;
  cfg.n_per_pe = 400;
  cfg.algorithm = Algorithm::kRlm;
  cfg.rlm.levels = 2;
  cfg.rlm.delivery = GetParam();
  cfg.seed = 8;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
  EXPECT_NEAR(res.check.imbalance, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Algos, RlmDelivery,
                         ::testing::Values(delivery::Algo::kSimple,
                                           delivery::Algo::kRandomized,
                                           delivery::Algo::kDeterministic,
                                           delivery::Algo::kAdvancedRandomized));

TEST(RlmSort, UnevenInputStillPerfectlyBalancedOutput) {
  // PEs start with different input sizes; the output must still be an even
  // split of the total.
  net::Engine engine(8, net::MachineParams::supermuc_like(), 3);
  engine.run([&](net::Comm& comm) {
    Xoshiro256 rng(3, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::uint64_t> data(
        static_cast<std::size_t>(50 + 30 * comm.rank()));
    for (auto& v : data) v = rng();
    RlmConfig cfg;
    cfg.group_counts = {4, 2};
    rlm_sort(comm, data, cfg);
    const std::int64_t total = coll::allreduce_add_one(
        comm, static_cast<std::int64_t>(data.size()));
    const std::int64_t expect_lo = total / comm.size();
    EXPECT_GE(static_cast<std::int64_t>(data.size()), expect_lo);
    EXPECT_LE(static_cast<std::int64_t>(data.size()), expect_lo + 1);
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  });
}

TEST(RlmSort, PhaseTimesAccumulate) {
  RunConfig cfg;
  cfg.p = 16;
  cfg.n_per_pe = 1000;
  cfg.algorithm = Algorithm::kRlm;
  cfg.rlm.levels = 2;
  const auto res = harness::run_sort_experiment(cfg);
  using net::Phase;
  EXPECT_GT(res.phase(Phase::kSplitterSelection), 0.0);
  EXPECT_GT(res.phase(Phase::kBucketProcessing), 0.0);
  EXPECT_GT(res.phase(Phase::kDataDelivery), 0.0);
  EXPECT_GT(res.phase(Phase::kLocalSort), 0.0);
}

TEST(RlmSort, ExplicitGroupCounts) {
  RunConfig cfg;
  cfg.p = 24;
  cfg.n_per_pe = 300;
  cfg.algorithm = Algorithm::kRlm;
  cfg.rlm.group_counts = {2, 3, 4};
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
}

}  // namespace
}  // namespace pmps::rlm
