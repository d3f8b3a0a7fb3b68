// Contract tests: invalid API usage must fail loudly (PMPS_CHECK aborts),
// and communicator isolation invariants hold under concurrent traffic.

#include <gtest/gtest.h>

#include <vector>

#include "ams/ams_sort.hpp"
#include "baseline/block_bitonic.hpp"
#include "baseline/hypercube_quicksort.hpp"
#include "coll/collectives.hpp"
#include "delivery/delivery.hpp"
#include "fastsort/fast_rank_sort.hpp"
#include "harness/runner.hpp"
#include "net/engine.hpp"

namespace pmps {
namespace {

using net::Comm;
using net::Engine;
using net::MachineParams;

TEST(ContractDeath, HypercubeQuicksortRejectsNonPowerOfTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(6, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          std::vector<std::uint64_t> data{1, 2, 3};
          baseline::hypercube_quicksort(comm, data);
        });
      },
      "power-of-two");
}

TEST(ContractDeath, BlockBitonicRejectsUnequalBlocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(4, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          std::vector<std::uint64_t> data(
              static_cast<std::size_t>(comm.rank() + 1), 7);
          baseline::block_bitonic_sort(comm, data);
        });
      },
      "equal block sizes");
}

TEST(ContractDeath, AmsRejectsMismatchedGroupCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(8, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          std::vector<std::uint64_t> data{1, 2, 3};
          ams::AmsConfig cfg;
          cfg.group_counts = {3, 2};  // 6 != 8
          ams::ams_sort(comm, data, cfg);
        });
      },
      "multiply to p");
}

TEST(ContractDeath, Record100RejectsKeyOnlySorters) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto algo :
       {harness::Algorithm::kSampleSort1L, harness::Algorithm::kMergesort1L,
        harness::Algorithm::kMpSortLike,
        harness::Algorithm::kHypercubeQuicksort,
        harness::Algorithm::kBlockBitonic}) {
    harness::RunConfig cfg;
    cfg.p = 4;
    cfg.n_per_pe = 16;
    cfg.element = harness::ElementKind::kRecord100;
    cfg.algorithm = algo;
    EXPECT_DEATH((void)harness::run_sort_experiment(cfg),
                 "Record100 workloads support kAms/kRlm/kGvSampleSort")
        << harness::algorithm_name(algo);
  }
}

TEST(ContractDeath, DeliveryRejectsSizeMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(4, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          std::vector<std::uint64_t> data(10, 1);
          std::vector<std::int64_t> sizes{3, 3};  // sums to 6, not 10
          (void)delivery::deliver(
              comm, std::span<const std::uint64_t>(data.data(), data.size()),
              sizes, delivery::Algo::kSimple, 1);
        });
      },
      "");
}

TEST(ContractDeath, FastRankSelectRejectsRepeatedRank) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(4, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          const std::vector<std::uint64_t> mine{1, 2, 3};
          (void)fastsort::fast_rank_select(
              comm, std::span<const std::uint64_t>(mine), {2, 5, 5});
        });
      },
      "want_ranks must be strictly increasing");
}

TEST(ContractDeath, FastRankSelectRejectsRankBeyondCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(4, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) {
          const std::vector<std::uint64_t> mine{1, 2, 3};
          // 12 elements in all: rank 12 does not exist.
          (void)fastsort::fast_rank_select(
              comm, std::span<const std::uint64_t>(mine), {0, 11, 12});
        });
      },
      "requested rank exceeds global sample size");
}

TEST(ContractDeath, SplitConsecutiveRequiresDivisibility) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine(6, MachineParams::supermuc_like(), 1);
        engine.run([](Comm& comm) { (void)comm.split_consecutive(4); });
      },
      "");
}

// ---------------------------------------------------------------------------

TEST(CommIsolation, SiblingCommunicatorsDoNotCrossTalk) {
  // Two disjoint sub-communicators run different collectives concurrently;
  // tags and comm ids must keep their traffic apart.
  Engine engine(8, MachineParams::supermuc_like(), 3);
  engine.run([&](Comm& comm) {
    Comm sub = comm.split_consecutive(2);  // two groups of 4
    const int group = comm.rank() / 4;
    if (group == 0) {
      // Group 0: chains of allreduces.
      for (int i = 0; i < 10; ++i) {
        const auto s = coll::allreduce_add_one(sub, sub.rank() + i);
        EXPECT_EQ(s, 6 + 4 * i);
      }
    } else {
      // Group 1: alltoallv storms in the meantime.
      for (int i = 0; i < 5; ++i) {
        std::vector<std::int64_t> sendbuf;
        const std::vector<std::int64_t> counts(4, 1);
        for (int d = 0; d < 4; ++d) sendbuf.push_back(sub.rank() * 10 + d);
        auto recv = coll::alltoallv(
            sub, std::span<const std::int64_t>(sendbuf.data(), sendbuf.size()),
            std::span<const std::int64_t>(counts.data(), counts.size()));
        for (int s = 0; s < 4; ++s)
          EXPECT_EQ(recv.part(s)[0], s * 10 + sub.rank());
      }
    }
  });
}

TEST(CommIsolation, NestedSplitsKeepWorking) {
  Engine engine(16, MachineParams::supermuc_like(), 4);
  engine.run([&](Comm& comm) {
    Comm half = comm.split_consecutive(2);   // 8 each
    Comm quarter = half.split_consecutive(2);  // 4 each
    Comm pair = quarter.split_consecutive(2);  // 2 each
    EXPECT_EQ(pair.size(), 2);
    const auto sum = coll::allreduce_add_one(pair, comm.rank());
    // Pairs are consecutive ranks {2k, 2k+1}.
    EXPECT_EQ(sum, 2 * (comm.rank() / 2 * 2) + 1);
    // The parent comms remain usable after descendants were created.
    EXPECT_EQ(coll::allreduce_add_one(comm, 1), 16);
    EXPECT_EQ(coll::allreduce_add_one(half, 1), 8);
  });
}

TEST(CommIsolation, InterleavedParentChildCollectives) {
  Engine engine(8, MachineParams::supermuc_like(), 5);
  engine.run([&](Comm& comm) {
    Comm sub = comm.split_consecutive(4);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(coll::allreduce_add_one(comm, 1), 8);
      EXPECT_EQ(coll::allreduce_add_one(sub, 1), 2);
    }
  });
}

}  // namespace
}  // namespace pmps
