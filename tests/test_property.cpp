// Property-based tests: randomized sweeps asserting the library's
// invariants over many seeds and shapes.
//
//  * sorting invariants (sorted / globally ordered / permutation) for every
//    algorithm under randomized configurations;
//  * RLM perfect balance and AMS (1+ε) balance under random seeds;
//  * delivery: conservation + group membership for random piece matrices;
//  * multiselect: rank exactness for random rank sets;
//  * grouping optimality vs brute force on random instances;
//  * virtual-time sanity: causality (receiver ≥ sender share) and
//    monotonicity of costs in message size.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "delivery/delivery.hpp"
#include "grouping/bucket_grouping.hpp"
#include "harness/runner.hpp"
#include "select/multiselect.hpp"

namespace pmps {
namespace {

using harness::Algorithm;
using harness::RunConfig;
using harness::Workload;

class SortFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SortFuzz, RandomConfigurationsSort) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 rng(seed * 7919 + 13);

  // Random shape.
  constexpr int kPs[] = {2, 4, 6, 8, 12, 16, 24, 32, 48};
  RunConfig cfg;
  cfg.p = kPs[rng.bounded(std::size(kPs))];
  cfg.n_per_pe = 1 + static_cast<std::int64_t>(rng.bounded(600));
  cfg.workload =
      harness::kAllWorkloads[rng.bounded(std::size(harness::kAllWorkloads))];
  constexpr Algorithm kAlgos[] = {Algorithm::kAms, Algorithm::kRlm,
                                  Algorithm::kSampleSort1L,
                                  Algorithm::kMergesort1L,
                                  Algorithm::kMpSortLike};
  cfg.algorithm = kAlgos[rng.bounded(std::size(kAlgos))];
  cfg.ams.levels = 1 + static_cast<int>(rng.bounded(3));
  cfg.rlm.levels = cfg.ams.levels;
  constexpr delivery::Algo kDel[] = {
      delivery::Algo::kSimple, delivery::Algo::kRandomized,
      delivery::Algo::kDeterministic, delivery::Algo::kAdvancedRandomized};
  cfg.ams.delivery = kDel[rng.bounded(std::size(kDel))];
  cfg.rlm.delivery = cfg.ams.delivery;
  cfg.ams.overpartition_b = 1 + static_cast<int>(rng.bounded(24));
  cfg.seed = seed;

  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.locally_sorted)
      << "algo=" << harness::algorithm_name(cfg.algorithm)
      << " p=" << cfg.p << " n/p=" << cfg.n_per_pe << " workload="
      << harness::workload_name(cfg.workload) << " seed=" << seed;
  EXPECT_TRUE(res.check.globally_ordered)
      << "algo=" << harness::algorithm_name(cfg.algorithm) << " seed=" << seed;
  EXPECT_TRUE(res.check.permutation_ok)
      << "algo=" << harness::algorithm_name(cfg.algorithm) << " seed=" << seed;

  if (cfg.algorithm == Algorithm::kRlm ||
      cfg.algorithm == Algorithm::kMergesort1L) {
    // Perfect balance up to rounding.
    const double quota = static_cast<double>(res.check.total) / cfg.p;
    EXPECT_LE(res.check.imbalance * quota, 1.0 + 1e-9) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortFuzz, ::testing::Range(0, 30));

class SpillFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SpillFuzz, BudgetedRunsAreBitIdenticalToInMemory) {
  // Randomized (p, n/p, budget, block size, algorithm, element type) grid:
  // a budgeted run must spill, verify, and be bit-identical to the
  // unbudgeted in-memory run — same order-dependent output signature (so
  // equal keys land in the same stable order on the same PEs) and the same
  // virtual time (spilling is invisible to the machine model).
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 rng(seed * 2654435761 + 7);

  RunConfig cfg;
  constexpr int kPs[] = {2, 4, 8, 12, 16, 24};
  cfg.p = kPs[rng.bounded(std::size(kPs))];
  cfg.n_per_pe = 64 + static_cast<std::int64_t>(rng.bounded(700));
  constexpr Algorithm kAlgos[] = {Algorithm::kAms, Algorithm::kRlm,
                                  Algorithm::kGvSampleSort};
  cfg.algorithm = kAlgos[rng.bounded(std::size(kAlgos))];
  cfg.element = rng.bounded(2) == 0 ? harness::ElementKind::kU64
                                    : harness::ElementKind::kRecord100;
  cfg.workload =
      harness::kAllWorkloads[rng.bounded(std::size(harness::kAllWorkloads))];
  cfg.ams.levels = 1 + static_cast<int>(rng.bounded(2));
  cfg.rlm.levels = cfg.ams.levels;
  cfg.seed = seed;

  const std::int64_t elem_bytes =
      cfg.element == harness::ElementKind::kRecord100 ? 100 : 8;
  const std::int64_t payload = cfg.n_per_pe * elem_bytes;
  // Budget 1/16 .. 1/2 of the payload; blocks small enough that tiny
  // budgets still bound the merge fan-in.
  constexpr std::int64_t kBlocks[] = {256, 512, 1024, 4096};
  cfg.budget.block_bytes = kBlocks[rng.bounded(std::size(kBlocks))];
  cfg.budget.bytes =
      std::max<std::int64_t>(1, payload >> (1 + rng.bounded(4)));

  const auto spilled = harness::run_sort_experiment(cfg);
  auto plain_cfg = cfg;
  plain_cfg.budget = {};
  const auto plain = harness::run_sort_experiment(plain_cfg);

  const auto ctx = [&] {
    return std::string("algo=") +
           std::string(harness::algorithm_name(cfg.algorithm)) +
           " element=" + std::string(harness::element_name(cfg.element)) +
           " p=" + std::to_string(cfg.p) +
           " n/p=" + std::to_string(cfg.n_per_pe) +
           " budget=" + std::to_string(cfg.budget.bytes) +
           " block=" + std::to_string(cfg.budget.block_bytes) +
           " seed=" + std::to_string(seed);
  };
  EXPECT_TRUE(spilled.check.ok()) << ctx();
  EXPECT_TRUE(plain.check.ok()) << ctx();
  EXPECT_GT(spilled.spill.bytes_written, 0) << "budget idle: " << ctx();
  EXPECT_EQ(plain.spill.bytes_written, 0) << ctx();
  EXPECT_EQ(spilled.check.out_signature, plain.check.out_signature) << ctx();
  EXPECT_EQ(spilled.report.wall_time, plain.report.wall_time) << ctx();
  EXPECT_EQ(spilled.report.total_bytes_sent, plain.report.total_bytes_sent)
      << ctx();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillFuzz, ::testing::Range(0, 28));

class DeliveryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DeliveryFuzz, RandomPieceMatricesConserveData) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 shape_rng(seed + 0xde11);
  constexpr int kShapes[][2] = {{4, 2}, {8, 4}, {12, 3}, {16, 8},
                                {24, 4}, {32, 16}, {20, 5}};
  const auto& shape = kShapes[shape_rng.bounded(std::size(kShapes))];
  const int p = shape[0], r = shape[1];
  constexpr delivery::Algo kDel[] = {
      delivery::Algo::kSimple, delivery::Algo::kRandomized,
      delivery::Algo::kDeterministic, delivery::Algo::kAdvancedRandomized};
  const auto algo = kDel[shape_rng.bounded(std::size(kDel))];

  net::Engine engine(p, net::MachineParams::supermuc_like(), seed);
  std::mutex mu;
  std::int64_t sent = 0, received = 0;
  bool groups_ok = true;
  engine.run([&](net::Comm& comm) {
    Xoshiro256 rng(seed, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(r));
    for (auto& s : sizes) {
      // Spiky: some pieces empty, some tiny, some large.
      const auto kind = rng.bounded(4);
      s = kind == 0 ? 0
          : kind == 1 ? static_cast<std::int64_t>(rng.bounded(3))
                      : static_cast<std::int64_t>(rng.bounded(200));
    }
    std::vector<std::uint64_t> data;
    for (int g = 0; g < r; ++g)
      for (std::int64_t i = 0; i < sizes[static_cast<std::size_t>(g)]; ++i)
        data.push_back(static_cast<std::uint64_t>(g));
    auto runs = delivery::deliver(
        comm, std::span<const std::uint64_t>(data.data(), data.size()), sizes,
        algo, seed);
    const int my_group = comm.rank() / (p / r);
    std::int64_t count = 0;
    bool ok = true;
    for (const auto& run : runs)
      for (auto v : run) {
        ++count;
        if (static_cast<int>(v) != my_group) ok = false;
      }
    std::lock_guard lock(mu);
    sent += static_cast<std::int64_t>(data.size());
    received += count;
    groups_ok = groups_ok && ok;
  });
  EXPECT_EQ(sent, received) << "algo=" << delivery::algo_name(algo)
                            << " p=" << p << " r=" << r << " seed=" << seed;
  EXPECT_TRUE(groups_ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryFuzz, ::testing::Range(0, 25));

class MultiselectFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MultiselectFuzz, RandomRanksAreExact) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 shape_rng(seed + 0x5e1ec7);
  const int p = 1 + static_cast<int>(shape_rng.bounded(20));
  const std::int64_t n_per_pe = shape_rng.bounded(200);
  const std::uint64_t range = 1 + shape_rng.bounded(1000);
  const std::int64_t total = p * n_per_pe;

  std::vector<std::int64_t> ranks;
  const int nr = 1 + static_cast<int>(shape_rng.bounded(10));
  for (int i = 0; i < nr; ++i)
    ranks.push_back(static_cast<std::int64_t>(
        shape_rng.bounded(static_cast<std::uint64_t>(total) + 1)));
  std::sort(ranks.begin(), ranks.end());

  net::Engine engine(p, net::MachineParams::supermuc_like(), seed);
  std::mutex mu;
  std::vector<std::int64_t> sums(ranks.size(), 0);
  engine.run([&](net::Comm& comm) {
    Xoshiro256 rng(seed, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::uint64_t> data(static_cast<std::size_t>(n_per_pe));
    for (auto& v : data) v = rng.bounded(range);
    std::sort(data.begin(), data.end());
    auto res = select::multiselect(
        comm, std::span<const std::uint64_t>(data.data(), data.size()), ranks);
    std::lock_guard lock(mu);
    for (std::size_t j = 0; j < ranks.size(); ++j)
      sums[j] += res.split_positions[j];
  });
  for (std::size_t j = 0; j < ranks.size(); ++j)
    EXPECT_EQ(sums[j], ranks[j]) << "seed=" << seed << " rank#" << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiselectFuzz, ::testing::Range(0, 25));

class GroupingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GroupingFuzz, AllSearchVariantsOptimal) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 rng(seed + 0x6a0);
  const int B = 2 + static_cast<int>(rng.bounded(60));
  const int r = 1 + static_cast<int>(rng.bounded(12));
  std::vector<std::int64_t> buckets(static_cast<std::size_t>(B));
  for (auto& b : buckets)
    b = static_cast<std::int64_t>(rng.bounded(rng.bounded(2) ? 10 : 1000));
  buckets[0] += 1;  // nonzero total
  const auto brute = grouping::group_buckets_bruteforce(buckets, r);
  EXPECT_EQ(grouping::group_buckets_naive(buckets, r).max_load,
            brute.max_load)
      << "seed=" << seed;
  EXPECT_EQ(grouping::group_buckets_optimal(buckets, r).max_load,
            brute.max_load)
      << "seed=" << seed;
  EXPECT_EQ(grouping::group_buckets_relevant_ranges(buckets, r).max_load,
            brute.max_load)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingFuzz, ::testing::Range(0, 40));

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, SortedAndBitIdenticalUnderRandomFaults) {
  // Random fault cocktails (loss × jitter × stragglers) over random shapes:
  // the output must stay a globally sorted permutation — faults may change
  // virtual time, never data — and a rerun with the same seed must replay
  // bit-identically (virtual times, phase accounting, fault counters).
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 rng(seed * 6151 + 29);

  harness::RunConfig cfg;
  constexpr int kPs[] = {4, 8, 12, 16, 24};
  cfg.p = kPs[rng.bounded(std::size(kPs))];
  cfg.n_per_pe = 50 + static_cast<std::int64_t>(rng.bounded(400));
  constexpr Algorithm kAlgos[] = {Algorithm::kAms, Algorithm::kRlm,
                                  Algorithm::kGvSampleSort};
  cfg.algorithm = kAlgos[rng.bounded(std::size(kAlgos))];
  cfg.ams.levels = 1 + static_cast<int>(rng.bounded(2));
  cfg.rlm.levels = cfg.ams.levels;
  cfg.seed = seed;

  // Random fault profile; at least one knob is always on.
  constexpr double kLossRates[] = {0.0, 1e-3, 1e-2, 5e-2};
  constexpr double kJitters[] = {0.0, 0.1, 0.5};
  cfg.faults.loss = kLossRates[rng.bounded(std::size(kLossRates))];
  cfg.faults.jitter_sigma = kJitters[rng.bounded(std::size(kJitters))];
  cfg.faults.stragglers = static_cast<int>(rng.bounded(3));
  cfg.faults.straggle_factor = 2.0 + static_cast<double>(rng.bounded(6));
  if (!cfg.faults.any()) cfg.faults.jitter_sigma = 0.2;
  // The fuzz asserts sorting invariants, not exhaustion: with 5% loss over
  // thousands of attempts the default retry budget has a small but real
  // chance of a (deterministic) NetworkError — widen it out of the picture.
  cfg.faults.retransmit.max_retries = 6;

  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.locally_sorted)
      << "algo=" << harness::algorithm_name(cfg.algorithm) << " p=" << cfg.p
      << " loss=" << cfg.faults.loss << " jitter=" << cfg.faults.jitter_sigma
      << " stragglers=" << cfg.faults.stragglers << " seed=" << seed;
  EXPECT_TRUE(res.check.globally_ordered) << "seed=" << seed;
  EXPECT_TRUE(res.check.permutation_ok) << "seed=" << seed;

  const auto again = harness::run_sort_experiment(cfg);
  EXPECT_EQ(again.report.wall_time, res.report.wall_time) << "seed=" << seed;
  EXPECT_EQ(again.report.phase_max, res.report.phase_max) << "seed=" << seed;
  EXPECT_EQ(again.report.max_messages_sent, res.report.max_messages_sent);
  EXPECT_EQ(again.report.total_bytes_sent, res.report.total_bytes_sent);
  EXPECT_TRUE(again.faults() == res.faults()) << "seed=" << seed;
  EXPECT_EQ(again.check.imbalance, res.check.imbalance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(0, 25));

TEST(VirtualTime, CausalityUnderRandomTraffic) {
  // Random p2p traffic: a receive can never complete before the matching
  // send's finish time.
  const int p = 8;
  net::Engine engine(p, net::MachineParams::supermuc_like(), 5);
  engine.run([&](net::Comm& comm) {
    const std::uint64_t tag = comm.next_tag_block();
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() - 1 + p) % p;
    double send_done = 0;
    for (int round = 0; round < 20; ++round) {
      std::vector<std::int64_t> payload(
          static_cast<std::size_t>(comm.rng().bounded(500)), 7);
      comm.send<std::int64_t>(next, tag + static_cast<std::uint64_t>(round),
                              payload);
      send_done = comm.now();
      auto got = comm.recv<std::int64_t>(
          prev, tag + static_cast<std::uint64_t>(round));
      // Our own clock is ≥ our send finish; payload arrived intact.
      EXPECT_GE(comm.now(), send_done);
      for (auto v : got) EXPECT_EQ(v, 7);
    }
  });
}

TEST(VirtualTime, CostMonotoneInMessageSize) {
  auto time_for = [](std::size_t words) {
    net::Engine engine(2, net::MachineParams::supermuc_like(), 1);
    engine.run([&](net::Comm& comm) {
      const std::uint64_t tag = comm.next_tag_block();
      if (comm.rank() == 0) {
        std::vector<std::int64_t> payload(words, 1);
        comm.send<std::int64_t>(1, tag, payload);
      } else {
        (void)comm.recv<std::int64_t>(0, tag);
      }
    });
    return engine.report().wall_time;
  };
  EXPECT_LT(time_for(1), time_for(1000));
  EXPECT_LT(time_for(1000), time_for(100000));
}

TEST(VirtualTime, HierarchyMattersForExchanges) {
  // The same alltoallv among 4 PEs is cheaper within a node than within an
  // island than across islands. Shrunk hierarchy: 2 PEs/node, 2 nodes/island.
  auto exchange_time = [](int stride) {
    auto machine = net::MachineParams::supermuc_like();
    machine.pes_per_node = 2;
    machine.nodes_per_island = 2;  // island = 4 PEs
    net::Engine engine(3 * stride + 1, machine, 2);
    engine.run([&](net::Comm& comm) {
      const bool mine = comm.rank() % stride == 0;
      net::Comm sub = comm.split(mine ? 0 : 1, comm.rank());
      if (!mine) return;
      const std::vector<std::int64_t> sendbuf(
          static_cast<std::size_t>(sub.size()) * 1000, 3);
      const std::vector<std::int64_t> counts(
          static_cast<std::size_t>(sub.size()), 1000);
      (void)coll::alltoallv(
          sub, std::span<const std::int64_t>(sendbuf.data(), sendbuf.size()),
          std::span<const std::int64_t>(counts.data(), counts.size()));
    });
    return engine.report().wall_time;
  };
  const double node_time = exchange_time(1);    // PEs 0..3? nodes of 2 → mixed
  const double island_time = exchange_time(2);  // one per node, same island+
  const double global_time = exchange_time(4);  // one per island
  EXPECT_LT(node_time, global_time);
  EXPECT_LE(island_time, global_time);
  EXPECT_LE(node_time, island_time);
}

}  // namespace
}  // namespace pmps
