// Tests for the collective operations, over many communicator sizes
// (powers of two and odd sizes exercise both code paths), plus the
// FlatParts view the irregular collectives return and a randomized
// property test pitting the flat collectives against a naive p2p
// reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/flat.hpp"
#include "common/math.hpp"
#include "common/random.hpp"
#include "net/engine.hpp"
#include "net/network_model.hpp"
#include "select/multiselect.hpp"
#include "test_backends.hpp"

namespace pmps::coll {
namespace {

using net::Comm;
using net::Engine;
using net::MachineParams;
using test_support::Backend;
using test_support::backends;
using test_support::describe;
using test_support::ScopedEnv;

// ---------------------------------------------------------------------------
// FlatParts accessors (no engine needed)
// ---------------------------------------------------------------------------

TEST(FlatParts, DefaultIsEmpty) {
  FlatParts<int> fp;
  EXPECT_EQ(fp.parts(), 0);
  EXPECT_EQ(fp.total(), 0);
  EXPECT_TRUE(fp.flat().empty());
  EXPECT_EQ(fp.begin(), fp.end());
  EXPECT_TRUE(fp.sizes().empty());
}

TEST(FlatParts, SingleRank) {
  auto fp = FlatParts<int>::from_sizes({7, 8, 9},
                                       std::vector<std::int64_t>{3});
  EXPECT_EQ(fp.parts(), 1);
  EXPECT_EQ(fp.total(), 3);
  EXPECT_EQ(fp.size(0), 3);
  EXPECT_EQ(fp.part(0)[2], 9);
}

TEST(FlatParts, EmptyPartsBetweenFullOnes) {
  auto fp = FlatParts<int>::from_sizes(
      {1, 2, 3, 4}, std::vector<std::int64_t>{2, 0, 1, 0, 1});
  EXPECT_EQ(fp.parts(), 5);
  EXPECT_EQ(fp.total(), 4);
  EXPECT_EQ(fp.size(1), 0);
  EXPECT_TRUE(fp.part(1).empty());
  EXPECT_TRUE(fp.part(3).empty());
  EXPECT_EQ(fp.part(2)[0], 3);
  EXPECT_EQ(fp.part(4)[0], 4);
  // Offsets invariants: p+1 entries, leading 0, non-decreasing, total last.
  const auto& off = fp.offsets();
  ASSERT_EQ(off.size(), 6u);
  EXPECT_EQ(off.front(), 0);
  EXPECT_EQ(off.back(), fp.total());
  EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
  // sizes() round-trips.
  EXPECT_EQ(fp.sizes(), (std::vector<std::int64_t>{2, 0, 1, 0, 1}));
}

TEST(FlatParts, IterationVisitsPartsInOrder) {
  auto fp = FlatParts<int>::from_sizes({10, 20, 30},
                                       std::vector<std::int64_t>{1, 0, 2});
  std::vector<std::vector<int>> seen;
  for (std::span<const int> part : fp)
    seen.emplace_back(part.begin(), part.end());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::vector<int>{10}));
  EXPECT_TRUE(seen[1].empty());
  EXPECT_EQ(seen[2], (std::vector<int>{20, 30}));
}

TEST(FlatParts, TakeFlatMovesBufferOut) {
  auto fp = FlatParts<int>::from_sizes({1, 2, 3},
                                       std::vector<std::int64_t>{1, 2});
  std::vector<int> flat = std::move(fp).take_flat();
  EXPECT_EQ(flat, (std::vector<int>{1, 2, 3}));
}

TEST(FlatPartsDeath, OffsetsMustCoverBuffer) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      { FlatParts<int> fp({1, 2, 3}, {0, 2}); }, "");
}

// ---------------------------------------------------------------------------
// collectives
// ---------------------------------------------------------------------------

class CollectivesP : public ::testing::TestWithParam<int> {
 protected:
  void run(const std::function<void(Comm&)>& f) {
    Engine engine(GetParam(), MachineParams::supermuc_like(), 42);
    engine.run(f);
  }
};

TEST_P(CollectivesP, Barrier) {
  run([](Comm& comm) {
    for (int i = 0; i < 3; ++i) barrier(comm);
  });
}

TEST_P(CollectivesP, BcastFromEveryRoot) {
  run([](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<std::int64_t> v;
      if (comm.rank() == root) v = {root, root * 2, 77};
      bcast(comm, v, root);
      ASSERT_EQ(v, (std::vector<std::int64_t>{root, root * 2, 77}));
    }
  });
}

TEST_P(CollectivesP, ReduceAdd) {
  run([](Comm& comm) {
    std::vector<std::int64_t> v{comm.rank(), 1};
    v = reduce(comm, std::move(v), std::plus<std::int64_t>{}, 0);
    if (comm.rank() == 0) {
      const std::int64_t p = comm.size();
      EXPECT_EQ(v[0], p * (p - 1) / 2);
      EXPECT_EQ(v[1], p);
    }
  });
}

TEST_P(CollectivesP, AllreduceAddAndMax) {
  run([](Comm& comm) {
    const std::int64_t p = comm.size();
    EXPECT_EQ(allreduce_add_one(comm, comm.rank()), p * (p - 1) / 2);
    const auto mx = allreduce_one<std::int64_t>(
        comm, comm.rank() * 3,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
    EXPECT_EQ(mx, (p - 1) * 3);
  });
}

TEST_P(CollectivesP, ScalarHelpersAgreeWithVectorForms) {
  run([](Comm& comm) {
    EXPECT_EQ(bcast_one<std::int64_t>(comm, comm.rank() + 5, 0), 5);
    const std::int64_t r = comm.rank();
    EXPECT_EQ(exscan_add_one(comm, 2), 2 * r);
  });
}

TEST_P(CollectivesP, ExscanAdd) {
  run([](Comm& comm) {
    std::vector<std::int64_t> v{1, comm.rank()};
    const auto pre = exscan_add(comm, v);
    const std::int64_t r = comm.rank();
    EXPECT_EQ(pre[0], r);
    EXPECT_EQ(pre[1], r * (r - 1) / 2);
  });
}

TEST_P(CollectivesP, GathervFromEveryRoot) {
  run([](Comm& comm) {
    for (int root = 0; root < std::min(comm.size(), 3); ++root) {
      // Sizes vary by rank and include empty contributions (rank % 3 == 0).
      std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() % 3),
                                     comm.rank());
      auto parts = gatherv(
          comm, std::span<const std::int64_t>(mine.data(), mine.size()), root);
      if (comm.rank() == root) {
        ASSERT_EQ(parts.parts(), comm.size());
        for (int i = 0; i < comm.size(); ++i) {
          ASSERT_EQ(parts.size(i), i % 3);
          for (auto v : parts.part(i)) EXPECT_EQ(v, i);
        }
        // One flat buffer in rank order.
        EXPECT_EQ(parts.total(),
                  static_cast<std::int64_t>(parts.flat().size()));
      } else {
        EXPECT_EQ(parts.parts(), 0);
        EXPECT_EQ(parts.total(), 0);
      }
    }
  });
}

TEST_P(CollectivesP, Allgatherv) {
  run([](Comm& comm) {
    std::vector<std::int64_t> mine{comm.rank(), comm.rank() + 100};
    auto parts = allgatherv(
        comm, std::span<const std::int64_t>(mine.data(), mine.size()));
    ASSERT_EQ(parts.parts(), comm.size());
    for (int i = 0; i < comm.size(); ++i) {
      ASSERT_EQ(parts.size(i), 2);
      EXPECT_EQ(parts.part(i)[0], i);
      EXPECT_EQ(parts.part(i)[1], i + 100);
    }
  });
}

TEST_P(CollectivesP, AllgathervWithEmptyContributions) {
  run([](Comm& comm) {
    // Only even ranks contribute.
    std::vector<std::int64_t> mine;
    if (comm.rank() % 2 == 0) mine = {comm.rank() * 7};
    auto parts = allgatherv(
        comm, std::span<const std::int64_t>(mine.data(), mine.size()));
    ASSERT_EQ(parts.parts(), comm.size());
    for (int i = 0; i < comm.size(); ++i) {
      if (i % 2 == 0) {
        ASSERT_EQ(parts.size(i), 1);
        EXPECT_EQ(parts.part(i)[0], i * 7);
      } else {
        EXPECT_TRUE(parts.part(i).empty());
      }
    }
  });
}

TEST_P(CollectivesP, AllgatherMergeProducesGlobalSortedSequence) {
  run([](Comm& comm) {
    Xoshiro256 rng(9, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::uint64_t> mine(20 + comm.rank() % 5);
    for (auto& v : mine) v = rng.bounded(1000);
    std::sort(mine.begin(), mine.end());
    auto merged = allgather_merge(
        comm, std::span<const std::uint64_t>(mine.data(), mine.size()));
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
    // Size = total contributions.
    const auto total = allreduce_add_one(
        comm, static_cast<std::int64_t>(mine.size()));
    EXPECT_EQ(static_cast<std::int64_t>(merged.size()), total);
    // Content preserved: every local element appears.
    for (auto v : mine)
      EXPECT_TRUE(std::binary_search(merged.begin(), merged.end(), v));
  });
}

TEST_P(CollectivesP, AlltoallCountsIsTranspose) {
  run([](Comm& comm) {
    const int p = comm.size();
    // send[i] = rank*1000 + i; expect recv[i] = i*1000 + rank.
    std::vector<std::int64_t> send(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i)
      send[static_cast<std::size_t>(i)] = comm.rank() * 1000 + i;
    const auto recv = alltoall_counts(comm, send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int i = 0; i < p; ++i)
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 1000 + comm.rank());
  });
}

TEST_P(CollectivesP, AlltoallCountsSurvivesInt32Boundary) {
  // Counts travel as int32 on the wire (DESIGN.md §8): values at the edges
  // of the representable range must round-trip unharmed.
  run([](Comm& comm) {
    const int p = comm.size();
    const std::int64_t hi = std::numeric_limits<std::int32_t>::max();
    std::vector<std::int64_t> send(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i)
      send[static_cast<std::size_t>(i)] = hi - (comm.rank() * p + i);
    const auto recv = alltoall_counts(comm, send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int i = 0; i < p; ++i)
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], hi - (i * p + comm.rank()));
  });
}

class AlltoallvSched
    : public ::testing::TestWithParam<std::tuple<int, Schedule>> {};

TEST_P(AlltoallvSched, DeliversAllPayloads) {
  const auto [p, sched] = GetParam();
  Engine engine(p, MachineParams::supermuc_like(), 7);
  engine.run([&](Comm& comm) {
    // Variable-size payloads, with some empty pairs, laid out flat in
    // destination order.
    std::vector<std::int64_t> sendbuf;
    std::vector<std::int64_t> counts(static_cast<std::size_t>(comm.size()));
    for (int i = 0; i < comm.size(); ++i) {
      const int len = (comm.rank() + i) % 4;
      counts[static_cast<std::size_t>(i)] = len;
      for (int j = 0; j < len; ++j) sendbuf.push_back(comm.rank() * 100 + i);
    }
    auto recv = alltoallv(
        comm, std::span<const std::int64_t>(sendbuf.data(), sendbuf.size()),
        std::span<const std::int64_t>(counts.data(), counts.size()), sched);
    ASSERT_EQ(recv.parts(), comm.size());
    for (int i = 0; i < comm.size(); ++i) {
      const int len = (i + comm.rank()) % 4;
      ASSERT_EQ(recv.size(i), len);
      for (auto v : recv.part(i)) EXPECT_EQ(v, i * 100 + comm.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AlltoallvSched,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 9, 16, 32),
                       ::testing::Values(Schedule::kDirect,
                                         Schedule::kOneFactor)));

TEST(Alltoallv, OneFactorOmitsEmptyMessages) {
  // All payloads empty → 1-factor sends only the Bruck counts exchange;
  // direct sends p−1 (empty) payload messages per PE.
  const int p = 16;
  auto count_msgs = [&](Schedule sched) {
    Engine engine(p, MachineParams::supermuc_like(), 3);
    engine.run([&](Comm& comm) {
      const std::vector<std::int64_t> counts(static_cast<std::size_t>(p), 0);
      (void)alltoallv(comm, std::span<const std::int64_t>{},
                      std::span<const std::int64_t>(counts.data(),
                                                    counts.size()),
                      sched);
    });
    return engine.report().max_messages_sent;
  };
  const auto direct = count_msgs(Schedule::kDirect);
  const auto onefactor = count_msgs(Schedule::kOneFactor);
  EXPECT_EQ(direct, p - 1);
  // Bruck: log2(16) = 4 rounds.
  EXPECT_EQ(onefactor, 4);
}

TEST_P(CollectivesP, SparseExchangeRoutesMessages) {
  run([](Comm& comm) {
    const int p = comm.size();
    // Each PE sends two messages to (rank+1)%p and one to (rank+2)%p.
    SendPlan<std::int64_t> out;
    const std::int64_t m1[] = {comm.rank(), 1};
    const std::int64_t m2[] = {comm.rank(), 2};
    const std::int64_t m3[] = {comm.rank(), 3};
    out.add((comm.rank() + 1) % p, std::span<const std::int64_t>(m1, 2));
    out.add((comm.rank() + 1) % p, std::span<const std::int64_t>(m2, 2));
    out.add((comm.rank() + 2) % p, std::span<const std::int64_t>(m3, 2));
    auto in = sparse_exchange(comm, out);
    ASSERT_EQ(in.count(), 3);
    ASSERT_EQ(static_cast<int>(in.srcs.size()), in.parts.parts());
    if (p <= 2) return;  // destinations overlap below p=3
    int from_prev = 0, from_prev2 = 0;
    for (int i = 0; i < in.count(); ++i) {
      const int src = in.srcs[static_cast<std::size_t>(i)];
      const auto payload = in.parts.part(i);
      if (src == (comm.rank() - 1 + p) % p) {
        ++from_prev;
        EXPECT_EQ(payload[0], src);
      }
      if (src == (comm.rank() - 2 + 2 * p) % p && payload[1] == 3)
        ++from_prev2;
    }
    EXPECT_EQ(from_prev, 2);
    EXPECT_EQ(from_prev2, 1);
  });
}

TEST(SparseExchange, ChargesOnlyActualMessagesPlusBarrier) {
  const int p = 32;
  Engine engine(p, MachineParams::supermuc_like(), 3);
  engine.run([&](Comm& comm) {
    SendPlan<std::int64_t> out;
    const std::int64_t payload[] = {1, 2, 3};
    if (comm.rank() == 0)
      out.add(1, std::span<const std::int64_t>(payload, 3));
    (void)sparse_exchange(comm, out);
  });
  // Sent messages per PE: the one payload (rank 0) + barrier rounds (5).
  EXPECT_LE(engine.report().max_messages_sent, 1 + 5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17,
                                           32, 64));

// ---------------------------------------------------------------------------
// long-vector allreduce (Rabenseifner): rank-order fold, schedule, cost
// ---------------------------------------------------------------------------

/// x ↦ a·x + b (mod 2^64). `then(f, g)` applies f, then g: associative but
/// not commutative, so any reordering of the fold changes the result.
struct Affine {
  std::uint64_t a = 1;
  std::uint64_t b = 0;
  bool operator==(const Affine&) const = default;
};
Affine then(const Affine& f, const Affine& g) {
  return {g.a * f.a, g.a * f.b + g.b};
}

/// A slot that may hold a value; the first non-empty slot wins.
struct Slot {
  std::uint64_t has = 0;
  std::uint64_t value = 0;
  bool operator==(const Slot&) const = default;
};
Slot first_wins(const Slot& x, const Slot& y) { return x.has ? x : y; }

/// 256 elements combined elementwise: one 4 KiB element, so that vectors
/// shorter than p still cross the long-vector crossover.
template <typename E>
struct Wide {
  std::array<E, 256> e{};
  bool operator==(const Wide&) const = default;
};

Affine affine_input(int rank, std::size_t i) {
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(rank) * 1000003u +
                                static_cast<std::uint64_t>(i));
  return {h | 1, mix64(h)};
}
Slot slot_input(int rank, std::size_t i) {
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(rank) * 7919u +
                                static_cast<std::uint64_t>(i) + 17);
  return {h % 5 == 0 ? 1u : 0u, h};
}

/// Messages one PE sends in the long schedule: 2·log2(2^k) exchange rounds,
/// plus the fold-out for the ranks that absorbed an extra rank; the extra
/// ranks themselves send only their fold-in.
std::int64_t long_schedule_sends(int p, int rank) {
  const int rounds = floor_log2(static_cast<std::uint64_t>(p));
  const int rem = p - (1 << rounds);
  if (rank >= 2 * rem) return 2 * rounds;
  return rank % 2 == 0 ? 1 : 2 * rounds + 1;
}

/// Runs `allreduce(op)` over `input(rank, i)`, i < len, on supermuc_like(),
/// replayed and on messages (under the neutral base NetworkModel), and
/// checks, on every PE, the result against the serial rank-order fold and
/// the sent-message count against the long schedule's.
template <typename E, typename Op, typename Input>
void expect_long_allreduce_folds_in_rank_order(int p, std::size_t len, Op op,
                                               Input input) {
  std::vector<E> expect(len);
  for (std::size_t i = 0; i < len; ++i) {
    expect[i] = input(0, i);
    for (int r = 1; r < p; ++r) expect[i] = op(expect[i], input(r, i));
  }
  for (const bool fast_forward : {true, false}) {
    MachineParams machine = MachineParams::supermuc_like();
    if (!fast_forward) machine.model = std::make_shared<net::NetworkModel>();
    const auto what = [&](const Comm& comm) {
      return "p=" + std::to_string(p) + " len=" + std::to_string(len) +
             " rank=" + std::to_string(comm.rank()) +
             (fast_forward ? " replay" : " messages");
    };
    Engine engine(p, machine, 5);
    engine.run([&](Comm& comm) {
      std::vector<E> mine(len);
      for (std::size_t i = 0; i < len; ++i) mine[i] = input(comm.rank(), i);
      const std::int64_t sent0 = comm.ctx().stats.messages_sent;
      const auto got = allreduce(comm, std::move(mine), op);
      EXPECT_EQ(comm.ctx().stats.messages_sent - sent0,
                long_schedule_sends(p, comm.rank()))
          << what(comm);
      EXPECT_TRUE(got == expect) << what(comm);
    });
    EXPECT_EQ(engine.report().engine.collective_fast_forwards,
              fast_forward ? 1 : 0);
  }
}

template <typename E, typename Op>
auto widen(Op op) {
  return [op](const Wide<E>& x, const Wide<E>& y) {
    Wide<E> z;
    for (std::size_t k = 0; k < z.e.size(); ++k) z.e[k] = op(x.e[k], y.e[k]);
    return z;
  };
}
template <typename E, typename Input>
auto widen_input(Input input) {
  return [input](int rank, std::size_t i) {
    Wide<E> w;
    for (std::size_t k = 0; k < w.e.size(); ++k)
      w.e[k] = input(rank, i * w.e.size() + k);
    return w;
  };
}

class AllreduceLongP : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceLongP, FoldsInRankOrderOnEveryPe) {
  const int p = GetParam();
  // Fewer elements than PEs (empty blocks), p ± 1, and a long vector.
  for (const std::size_t len :
       {static_cast<std::size_t>(p / 2), static_cast<std::size_t>(p - 1),
        static_cast<std::size_t>(p + 1)}) {
    expect_long_allreduce_folds_in_rank_order<Wide<Affine>>(
        p, len, widen<Affine>(then), widen_input<Affine>(affine_input));
    expect_long_allreduce_folds_in_rank_order<Wide<Slot>>(
        p, len, widen<Slot>(first_wins), widen_input<Slot>(slot_input));
  }
  expect_long_allreduce_folds_in_rank_order<Affine>(p, 4096, then,
                                                    affine_input);
  expect_long_allreduce_folds_in_rank_order<Slot>(p, 4096, first_wins,
                                                  slot_input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllreduceLongP,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 32,
                                           64));

TEST(AllreduceLong, VirtualTimeMatchesClosedFormOnFlatMachine) {
  // A pairwise exchange of b bytes costs α + 2βb here: the sender pays
  // α + βb, and the receive then drains βb because the single port was busy
  // sending. Each of the two phases has log2 p rounds and moves (p−1)/p of
  // the 8-byte words; the reduce-scatter combines (p−1)/p of them once. The
  // replay (the default) and the message path (under the neutral base
  // NetworkModel) both take it, to the bit.
  const double alpha = 1e-6;
  const double beta = 1e-8;
  for (const int p : {64, 1024}) {
    for (const std::size_t words : {std::size_t{1024}, std::size_t{16384}}) {
      std::vector<double> wall;
      for (const bool fast_forward : {true, false}) {
        MachineParams machine = MachineParams::flat(alpha, beta);
        if (!fast_forward)
          machine.model = std::make_shared<net::NetworkModel>();
        Engine engine(p, machine, 3);
        engine.run([&](Comm& comm) {
          std::vector<std::int64_t> v(words, comm.rank());
          const std::int64_t sent0 = comm.ctx().stats.messages_sent;
          v = allreduce_add(comm, std::move(v));
          EXPECT_EQ(comm.ctx().stats.messages_sent - sent0,
                    2 * floor_log2(static_cast<std::uint64_t>(p)));
          EXPECT_EQ(v[words - 1],
                    static_cast<std::int64_t>(p) * (p - 1) / 2);
        });
        EXPECT_EQ(engine.report().engine.collective_fast_forwards,
                  fast_forward ? 1 : 0);
        const double moved = static_cast<double>(p - 1) / p *
                             static_cast<double>(words);
        const double closed_form =
            2 * ceil_log2(static_cast<std::uint64_t>(p)) * alpha +
            2 * (8 * moved * 2 * beta) + moved * machine.compare_cost;
        wall.push_back(engine.report().wall_time);
        EXPECT_NEAR(wall.back(), closed_form, 0.1 * closed_form)
            << "p=" << p << " words=" << words
            << (fast_forward ? " replay" : " messages");
      }
      EXPECT_EQ(wall[0], wall[1]) << "p=" << p << " words=" << words;
    }
  }
}

TEST(AllgatherMerge, VirtualTimeMatchesClosedFormOnTwoNodes) {
  // p = 32 on supermuc_like() is two 16-PE nodes. The gossip meets its
  // farthest partner first, so the one island-level round carries each
  // PE's own run of n words, and the four rounds inside the node carry
  // 2n, 4n, 8n and 16n. As in the long allreduce, a pairwise exchange of
  // b bytes costs α + 2βb; every round then merges the two runs. The
  // replay (the default) and the message path (under the neutral base
  // NetworkModel) both take it.
  const int p = 32;
  const std::int64_t n = 64;
  for (const bool fast_forward : {true, false}) {
    MachineParams m = MachineParams::supermuc_like();
    if (!fast_forward) m.model = std::make_shared<net::NetworkModel>();
    Engine engine(p, m, 3);
    engine.run([&](Comm& comm) {
      std::vector<std::int64_t> mine(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        mine[static_cast<std::size_t>(i)] = i * p + comm.rank();
      const auto all =
          allgather_merge(comm, std::span<const std::int64_t>(mine));
      ASSERT_EQ(all.size(), static_cast<std::size_t>(n * p));
      for (std::size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], static_cast<std::int64_t>(i));
    });
    EXPECT_EQ(engine.report().engine.collective_fast_forwards,
              fast_forward ? 1 : 0);
    const auto round = [&](net::LinkLevel lvl, std::int64_t words) {
      const int l = static_cast<int>(lvl);
      return m.alpha[l] + 2 * m.beta[l] * 8.0 * static_cast<double>(words) +
             m.merge_cost(2 * words, 2);
    };
    double far_first = round(net::LinkLevel::kIsland, n);
    double near_first = 0;
    for (int k = 1; k <= 4; ++k)
      far_first += round(net::LinkLevel::kNode, n << k);
    for (int k = 0; k < 4; ++k)
      near_first += round(net::LinkLevel::kNode, n << k);
    near_first += round(net::LinkLevel::kIsland, n << 4);
    EXPECT_NEAR(engine.report().wall_time, far_first, 1e-12 * far_first)
        << (fast_forward ? "replay" : "messages");
    // Meeting the near partners first would send the largest run off-node.
    EXPECT_LT(far_first, near_first / 2);
  }
}

/// A key with a payload that the gossip's `less` ignores, so that the
/// order of equal keys shows in the bytes.
struct Keyed {
  std::uint64_t key = 0;
  std::uint64_t payload = 0;
  bool operator==(const Keyed&) const = default;
};
bool key_less(const Keyed& a, const Keyed& b) { return a.key < b.key; }

TEST(AllgatherMerge, EqualKeysMergeLowerRanksFirstOnEveryMember) {
  // Every merge puts the lower-rank half's run first among equal keys, on
  // every member and on both paths. So equal keys end in the order of the
  // merge tree: bit-reversed rank in the far-first hypercube (p = 8:
  // 0 4 2 6 1 5 3 7), rank order in the binomial gather of other sizes.
  for (const int p : {2, 6, 8, 64}) {
    const auto tie_rank = [p](std::uint64_t rank) {
      if (!is_pow2(p)) return rank;
      const int bits = floor_log2(static_cast<std::uint64_t>(p));
      std::uint64_t reversed = 0;
      for (int b = 0; b < bits; ++b)
        reversed |= ((rank >> b) & 1) << (bits - 1 - b);
      return reversed;
    };
    const auto run_of = [](int rank) {
      // Three elements under key 7, shared by every member, and one under
      // a key shared by a third of them.
      const auto r = static_cast<std::uint64_t>(rank);
      return std::vector<Keyed>{{7, 16 * r},
                                {7, 16 * r + 1},
                                {7, 16 * r + 2},
                                {100 + r % 3, 16 * r + 3}};
    };
    std::vector<Keyed> expect;
    for (int r = 0; r < p; ++r) {
      const auto run = run_of(r);
      expect.insert(expect.end(), run.begin(), run.end());
    }
    std::sort(expect.begin(), expect.end(),
              [&](const Keyed& a, const Keyed& b) {
                return std::tuple(a.key, tie_rank(a.payload / 16),
                                  a.payload) <
                       std::tuple(b.key, tie_rank(b.payload / 16), b.payload);
              });
    for (const bool fast_forward : {true, false}) {
      MachineParams machine = MachineParams::supermuc_like();
      if (!fast_forward) machine.model = std::make_shared<net::NetworkModel>();
      Engine engine(p, machine, 11);
      std::vector<std::vector<Keyed>> got(static_cast<std::size_t>(p));
      engine.run([&](Comm& comm) {
        const auto mine = run_of(comm.rank());
        got[static_cast<std::size_t>(comm.rank())] = allgather_merge(
            comm, std::span<const Keyed>(mine), key_less);
      });
      for (int pe = 0; pe < p; ++pe)
        EXPECT_TRUE(got[static_cast<std::size_t>(pe)] == expect)
            << "p=" << p << (fast_forward ? " replay" : " messages")
            << " pe=" << pe;
    }
  }
}

// ---------------------------------------------------------------------------
// property: flat collectives match a naive p2p reference
// ---------------------------------------------------------------------------

/// Randomized sizes per (round, sender, dest); both the flat collective and
/// a hand-rolled p2p reference run in the same program, and the results
/// must agree exactly.
class FlatVsP2P : public ::testing::TestWithParam<int> {};

TEST_P(FlatVsP2P, GathervAndAllgatherv) {
  const int p = GetParam();
  Engine engine(p, MachineParams::supermuc_like(), 77);
  engine.run([&](Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      Xoshiro256 rng(500 + static_cast<std::uint64_t>(round),
                     static_cast<std::uint64_t>(comm.rank()));
      std::vector<std::int64_t> mine(rng.bounded(6));
      for (auto& v : mine)
        v = comm.rank() * 1000 + static_cast<std::int64_t>(rng.bounded(900));

      // p2p reference: everyone sends to rank 0, rank 0 concatenates.
      const std::uint64_t tag = comm.next_tag_block();
      std::vector<std::int64_t> expect_flat;
      std::vector<std::int64_t> expect_sizes;
      comm.send<std::int64_t>(0, tag + static_cast<std::uint64_t>(comm.rank()),
                              std::span<const std::int64_t>(mine));
      if (comm.rank() == 0) {
        for (int src = 0; src < p; ++src) {
          const auto n = comm.recv_append<std::int64_t>(
              src, tag + static_cast<std::uint64_t>(src), expect_flat);
          expect_sizes.push_back(static_cast<std::int64_t>(n));
        }
      }

      auto gathered = gatherv(
          comm, std::span<const std::int64_t>(mine.data(), mine.size()), 0);
      if (comm.rank() == 0) {
        EXPECT_EQ(gathered.sizes(), expect_sizes);
        EXPECT_TRUE(std::equal(gathered.flat().begin(), gathered.flat().end(),
                               expect_flat.begin(), expect_flat.end()));
      }

      auto all = allgatherv(
          comm, std::span<const std::int64_t>(mine.data(), mine.size()));
      // Broadcast the reference from rank 0 and compare everywhere.
      bcast(comm, expect_sizes, 0);
      bcast(comm, expect_flat, 0);
      EXPECT_EQ(all.sizes(), expect_sizes);
      EXPECT_TRUE(std::equal(all.flat().begin(), all.flat().end(),
                             expect_flat.begin(), expect_flat.end()));
    }
  });
}

TEST_P(FlatVsP2P, Alltoallv) {
  const int p = GetParam();
  Engine engine(p, MachineParams::supermuc_like(), 78);
  engine.run([&](Comm& comm) {
    for (Schedule sched : {Schedule::kDirect, Schedule::kOneFactor}) {
      // Sizes depend only on (sender, dest), so receivers can rebuild them.
      auto pair_size = [&](int from, int to) {
        return static_cast<std::int64_t>(
            mix64(static_cast<std::uint64_t>(from * 131 + to * 17 +
                                             (sched == Schedule::kDirect))) %
            5);
      };
      std::vector<std::int64_t> sendbuf;
      std::vector<std::int64_t> counts(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        counts[static_cast<std::size_t>(i)] = pair_size(comm.rank(), i);
        for (std::int64_t j = 0; j < counts[static_cast<std::size_t>(i)]; ++j)
          sendbuf.push_back(comm.rank() * 10000 + i * 10 + j);
      }

      // p2p reference: direct sends of every non-self pair.
      const std::uint64_t tag = comm.next_tag_block();
      std::vector<std::int64_t> send_off(static_cast<std::size_t>(p) + 1, 0);
      for (int i = 0; i < p; ++i)
        send_off[static_cast<std::size_t>(i) + 1] =
            send_off[static_cast<std::size_t>(i)] +
            counts[static_cast<std::size_t>(i)];
      for (int i = 0; i < p; ++i) {
        if (i == comm.rank()) continue;
        comm.send<std::int64_t>(
            i, tag + static_cast<std::uint64_t>(comm.rank()),
            std::span<const std::int64_t>(
                sendbuf.data() + send_off[static_cast<std::size_t>(i)],
                static_cast<std::size_t>(counts[static_cast<std::size_t>(i)])));
      }
      std::vector<std::int64_t> expect_flat;
      std::vector<std::int64_t> expect_sizes;
      for (int src = 0; src < p; ++src) {
        if (src == comm.rank()) {
          expect_flat.insert(
              expect_flat.end(),
              sendbuf.begin() + send_off[static_cast<std::size_t>(src)],
              sendbuf.begin() + send_off[static_cast<std::size_t>(src)] +
                  counts[static_cast<std::size_t>(src)]);
          expect_sizes.push_back(counts[static_cast<std::size_t>(src)]);
        } else {
          const auto n = comm.recv_append<std::int64_t>(
              src, tag + static_cast<std::uint64_t>(src), expect_flat);
          expect_sizes.push_back(static_cast<std::int64_t>(n));
          EXPECT_EQ(static_cast<std::int64_t>(n),
                    pair_size(src, comm.rank()));
        }
      }

      auto recv = alltoallv(
          comm, std::span<const std::int64_t>(sendbuf.data(), sendbuf.size()),
          std::span<const std::int64_t>(counts.data(), counts.size()), sched);
      EXPECT_EQ(recv.sizes(), expect_sizes);
      EXPECT_TRUE(std::equal(recv.flat().begin(), recv.flat().end(),
                             expect_flat.begin(), expect_flat.end()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlatVsP2P,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16, 31, 256));

// ---------------------------------------------------------------------------
// bulk sparse exchange: bit-identical to the message path, safe on abort
// ---------------------------------------------------------------------------

/// Everything a run of collectives leaves behind on one PE.
struct PeOutcome {
  std::uint64_t clock_bits = 0;
  std::array<std::uint64_t, net::kNumPhases> phase_bits{};
  std::array<std::int64_t, net::kNumPhases> phase_sent{};
  std::int64_t sent = 0, received = 0, bytes_sent = 0, bytes_received = 0;
  std::uint64_t next_noise = 0;
  std::vector<std::uint64_t> got;  ///< values the program recorded

  bool operator==(const PeOutcome&) const = default;
};

/// Fills every PE's outcome, but `got`, from the engine after a run.
void capture(const Engine& engine, std::vector<PeOutcome>& out) {
  for (int pe = 0; pe < engine.num_pes(); ++pe) {
    const net::PeContext& ctx = engine.pe_context(pe);
    PeOutcome& o = out[static_cast<std::size_t>(pe)];
    o.clock_bits = std::bit_cast<std::uint64_t>(ctx.clock);
    for (int ph = 0; ph < net::kNumPhases; ++ph) {
      o.phase_bits[static_cast<std::size_t>(ph)] =
          std::bit_cast<std::uint64_t>(ctx.stats.phase_time[ph]);
      o.phase_sent[static_cast<std::size_t>(ph)] =
          ctx.stats.phase_messages_sent[ph];
    }
    o.sent = ctx.stats.messages_sent;
    o.received = ctx.stats.messages_received;
    o.bytes_sent = ctx.stats.bytes_sent;
    o.bytes_received = ctx.stats.bytes_received;
    Xoshiro256 noise = ctx.noise_rng;
    o.next_noise = noise();
  }
}

/// supermuc_like() with jitter on every message and a congested run, so
/// that every replayed charge draws noise. Off the fast-forward it installs
/// the base NetworkModel, whose hooks are neutral: the collectives then run
/// on messages and nothing else changes (net/network_model.hpp).
MachineParams noisy_machine(bool fast_forward = true) {
  MachineParams machine = MachineParams::supermuc_like();
  machine.comm_noise_frac = 0.3;
  machine.congestion_noise_frac = 0.2;
  if (!fast_forward) machine.model = std::make_shared<net::NetworkModel>();
  return machine;
}

/// Expects `engine`'s last run to have taken no fast-forward at all, so
/// that it is a reference on messages.
void expect_no_fast_forward(const Engine& engine, const std::string& what) {
  const net::EngineStats es = engine.report().engine;
  EXPECT_EQ(es.collective_fast_forwards, 0) << what;
  EXPECT_EQ(es.bulk_exchanges, 0) << what;
}

/// Five exchanges of seeded random plans, two of them on a split
/// communicator, with seeded compute between them so that receivers both
/// wait for arrivals and drain late ones. Every plan holds a piece to self,
/// an empty piece and two pieces to one destination, plus random pieces.
void random_exchanges(Comm& world, std::vector<PeOutcome>& out) {
  Xoshiro256 rng(2024, static_cast<std::uint64_t>(world.rank()));
  std::vector<std::uint64_t>& got =
      out[static_cast<std::size_t>(world.rank())].got;
  SendPlan<std::uint64_t> plan;
  const auto exchange = [&](Comm& comm, std::uint64_t round) {
    const int p = comm.size();
    const int me = comm.rank();
    plan.clear();
    plan.add(me, std::span<const std::uint64_t>(&round, 1));
    plan.begin_piece((me + 1) % p);
    for (int twice = 0; twice < 2; ++twice) {
      plan.begin_piece((me + 2) % p);
      plan.push_back(rng());
    }
    const int extra = static_cast<int>(rng() % 6);
    for (int i = 0; i < extra; ++i) {
      plan.begin_piece(static_cast<int>(rng() % static_cast<std::uint64_t>(p)));
      for (std::uint64_t n = rng() % 5; n > 0; --n) plan.push_back(rng());
    }
    comm.set_phase(round % 2 == 0 ? net::Phase::kDataDelivery
                                  : net::Phase::kBucketProcessing);
    comm.charge(3e-6 * rng.uniform());
    sparse_exchange_into<std::uint64_t>(
        comm, plan, [&](int src, std::span<const std::uint64_t> piece) {
          got.push_back(round);
          got.push_back(static_cast<std::uint64_t>(src));
          got.push_back(piece.size());
          got.insert(got.end(), piece.begin(), piece.end());
        });
  };
  exchange(world, 0);
  exchange(world, 1);
  Comm half = world.split(world.rank() % 2, world.rank());
  exchange(half, 2);
  exchange(half, 3);
  exchange(world, 4);
}

/// Runs random_exchanges at p on `backend`, with the collectives'
/// fast-forward on (bulk path) or off (message path).
std::vector<PeOutcome> run_random_exchanges(int p, const Backend& backend,
                                            bool fast_forward) {
  ScopedEnv workers("PMPS_FIBER_WORKERS",
                    std::to_string(backend.workers).c_str());
  Engine engine(p, noisy_machine(fast_forward), 17, backend.kind);
  std::vector<PeOutcome> out(static_cast<std::size_t>(p));
  engine.run([&](Comm& comm) { random_exchanges(comm, out); });
  if (fast_forward) {
    // Three exchanges on the world, two on each half.
    EXPECT_EQ(engine.report().engine.bulk_exchanges, 3 + 2 * std::min(p, 2))
        << describe(backend, p);
  } else {
    expect_no_fast_forward(engine, describe(backend, p));
  }
  capture(engine, out);
  return out;
}

TEST(SparseExchange, BulkPathMatchesMessagePath) {
  for (const Backend& backend : backends({1, 3})) {
    for (const int p : {1, 2, 3, 7, 64, 256}) {
      const auto bulk = run_random_exchanges(p, backend, true);
      const auto messages = run_random_exchanges(p, backend, false);
      for (int pe = 0; pe < p; ++pe) {
        const auto& b = bulk[static_cast<std::size_t>(pe)];
        const auto& m = messages[static_cast<std::size_t>(pe)];
        EXPECT_FALSE(b.got.empty());
        EXPECT_TRUE(b == m) << describe(backend, p) << " pe=" << pe;
      }
    }
  }
}

/// The word PE `src` plans for PE `dest` at position j.
std::uint64_t planned_word(int src, int dest, int j) {
  return mix64(static_cast<std::uint64_t>(src) * 4099u +
               static_cast<std::uint64_t>(dest) * 131u +
               static_cast<std::uint64_t>(j));
}

TEST(SparseExchange, BulkAbortKeepsPlansUntilReadersFinish) {
  // PE 1 aborts the run from inside its first sink call and then finishes
  // reading. PE 0 reads PE 1's piece only once PE 1 has overwritten its
  // plan, or after a timeout. Every PE overwrites its plan as soon as the
  // exchange returns or throws. So PE 0 sees the planned bytes only if
  // PE 1 cannot leave the exchange while PE 0 still reads its plan. PE 0's
  // wait blocks its worker thread; with ≥ 2 fiber workers PE 1 runs on
  // another one (fibers are pinned to worker pe % workers).
  constexpr int kP = 4;
  constexpr int kWords = 64;
  const auto fill = [](SendPlan<std::uint64_t>& plan, int me, bool garbage) {
    plan.clear();
    for (int dest = 0; dest < kP; ++dest) {
      plan.begin_piece(dest);
      for (int j = 0; j < kWords; ++j)
        plan.push_back(garbage ? ~0ULL : planned_word(me, dest, j));
    }
  };
  for (const Backend& backend : backends({2, 3})) {
    ScopedEnv workers("PMPS_FIBER_WORKERS",
                      std::to_string(backend.workers).c_str());
    Engine engine(kP, MachineParams::supermuc_like(), 3, backend.kind);
    std::atomic<int> reads{0}, wrong{0};
    std::array<std::atomic<bool>, kP> overwritten{};
    const auto sink_for = [&](Comm& comm, bool abort) {
      return [&comm, &reads, &wrong, &overwritten, abort,
              first = true](int src, std::span<const std::uint64_t> piece)
                 mutable {
        if (abort && comm.rank() == 1 && first)
          comm.engine().abort_run("aborted from a sink");
        first = false;
        if (abort && comm.rank() == 0 && src == 1) {
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(300);
          while (!overwritten[1] && std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        reads.fetch_add(1);
        bool ok = piece.size() == static_cast<std::size_t>(kWords);
        for (int j = 0; ok && j < kWords; ++j)
          ok = piece[static_cast<std::size_t>(j)] ==
               planned_word(src, comm.rank(), j);
        if (!ok) wrong.fetch_add(1);
      };
    };
    const auto program = [&](bool abort) {
      return [&, abort](Comm& comm) {
        SendPlan<std::uint64_t> plan;
        fill(plan, comm.rank(), false);
        try {
          sparse_exchange_into<std::uint64_t>(comm, plan,
                                              sink_for(comm, abort));
        } catch (...) {
          fill(plan, comm.rank(), true);
          overwritten[static_cast<std::size_t>(comm.rank())] = true;
          throw;
        }
        fill(plan, comm.rank(), true);
        overwritten[static_cast<std::size_t>(comm.rank())] = true;
      };
    };
    EXPECT_THROW(engine.run(program(true)), net::NetworkError)
        << describe(backend, kP);
    EXPECT_EQ(reads.load(), kP * kP) << describe(backend, kP);
    EXPECT_EQ(wrong.load(), 0) << describe(backend, kP);

    // The aborted run leaves the engine reusable.
    reads = 0;
    wrong = 0;
    for (auto& o : overwritten) o = false;
    EXPECT_NO_THROW(engine.run(program(false))) << describe(backend, kP);
    EXPECT_EQ(reads.load(), kP * kP) << describe(backend, kP);
    EXPECT_EQ(wrong.load(), 0) << describe(backend, kP);
  }
}

// ---------------------------------------------------------------------------
// fast-forwarded short collectives: bit-identical to messages, safe on abort
// ---------------------------------------------------------------------------

/// The longest vector of `T` that `allreduce` still sends on the short
/// schedule over `comm` (1 where every length is long, i.e. p = 1).
template <typename T>
std::size_t short_allreduce_max(const Comm& comm) {
  std::size_t len = 1;
  while (!detail::allreduce_is_long(comm, (len + 1) * sizeof(T))) ++len;
  return len;
}

/// The shortest vector of `T` that `allreduce` sends on the long schedule
/// over `comm`.
template <typename T>
std::size_t long_allreduce_min(const Comm& comm) {
  std::size_t len = 1;
  while (!detail::allreduce_is_long(comm, len * sizeof(T))) ++len;
  return len;
}

/// Replays taken by replayed_collectives on one communicator of size q.
std::int64_t replays_on(int q) { return q >= 2 ? q + 26 : 0; }

/// Every fast-forwarded collective on `comm`, with seeded compute and phase
/// changes between them, so that receivers both wait for arrivals and
/// drain late ones: bcast from every root; allreduce with a sum, a
/// floating-point sum (its bits depend on the fold's tree), an affine
/// composition and multiselect's pick_slot (both non-commutative), and
/// exscan_add, each at lengths 1, 8, the longest short vector and the
/// shortest long one; the long allreduce of 4 KiB elements, an affine
/// composition and a floating-point sum, at its shortest length, which is
/// shorter than the 2^⌊log2 q⌋ participants on every q tested, so that
/// blocks are empty; allreduce_then on the longest short and the shortest
/// long sum; then allgather_merge twice, on runs of per-member lengths
/// (some empty) with many equal keys whose payloads differ. Appends every
/// result to `got`. Takes q + 26 replays on q ≥ 2 members.
void replayed_collectives(Comm& comm, Xoshiro256& rng,
                          std::vector<std::uint64_t>& got) {
  const int p = comm.size();
  const int me = comm.rank();
  int step = 0;
  const auto jitter = [&] {
    comm.set_phase(++step % 3 == 0 ? net::Phase::kSplitterSelection
                                   : net::Phase::kOther);
    comm.charge(4e-6 * rng.uniform());
  };
  const auto record = [&got](const auto& v, auto word) {
    got.push_back(v.size());
    for (const auto& x : v) word(x);
  };
  const auto u64 = [&got](std::uint64_t x) { got.push_back(x); };
  const auto affine = [&u64](const Affine& f) {
    u64(f.a);
    u64(f.b);
  };
  const auto float_bits = [&u64](double x) {
    u64(std::bit_cast<std::uint64_t>(x));
  };

  for (int root = 0; root < p; ++root) {
    jitter();
    // A receiver's own vector, of any length, is replaced by the root's.
    std::vector<std::uint64_t> v(rng() % 4);
    if (me == root) {
      v.resize(1 + static_cast<std::size_t>(root) % 6);
      for (auto& x : v) x = rng();
    }
    bcast(comm, v, root);
    record(v, u64);
  }
  using Slot64 = select::detail::PivotSlot<std::uint64_t>;
  for (int k = 0; k < 4; ++k) {
    const auto len_of = [&comm, k](auto elem) {
      using E = decltype(elem);
      return k == 0   ? std::size_t{1}
             : k == 1 ? std::size_t{8}
             : k == 2 ? short_allreduce_max<E>(comm)
                      : long_allreduce_min<E>(comm);
    };
    jitter();
    std::vector<std::int64_t> sum(len_of(std::int64_t{}));
    for (auto& x : sum) x = static_cast<std::int64_t>(rng() % 1000);
    record(allreduce_add(comm, std::move(sum)),
           [&](std::int64_t x) { u64(static_cast<std::uint64_t>(x)); });

    jitter();
    std::vector<double> fsum(len_of(double{}));
    for (auto& x : fsum) x = rng.uniform() * 1e6 - 5e5;
    record(allreduce(comm, std::move(fsum), std::plus<double>{}), float_bits);

    jitter();
    std::vector<Affine> maps(len_of(Affine{}));
    for (std::size_t i = 0; i < maps.size(); ++i)
      maps[i] = affine_input(me + 1000 * step, i);
    record(allreduce(comm, std::move(maps), then), affine);

    jitter();
    std::vector<Slot64> slots(len_of(Slot64{}));
    for (auto& slot : slots) {
      slot.has = rng() % 4 == 0 ? 1 : 0;
      slot.value = rng();
    }
    record(allreduce(comm, std::move(slots),
                     select::detail::pick_slot<std::uint64_t>),
           [&](const Slot64& slot) {
             u64(slot.has);
             u64(slot.value);
           });

    jitter();
    std::vector<std::int64_t> scan(len_of(std::int64_t{}));
    for (auto& x : scan) x = static_cast<std::int64_t>(rng() % 1000);
    record(exscan_add(comm, scan),
           [&](std::int64_t x) { u64(static_cast<std::uint64_t>(x)); });
  }
  {
    jitter();
    std::vector<Wide<Affine>> maps(long_allreduce_min<Wide<Affine>>(comm));
    if (p >= 2) {
      EXPECT_LT(maps.size(), std::size_t{1} << floor_log2(
                                 static_cast<std::uint64_t>(p)));
    }
    for (std::size_t i = 0; i < maps.size(); ++i)
      maps[i] = widen_input<Affine>(affine_input)(me + 1000 * step, i);
    record(allreduce(comm, std::move(maps), widen<Affine>(then)),
           [&](const Wide<Affine>& w) { record(w.e, affine); });

    jitter();
    std::vector<Wide<double>> fsum(long_allreduce_min<Wide<double>>(comm));
    for (auto& w : fsum)
      for (auto& x : w.e) x = rng.uniform() * 1e6 - 5e5;
    record(allreduce(comm, std::move(fsum), widen<double>(std::plus<double>{})),
           [&](const Wide<double>& w) { record(w.e, float_bits); });
  }
  for (const bool is_long : {false, true}) {
    // f: the prefix sums of the sum.
    jitter();
    std::vector<std::int64_t> sum(is_long
                                      ? long_allreduce_min<std::int64_t>(comm)
                                      : short_allreduce_max<std::int64_t>(comm));
    for (auto& x : sum) x = static_cast<std::int64_t>(rng() % 1000);
    const auto prefix = allreduce_then(
        comm, std::move(sum), std::plus<std::int64_t>{},
        [](const std::vector<std::int64_t>& total) {
          std::vector<std::int64_t> out(total.size());
          std::partial_sum(total.begin(), total.end(), out.begin());
          return out;
        });
    record(*prefix,
           [&](std::int64_t x) { u64(static_cast<std::uint64_t>(x)); });
  }
  for (const std::uint64_t max_len : {5, 40}) {
    jitter();
    std::vector<Keyed> run(me % 3 == 0 ? 0 : rng() % (max_len + 1));
    for (auto& x : run) x = {rng() % 4, rng()};
    std::sort(run.begin(), run.end(), key_less);
    record(allgather_merge(comm, std::span<const Keyed>(run), key_less),
           [&](const Keyed& x) {
             u64(x.key);
             u64(x.payload);
           });
  }
}

/// replayed_collectives on the world, on a split_strided slice (one parity
/// class) and on a split(color, key) whose keys permute the members, at p
/// on `backend`, with fast-forward on or off.
std::vector<PeOutcome> run_replayed_collectives(int p, const Backend& backend,
                                                bool fast_forward) {
  ScopedEnv workers("PMPS_FIBER_WORKERS",
                    std::to_string(backend.workers).c_str());
  Engine engine(p, noisy_machine(fast_forward), 23, backend.kind);
  std::vector<PeOutcome> out(static_cast<std::size_t>(p));
  engine.run([&](Comm& world) {
    const int me = world.rank();
    Xoshiro256 rng(99, static_cast<std::uint64_t>(me));
    std::vector<std::uint64_t>& got = out[static_cast<std::size_t>(me)].got;
    replayed_collectives(world, rng, got);
    Comm strided = world.split_strided(me % 2, 2, (p - me % 2 + 1) / 2);
    replayed_collectives(strided, rng, got);
    Comm permuted = world.split(me % 3, (me * 7 + 3) % (p + 1));
    replayed_collectives(permuted, rng, got);
  });
  std::int64_t replays = replays_on(p) + replays_on((p + 1) / 2) +
                         replays_on(p / 2);
  for (int color = 0; color < 3; ++color)
    replays += replays_on((p - color + 2) / 3);
  if (fast_forward) {
    EXPECT_EQ(engine.report().engine.collective_fast_forwards, replays)
        << describe(backend, p);
  } else {
    expect_no_fast_forward(engine, describe(backend, p));
  }
  capture(engine, out);
  return out;
}

TEST(FastForward, ReplaysMatchMessagePath) {
  for (const Backend& backend : backends({1, 3})) {
    for (const int p : {1, 2, 3, 5, 7, 64, 100}) {
      const auto replayed = run_replayed_collectives(p, backend, true);
      const auto messages = run_replayed_collectives(p, backend, false);
      for (int pe = 0; pe < p; ++pe) {
        const auto& r = replayed[static_cast<std::size_t>(pe)];
        const auto& m = messages[static_cast<std::size_t>(pe)];
        EXPECT_FALSE(r.got.empty());
        EXPECT_TRUE(r == m) << describe(backend, p) << " pe=" << pe;
      }
    }
  }
}

TEST(FastForward, AbortWhileParkedInReplayUnwindsEveryPe) {
  // Every PE but the last enters a fast-forwarded allreduce (short or
  // long), exscan or allgather_merge and parks; the last waits on a message
  // nobody sends.
  // The host then aborts the run, which wakes the parked members and the
  // waiter. The waiter enters the collective after the abort, so it is the
  // last arriver: it must throw RunAborted instead of replaying over the
  // vectors of members that have already unwound. No replay may run — no
  // combine or comparison, no charge.
  constexpr int kP = 8;
  for (const Backend& backend : backends({1, 3})) {
    ScopedEnv workers("PMPS_FIBER_WORKERS",
                      std::to_string(backend.workers).c_str());
    for (const std::string op :
         {"allreduce", "long allreduce", "exscan", "allgather_merge"}) {
      const std::string what = describe(backend, kP) + " " + op;
      Engine engine(kP, noisy_machine(), 31, backend.kind);
      std::atomic<int> parking{0}, unwound{0}, returned{0}, combines{0};
      std::array<double, kP> entry_clock{};
      const auto program = [&](Comm& comm) {
        if (comm.rank() == kP - 1) {
          try {
            comm.recv_bytes(0, comm.next_tag_block());
          } catch (const net::RunAborted&) {
          }
        }
        comm.charge(1e-6 * (comm.rank() + 1));
        entry_clock[static_cast<std::size_t>(comm.rank())] = comm.now();
        std::vector<std::int64_t> v(
            op == "long allreduce" ? long_allreduce_min<std::int64_t>(comm)
                                   : 16,
            comm.rank());
        try {
          parking.fetch_add(1);
          if (op == "exscan") {
            v = exscan_add(comm, v);
          } else if (op != "allgather_merge") {
            v = allreduce(comm, std::move(v),
                          [&](std::int64_t a, std::int64_t b) {
                            combines.fetch_add(1);
                            return a - b;
                          });
          } else {
            // One element per run, so that checking a run is sorted makes
            // no comparison: every counted one is a merge's.
            v = allgather_merge(comm, std::span<const std::int64_t>(v).first(1),
                                [&](std::int64_t a, std::int64_t b) {
                                  combines.fetch_add(1);
                                  return a < b;
                                });
          }
        } catch (const net::RunAborted&) {
          unwound.fetch_add(1);
          throw;
        }
        returned.fetch_add(1);
      };
      std::thread host([&] {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (parking.load() < kP - 1 &&
               std::chrono::steady_clock::now() < until)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        engine.abort_run("aborted by the host");
      });
      EXPECT_THROW(engine.run(program), net::NetworkError) << what;
      host.join();
      EXPECT_EQ(unwound.load(), kP) << what;
      EXPECT_EQ(returned.load(), 0) << what;
      EXPECT_EQ(combines.load(), 0) << what;
      EXPECT_EQ(engine.report().engine.collective_fast_forwards, 0) << what;
      for (int pe = 0; pe < kP; ++pe)
        EXPECT_EQ(engine.pe_context(pe).clock,
                  entry_clock[static_cast<std::size_t>(pe)])
            << what << " pe=" << pe;

      // The engine's next run matches a fresh engine's, bit for bit.
      const auto clean_run = [](Engine& e) {
        std::vector<PeOutcome> out(kP);
        e.run([&](Comm& comm) {
          Xoshiro256 rng(5, static_cast<std::uint64_t>(comm.rank()));
          replayed_collectives(comm, rng,
                               out[static_cast<std::size_t>(comm.rank())].got);
          barrier(comm);
        });
        capture(e, out);
        return out;
      };
      Engine fresh(kP, noisy_machine(), 31, backend.kind);
      EXPECT_TRUE(clean_run(engine) == clean_run(fresh)) << what;
    }
  }
}

TEST(AllreduceThen, DerivesOncePerCommunicatorOnTheReplay) {
  // f (here: the prefix sums of the sum) runs once per communicator on the
  // replay, which hands every member the same object, and once per PE on
  // messages (under the neutral base NetworkModel). Both paths give every
  // member the prefix sums of its communicator's sum, on the short and the
  // long schedule, on the world and on its two halves.
  const auto input = [](int pe, std::size_t i) {
    return static_cast<std::int64_t>(
        mix64(static_cast<std::uint64_t>(pe) * 1000003u + i) % 1000);
  };
  for (const Backend& backend : backends({1, 3})) {
    ScopedEnv workers("PMPS_FIBER_WORKERS",
                      std::to_string(backend.workers).c_str());
    for (const int p : {1, 2, 5, 8, 64}) {
      for (const int groups : {1, 2}) {
        if (p % groups != 0) continue;
        const int q = p / groups;
        for (const bool is_long : {false, true}) {
          const std::string what = describe(backend, p) + " groups=" +
                                   std::to_string(groups) +
                                   (is_long ? " long" : " short");
          std::vector<std::vector<std::int64_t>> by_path[2];
          for (const bool fast_forward : {true, false}) {
            MachineParams m = MachineParams::supermuc_like();
            if (!fast_forward) m.model = std::make_shared<net::NetworkModel>();
            Engine engine(p, m, 7, backend.kind);
            std::atomic<int> calls{0};
            std::vector<const void*> object(static_cast<std::size_t>(p));
            auto& got = by_path[fast_forward ? 0 : 1];
            got.assign(static_cast<std::size_t>(p), {});
            engine.run([&](Comm& world) {
              const int me = world.rank();
              Comm comm = world.split_consecutive(groups);
              std::vector<std::int64_t> v(
                  is_long ? long_allreduce_min<std::int64_t>(comm)
                          : short_allreduce_max<std::int64_t>(comm));
              for (std::size_t i = 0; i < v.size(); ++i) v[i] = input(me, i);
              const auto derived = allreduce_then(
                  comm, std::move(v), std::plus<std::int64_t>{},
                  [&calls](const std::vector<std::int64_t>& sum) {
                    calls.fetch_add(1);
                    std::vector<std::int64_t> prefix(sum.size());
                    std::partial_sum(sum.begin(), sum.end(), prefix.begin());
                    return prefix;
                  });
              object[static_cast<std::size_t>(me)] = derived.get();
              got[static_cast<std::size_t>(me)] = *derived;
            });
            EXPECT_EQ(calls.load(), fast_forward && q >= 2 ? groups : p)
                << what;
            EXPECT_EQ(engine.report().engine.collective_fast_forwards,
                      fast_forward && q >= 2 ? groups : 0)
                << what;
            for (int pe = 0; pe < p; ++pe) {
              const auto& mine = got[static_cast<std::size_t>(pe)];
              EXPECT_FALSE(mine.empty()) << what;
              std::int64_t acc = 0;
              for (std::size_t i = 0; i < mine.size(); ++i) {
                for (int r = pe - pe % q; r < pe - pe % q + q; ++r)
                  acc += input(r, i);
                ASSERT_EQ(mine[i], acc) << what << " pe=" << pe << " i=" << i;
              }
              if (fast_forward && q >= 2) {
                EXPECT_EQ(object[static_cast<std::size_t>(pe)],
                          object[static_cast<std::size_t>(pe - pe % q)])
                    << what << " pe=" << pe;
              }
            }
          }
          EXPECT_EQ(by_path[0], by_path[1]) << what;
        }
      }
    }
  }
}

/// Polls `flag` every millisecond for at most `limit`; returns its value.
bool wait_for(const std::atomic<bool>& flag,
              std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!flag && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return flag.load();
}

TEST(FastForward, ReplaysOfDisjointCommunicatorsRunInParallel) {
  // The world splits into its even and odd halves, and each half meets in
  // one rendezvous whose callback waits, for at most 5 s, until the other
  // half's callback has started. Each cell has its own lock, so both see
  // each other; one lock for the whole board would let only the second
  // see the first. Fibers are pinned to worker pe % workers, so on two
  // workers the halves run on different ones, and one half's waiting
  // callback, which blocks its worker, never holds up the other half. In
  // the second leg the host aborts the run while both callbacks wait. The
  // abort takes each cell's lock, so it wakes nobody mid-callback: every
  // member is released and returns.
  constexpr int kP = 8;
  const auto clean_run = [](Engine& e) {
    std::vector<PeOutcome> out(kP);
    e.run([&](Comm& world) {
      const int me = world.rank();
      Comm half = world.split_strided(me % 2, 2, kP / 2);
      Xoshiro256 rng(5, static_cast<std::uint64_t>(me));
      replayed_collectives(half, rng, out[static_cast<std::size_t>(me)].got);
      replayed_collectives(world, rng, out[static_cast<std::size_t>(me)].got);
    });
    capture(e, out);
    return out;
  };
  for (const Backend& backend : backends({2})) {
    ScopedEnv workers("PMPS_FIBER_WORKERS",
                      std::to_string(backend.workers).c_str());
    for (const bool abort : {false, true}) {
      const std::string what =
          describe(backend, kP) + (abort ? " abort" : " clean");
      Engine engine(kP, noisy_machine(), 41, backend.kind);
      std::array<std::atomic<bool>, 2> started{};
      std::atomic<bool> aborting{false}, aborted{false};
      std::atomic<int> waiting{0}, saw_other{0}, released{0}, unwound{0};
      const auto program = [&](Comm& world) {
        const int half = world.rank() % 2;
        Comm comm = world.split_strided(half, 2, kP / 2);
        try {
          comm.rendezvous(net::RendezvousKind::kReplay, [&] {
            started[static_cast<std::size_t>(half)] = true;
            waiting.fetch_add(1);
            if (wait_for(started[static_cast<std::size_t>(1 - half)]))
              saw_other.fetch_add(1);
            if (abort && wait_for(aborting))
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
          });
        } catch (const net::RunAborted&) {
          unwound.fetch_add(1);
          throw;
        }
        released.fetch_add(1);
        if (abort) wait_for(aborted);  // so that the run sees the abort
      };
      if (abort) {
        std::thread host([&] {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (waiting.load() < 2 && std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          aborting = true;
          engine.abort_run("aborted by the host");
          aborted = true;
        });
        EXPECT_THROW(engine.run(program), net::NetworkError) << what;
        host.join();
      } else {
        EXPECT_NO_THROW(engine.run(program)) << what;
      }
      EXPECT_EQ(saw_other.load(), 2) << what;
      EXPECT_EQ(released.load(), kP) << what;
      EXPECT_EQ(unwound.load(), 0) << what;
      EXPECT_EQ(engine.report().engine.collective_fast_forwards, 2) << what;

      // The engine's next run matches a fresh engine's, bit for bit.
      Engine fresh(kP, noisy_machine(), 41, backend.kind);
      EXPECT_TRUE(clean_run(engine) == clean_run(fresh)) << what;
    }
  }
}

TEST(FastForward, RendezvousCellCreatedAfterAnAbortThrows) {
  // PE 0 waits on a message nobody sends. Once PE 0 runs, the host aborts
  // the run (an abort before the run starts would be reset by it). PE 1
  // waits for that abort, and only then enters a barrier, the run's first
  // rendezvous, so its cell is created after the abort swept the board.
  // PE 0 unwinds and never arrives, so PE 1 must throw RunAborted at once
  // instead of parking. Should it park, the host sweeps the board again
  // after 2 s, which releases it: the test then fails instead of hanging.
  for (const Backend& backend : backends({1, 2})) {
    ScopedEnv workers("PMPS_FIBER_WORKERS",
                      std::to_string(backend.workers).c_str());
    Engine engine(2, MachineParams::supermuc_like(), 43, backend.kind);
    std::atomic<bool> running{false}, aborted{false}, done{false},
        swept_again{false};
    std::atomic<int> threw{0};
    const auto program = [&](Comm& comm) {
      if (comm.rank() == 0) {
        running = true;
        comm.recv_bytes(1, comm.next_tag_block());
        return;
      }
      wait_for(aborted);
      try {
        barrier(comm);
      } catch (const net::RunAborted&) {
        threw.fetch_add(1);
        done = true;
        throw;
      }
      done = true;
    };
    std::thread host([&] {
      wait_for(running, std::chrono::seconds(10));
      engine.abort_run("aborted by the host");
      aborted = true;
      if (!wait_for(done, std::chrono::seconds(2))) {
        swept_again = true;
        engine.abort_run("aborted again");
      }
    });
    EXPECT_THROW(engine.run(program), net::NetworkError)
        << describe(backend, 2);
    host.join();
    EXPECT_EQ(threw.load(), 1) << describe(backend, 2);
    EXPECT_FALSE(swept_again.load()) << describe(backend, 2);
  }
}

}  // namespace
}  // namespace pmps::coll
