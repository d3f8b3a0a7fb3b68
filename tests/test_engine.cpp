// Tests for the simulated cluster runtime: machine model, mailboxes,
// virtual clocks, determinism, communicator splitting, phase accounting.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ams/ams_sort.hpp"
#include "coll/collectives.hpp"
#include "harness/runner.hpp"
#include "harness/workloads.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"
#include "net/fiber.hpp"
#include "net/machine.hpp"
#include "net/network_model.hpp"
#include "test_backends.hpp"

namespace pmps::net {
namespace {

TEST(Machine, LevelBetween) {
  auto m = MachineParams::supermuc_like();
  EXPECT_EQ(m.level_between(0, 0), LinkLevel::kSelf);
  EXPECT_EQ(m.level_between(0, 15), LinkLevel::kNode);
  EXPECT_EQ(m.level_between(0, 16), LinkLevel::kIsland);
  EXPECT_EQ(m.level_between(0, 16 * 512 - 1), LinkLevel::kIsland);
  EXPECT_EQ(m.level_between(0, 16 * 512), LinkLevel::kGlobal);
  EXPECT_EQ(m.level_between(16 * 512, 16 * 512 + 3), LinkLevel::kNode);
}

TEST(Machine, CostsMonotone) {
  auto m = MachineParams::supermuc_like();
  EXPECT_LT(m.message_cost(LinkLevel::kNode, 1000),
            m.message_cost(LinkLevel::kIsland, 1000));
  EXPECT_LT(m.message_cost(LinkLevel::kIsland, 1000),
            m.message_cost(LinkLevel::kGlobal, 1000));
  EXPECT_LT(m.sort_cost(1000), m.sort_cost(100000));
  EXPECT_GT(m.sort_cost(1000), 0);
  EXPECT_EQ(m.sort_cost(0), 0);
}

TEST(Engine, RunsAllPes) {
  Engine engine(8, MachineParams::supermuc_like());
  std::atomic<int> count{0};
  engine.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 8);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(Engine, PointToPointMovesData) {
  Engine engine(4, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    const std::uint64_t tag = comm.next_tag_block();
    if (comm.rank() == 0) {
      std::vector<std::int64_t> payload{1, 2, 3};
      comm.send<std::int64_t>(1, tag, payload);
    } else if (comm.rank() == 1) {
      auto v = comm.recv<std::int64_t>(0, tag);
      EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2, 3}));
    }
  });
}

TEST(Engine, VirtualTimeAdvancesOnMessages) {
  Engine engine(2, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    const std::uint64_t tag = comm.next_tag_block();
    if (comm.rank() == 0) {
      std::vector<std::int64_t> payload(1000, 7);
      comm.send<std::int64_t>(1, tag, payload);
      EXPECT_GT(comm.now(), 0.0);
    } else {
      (void)comm.recv<std::int64_t>(0, tag);
      EXPECT_GT(comm.now(), 0.0);
    }
  });
  // Receiver cannot finish before sender.
  EXPECT_GE(engine.pe_context(1).clock, engine.pe_context(0).clock * 0.99);
  EXPECT_GT(engine.report().wall_time, 0.0);
  EXPECT_EQ(engine.report().max_messages_sent, 1);
  EXPECT_EQ(engine.report().max_messages_received, 1);
}

TEST(Engine, SelfSendIsNotAMessage) {
  Engine engine(2, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    const std::uint64_t tag = comm.next_tag_block();
    std::vector<std::int64_t> payload{int64_t{42}};
    comm.send<std::int64_t>(comm.rank(), tag, payload);
    auto v = comm.recv<std::int64_t>(comm.rank(), tag);
    EXPECT_EQ(v[0], 42);
  });
  EXPECT_EQ(engine.report().max_messages_sent, 0);
}

TEST(Engine, DeterministicVirtualTime) {
  auto run_once = [] {
    Engine engine(16, MachineParams::supermuc_like(), /*seed=*/5);
    engine.run([&](Comm& comm) {
      std::vector<std::int64_t> v{comm.rank()};
      v = coll::allreduce_add(comm, std::move(v));
      coll::barrier(comm);
    });
    return engine.report().wall_time;
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, 0.0);
}

TEST(Engine, FreeModeChargesNothing) {
  Engine engine(4, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    {
      FreeModeGuard guard(comm.ctx());
      coll::barrier(comm);
      std::vector<std::int64_t> v{1};
      v = coll::allreduce_add(comm, std::move(v));
      EXPECT_EQ(v[0], 4);
    }
    EXPECT_EQ(comm.now(), 0.0);
  });
  EXPECT_EQ(engine.report().wall_time, 0.0);
  EXPECT_EQ(engine.report().max_messages_sent, 0);
}

TEST(Engine, PhaseAccounting) {
  Engine engine(2, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    comm.set_phase(Phase::kLocalSort);
    comm.charge(1.0);
    comm.set_phase(Phase::kDataDelivery);
    comm.charge(0.5);
  });
  const auto rep = engine.report();
  EXPECT_DOUBLE_EQ(rep.phase(Phase::kLocalSort), 1.0);
  EXPECT_DOUBLE_EQ(rep.phase(Phase::kDataDelivery), 0.5);
  EXPECT_DOUBLE_EQ(rep.wall_time, 1.5);
}

TEST(Engine, SplitConsecutive) {
  Engine engine(8, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    Comm sub = comm.split_consecutive(4);  // 4 groups of 2
    EXPECT_EQ(sub.size(), 2);
    EXPECT_EQ(sub.rank(), comm.rank() % 2);
    EXPECT_EQ(sub.member(sub.rank()), comm.rank());
    // Virtual time unaffected by split.
    EXPECT_EQ(comm.now(), 0.0);
    // Sub-communicator works for messaging.
    const std::uint64_t tag = sub.next_tag_block();
    if (sub.rank() == 0) {
      sub.send_one<std::int64_t>(1, tag, comm.rank());
    } else {
      const auto v = sub.recv_one<std::int64_t>(0, tag);
      EXPECT_EQ(v, comm.rank() - 1);
    }
  });
}

TEST(Engine, SplitByColorAndKey) {
  Engine engine(6, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    // Odd/even split with reversed key order.
    Comm sub = comm.split(comm.rank() % 2, -comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // Reversed ranks: highest original rank gets rank 0.
    const int expected_rank = (5 - comm.rank()) / 2;
    EXPECT_EQ(sub.rank(), expected_rank);
  });
}

/// Checks that `local` has the members and rank of `reference`, sends no
/// message building them, and carries an allreduce.
void expect_same_comm(Comm& local, Comm& reference, const std::string& what) {
  ASSERT_EQ(local.size(), reference.size()) << what;
  EXPECT_EQ(local.rank(), reference.rank()) << what;
  std::int64_t sum = 0;
  for (int i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local.member(i), reference.member(i)) << what << " member " << i;
    sum += local.member(i);
  }
  EXPECT_EQ(coll::allreduce_add_one(local, local.world_rank()), sum) << what;
}

TEST(Engine, LocalSubCommunicatorsMatchColorKeySplit) {
  // Every consecutive group and every row and column of the a×b grid built
  // locally must equal split(color, key) with the matching color and key.
  for (const auto& backend : test_support::backends({1, 3})) {
    test_support::ScopedEnv workers(
        "PMPS_FIBER_WORKERS", std::to_string(backend.workers).c_str());
    for (const int p : {1, 2, 3, 16, 64, 256}) {
      const std::string where = test_support::describe(backend, p);
      int b = 1;  // grid columns: the largest divisor with b·b ≤ p
      for (int d = 1; d * d <= p; ++d)
        if (p % d == 0) b = d;
      const int a = p / b;
      Engine engine(p, MachineParams::supermuc_like(), 3, backend.kind);
      engine.run([&](Comm& comm) {
        const int me = comm.rank();
        const int row = me / b;
        const int col = me % b;
        Comm row_local = comm.split_strided(row * b, 1, b);
        Comm col_local = comm.split_strided(col, b, a);
        std::vector<Comm> groups_local;
        std::vector<int> group_counts;
        for (int g = 1; g <= p; ++g) {
          if (p % g != 0) continue;
          groups_local.push_back(comm.split_consecutive(g));
          group_counts.push_back(g);
        }
        // Built from the PE's own knowledge: no message, no virtual time.
        EXPECT_EQ(comm.ctx().stats.messages_sent, 0) << where;
        EXPECT_EQ(comm.now(), 0.0) << where;

        Comm row_ref = comm.split(row, col);
        Comm col_ref = comm.split(a + col, row);
        expect_same_comm(row_local, row_ref, where + " row");
        expect_same_comm(col_local, col_ref, where + " column");
        for (std::size_t i = 0; i < groups_local.size(); ++i) {
          const int size = p / group_counts[i];
          Comm ref = comm.split(me / size, me % size);
          expect_same_comm(groups_local[i], ref,
                           where + " groups=" + std::to_string(group_counts[i]));
        }
      });
    }
  }
}

TEST(Engine, NoisePerturbsTimesDeterministically) {
  auto noisy = MachineParams::supermuc_like();
  noisy.comm_noise_frac = 0.3;
  auto run_once = [&](std::uint64_t seed) {
    Engine engine(8, noisy, seed);
    engine.run([&](Comm& comm) { coll::barrier(comm); });
    return engine.report().wall_time;
  };
  EXPECT_EQ(run_once(1), run_once(1));   // same seed → same time
  EXPECT_NE(run_once(1), run_once(2));   // noise depends on seed
}

TEST(Engine, ManyPes) {
  Engine engine(128, MachineParams::supermuc_like());
  engine.run([&](Comm& comm) {
    const auto v = coll::allreduce_add_one(comm, 1);
    EXPECT_EQ(v, 128);
  });
}

TEST(Engine, FiberSchedulerHandlesLargePeCounts) {
  // The point of the fiber backend: PE counts far beyond what one OS thread
  // per PE could sustain. p = 1024 with communication-heavy collectives.
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  Engine engine(1024, MachineParams::supermuc_like(), /*seed=*/3,
                EngineBackend::kFibers);
  ASSERT_EQ(engine.backend(), EngineBackend::kFibers);
  engine.run([&](Comm& comm) {
    const auto v = coll::allreduce_add_one(comm, 1);
    EXPECT_EQ(v, 1024);
    coll::barrier(comm);
  });
  EXPECT_GT(engine.report().wall_time, 0.0);
}

// Everything a run produces, observable per PE — used to assert that the
// fiber scheduler and the legacy thread backend are bit-for-bit identical.
struct RunObservation {
  std::vector<double> clocks;
  std::vector<std::array<double, kNumPhases>> phase_times;
  std::vector<std::int64_t> messages_sent;
  std::vector<std::vector<std::uint64_t>> outputs;

  friend bool operator==(const RunObservation&, const RunObservation&) =
      default;
};

RunObservation run_ams_under(EngineBackend backend, int p,
                             std::int64_t n_per_pe, std::uint64_t seed) {
  Engine engine(p, MachineParams::supermuc_like(), seed, backend);
  RunObservation obs;
  obs.outputs.resize(static_cast<std::size_t>(p));
  engine.run([&](Comm& comm) {
    auto data = harness::make_workload(harness::Workload::kUniform,
                                       comm.rank(), p, n_per_pe, seed);
    ams::AmsConfig cfg;
    cfg.levels = 2;
    cfg.seed = seed;
    ams::ams_sort(comm, data, cfg);
    obs.outputs[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  for (int i = 0; i < p; ++i) {
    const PeContext& ctx = engine.pe_context(i);
    obs.clocks.push_back(ctx.clock);
    obs.phase_times.push_back(ctx.stats.phase_time);
    obs.messages_sent.push_back(ctx.stats.messages_sent);
  }
  return obs;
}

TEST(Engine, FiberAndThreadBackendsBitIdentical) {
  // Same seeded AMS-sort config under both schedulers: identical virtual
  // times, identical per-phase accounting, identical sorted output on every
  // PE. Determinism must not depend on how PEs are scheduled.
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const auto fibers =
        run_ams_under(EngineBackend::kFibers, /*p=*/32, /*n_per_pe=*/300, seed);
    const auto threads = run_ams_under(EngineBackend::kThreads, 32, 300, seed);
    EXPECT_TRUE(fibers == threads) << "backends diverged for seed " << seed;
  }
}

TEST(Engine, ReportIdenticalAcrossBackendsWithNoise) {
  // Noise streams are per-PE RNGs, so even noisy configs must agree.
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  auto noisy = MachineParams::supermuc_like();
  noisy.comm_noise_frac = 0.3;
  noisy.congestion_noise_frac = 0.2;
  auto run_under = [&](EngineBackend backend) {
    Engine engine(24, noisy, /*seed=*/11, backend);
    engine.run([&](Comm& comm) {
      std::vector<std::int64_t> v{comm.rank() + 1};
      v = coll::allreduce_add(comm, std::move(v));
      coll::barrier(comm);
    });
    return engine.report();
  };
  const RunReport f = run_under(EngineBackend::kFibers);
  const RunReport t = run_under(EngineBackend::kThreads);
  EXPECT_EQ(f.wall_time, t.wall_time);
  EXPECT_EQ(f.phase_max, t.phase_max);
  EXPECT_EQ(f.max_messages_sent, t.max_messages_sent);
  EXPECT_EQ(f.max_messages_received, t.max_messages_received);
  EXPECT_EQ(f.total_bytes_sent, t.total_bytes_sent);
}

// --- clean-model golden regression -----------------------------------------
//
// The NetworkModel plug point must leave the default path untouched: the
// AMS and RLM hexfloat summaries were captured from seeded runs *before*
// fault injection existed, and every backend / worker-count combination must
// still reproduce them byte for byte. Their allreduces all run the short
// (binomial) schedule; kGoldenAmsLong, captured when the long-vector
// allreduce landed, pins a shape whose bucket-size allreduce runs the long
// one. If an intentional cost-model change ever shifts them,
// re-capture with the printf format below.

std::string canonical_summary(const harness::RunResult& res) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "wall=%a other=%a split=%a bucket=%a deliv=%a sort=%a "
      "sent=%lld recv=%lld bytes=%lld total=%lld imb=%a ok=%d",
      res.report.wall_time, res.report.phase(Phase::kOther),
      res.report.phase(Phase::kSplitterSelection),
      res.report.phase(Phase::kBucketProcessing),
      res.report.phase(Phase::kDataDelivery),
      res.report.phase(Phase::kLocalSort),
      static_cast<long long>(res.report.max_messages_sent),
      static_cast<long long>(res.report.max_messages_received),
      static_cast<long long>(res.report.total_bytes_sent),
      static_cast<long long>(res.check.total), res.check.imbalance,
      res.check.ok() ? 1 : 0);
  return buf;
}

std::string canonical_summary(const harness::RunConfig& cfg) {
  return canonical_summary(harness::run_sort_experiment(cfg));
}

constexpr const char* kGoldenAms =
    "wall=0x1.079fa1f257c1ep-13 other=0x1.930e4b587f2e5p-19 "
    "split=0x1.6e06cfe48787ep-15 bucket=0x1.aa20f2b637d78p-16 "
    "deliv=0x1.4ae490f4eb8b7p-16 sort=0x1.1cc5243a7c5d3p-15 "
    "sent=79 recv=76 bytes=307616 total=6400 imb=0x1.3d70a3d70a3dp-4 ok=1";

constexpr const char* kGoldenRlm =
    "wall=0x1.c6f2ba86134b7p-12 other=0x1.8b3a698a542f8p-18 "
    "split=0x1.8f1aa0d157842p-12 bucket=0x1.5c0c30ef4c0aep-18 "
    "deliv=0x1.5e566eeeed7c6p-16 sort=0x1.74c0c4f302f55p-16 "
    "sent=525 recv=414 bytes=135264 total=3600 imb=0x0p+0 ok=1";

constexpr const char* kGoldenAmsLong =
    "wall=0x1.f442b4dcee3a2p-12 other=0x1.9394deb5c45e9p-17 "
    "split=0x1.bb24ae8544506p-13 bucket=0x1.31b5b3fa3a11ap-14 "
    "deliv=0x1.631c9341f4fcep-13 sort=0x1.e3b1d2f22dcfap-17 "
    "sent=144 recv=144 bytes=5757896 total=12800 imb=0x1.47ae147ae148p-5 ok=1";

harness::RunConfig golden_ams_config() {
  harness::RunConfig cfg;
  cfg.p = 16;
  cfg.n_per_pe = 400;
  cfg.algorithm = harness::Algorithm::kAms;
  cfg.ams.levels = 2;
  cfg.seed = 7;
  return cfg;
}

/// 1-level AMS at p = 64: r = 64 groups × b = 16 buckets, so the
/// bucket-size allreduce carries 1024 words, past the long-vector
/// crossover, and fast_rank_select's row gossip hands every PE 1023
/// splitters.
harness::RunConfig golden_ams_long_config() {
  harness::RunConfig cfg;
  cfg.p = 64;
  cfg.n_per_pe = 200;
  cfg.algorithm = harness::Algorithm::kAms;
  cfg.ams.levels = 1;
  cfg.seed = 11;
  return cfg;
}

harness::RunConfig golden_rlm_config() {
  harness::RunConfig cfg;
  cfg.p = 12;
  cfg.n_per_pe = 300;
  cfg.algorithm = harness::Algorithm::kRlm;
  cfg.rlm.levels = 2;
  cfg.seed = 9;
  return cfg;
}

TEST(Engine, CleanModelMatchesPreFaultInjectionGoldens) {
  EXPECT_EQ(canonical_summary(golden_ams_config()), kGoldenAms);
  EXPECT_EQ(canonical_summary(golden_rlm_config()), kGoldenRlm);
  EXPECT_EQ(canonical_summary(golden_ams_long_config()), kGoldenAmsLong);
}

TEST(Engine, LongGoldenShapeRunsTheLongAllreduce) {
  Engine engine(64, MachineParams::supermuc_like(), /*seed=*/1);
  std::atomic<int> long_paths{0};
  engine.run([&](Comm& comm) {
    if (coll::detail::allreduce_is_long(comm, 1024 * sizeof(std::int64_t)))
      long_paths.fetch_add(1);
  });
  EXPECT_EQ(long_paths.load(), 64);
}

TEST(Engine, CleanModelGoldensHoldOnThreadBackend) {
  auto ams = golden_ams_config();
  ams.backend = EngineBackend::kThreads;
  auto rlm = golden_rlm_config();
  rlm.backend = EngineBackend::kThreads;
  auto ams_long = golden_ams_long_config();
  ams_long.backend = EngineBackend::kThreads;
  EXPECT_EQ(canonical_summary(ams), kGoldenAms);
  EXPECT_EQ(canonical_summary(rlm), kGoldenRlm);
  EXPECT_EQ(canonical_summary(ams_long), kGoldenAmsLong);
}

TEST(Engine, CleanModelGoldensHoldWithFastForwardDisabled) {
  // The base NetworkModel's hooks are neutral, so installing it only turns
  // the fast-forward off: the replayed collectives and the bulk sparse
  // exchange run message by message, with the dense Bruck counts exchange.
  // The fast-forward is only correct if both paths produce the same
  // virtual times — pin that with the goldens.
  const std::pair<harness::RunConfig, const char*> goldens[] = {
      {golden_ams_config(), kGoldenAms},
      {golden_rlm_config(), kGoldenRlm},
      {golden_ams_long_config(), kGoldenAmsLong}};
  for (auto [cfg, golden] : goldens) {
    cfg.machine.model = std::make_shared<NetworkModel>();
    const auto res = harness::run_sort_experiment(cfg);
    EXPECT_EQ(canonical_summary(res), golden);
    EXPECT_EQ(res.report.engine.collective_fast_forwards, 0) << golden;
    EXPECT_EQ(res.report.engine.bulk_exchanges, 0) << golden;
  }
}

TEST(Engine, ThreadsBackendRefusesHugePeCounts) {
  // One OS thread per PE cannot scale to paper-scale p; the engine must
  // refuse with a clear error instead of exhausting the process.
  setenv("PMPS_THREADS_MAX_P", "4", 1);
  Engine engine(8, MachineParams::supermuc_like(), /*seed=*/1,
                EngineBackend::kThreads);
  EXPECT_THROW(engine.run([](Comm&) {}), std::runtime_error);
  unsetenv("PMPS_THREADS_MAX_P");
  // Under the cap the same engine runs fine.
  std::atomic<int> count{0};
  engine.run([&](Comm&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(Engine, EngineStatsReportMemoryAndFastForwardCounters) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  Engine engine(64, MachineParams::supermuc_like(), /*seed=*/1,
                EngineBackend::kFibers);
  engine.run([&](Comm& comm) {
    // A ring shift puts messages through the mailboxes; the allreduce and
    // the barrier are replayed without any.
    const std::uint64_t tag = comm.next_tag_block();
    comm.send_one<int>((comm.rank() + 1) % 64, tag, comm.rank());
    EXPECT_EQ(comm.recv_one<int>((comm.rank() + 63) % 64, tag),
              (comm.rank() + 63) % 64);
    const auto v = coll::allreduce_add_one(comm, 1);
    EXPECT_EQ(v, 64);
    coll::barrier(comm);
  });
  const EngineStats es = engine.report().engine;
  EXPECT_GE(es.mailbox_shards, 1);
  EXPECT_GT(es.mailbox_nodes_total_high_water, 0);
  EXPECT_GE(es.mailbox_nodes_total_high_water, es.mailbox_node_high_water);
  EXPECT_GT(es.peak_stack_bytes, 0);
  EXPECT_GT(es.stack_bytes_reserved, 0);
  EXPECT_EQ(es.collective_fast_forwards, 2);  // the allreduce and barrier
}

TEST(Engine, StackPoolReusesStacksAcrossRuns) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  Engine engine(32, MachineParams::supermuc_like(), /*seed=*/1,
                EngineBackend::kFibers);
  for (int r = 0; r < 4; ++r)
    engine.run([](Comm& comm) { coll::barrier(comm); });
  const EngineStats es = engine.report().engine;
  // 4 runs × 32 fibers acquired, but the pool never needed more than one
  // run's worth of stacks: exits recycle stacks instead of unmapping them.
  EXPECT_GE(es.stack_acquires, 4 * 32);
  EXPECT_LE(es.stacks, 32 + 4);  // small slack for worker-local caching
  EXPECT_GT(es.stack_acquires, es.stacks);
}

// Touches ~64 KiB of stack, then blocks deep inside it (paired exchange with
// the neighbour PE), so the pool's residency tracking sees the deep frames.
__attribute__((noinline)) void deep_exchange(Comm& comm, std::uint64_t tag) {
  std::array<char, 64 * 1024> pad;
  pad.fill(static_cast<char>(comm.rank() + 1));
  const int partner = comm.rank() ^ 1;
  comm.send_one<std::int64_t>(partner, tag, pad[1234]);
  const auto v = comm.recv_one<std::int64_t>(partner, tag);
  EXPECT_EQ(v, partner + 1);
}

TEST(Engine, LongParkReclaimsColdStackPages) {
  // After a fiber blocked deep (64 KiB of live frames) and later parks on a
  // barrier with a shallow stack, the cold span below the parked frames goes
  // back to the kernel via madvise(MADV_DONTNEED).
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  Engine engine(16, MachineParams::supermuc_like(), /*seed=*/1,
                EngineBackend::kFibers);
  engine.run([&](Comm& comm) {
    deep_exchange(comm, comm.next_tag_block());
    coll::barrier(comm);  // long park, shallow frames
  });
  const EngineStats es = engine.report().engine;
  EXPECT_GT(es.stack_reclaims, 0);
  EXPECT_GT(es.stack_reclaimed_bytes, 0);
  // Reclaim must not have broken the run: a second run still works and its
  // fibers re-touch the reclaimed (zero-filled) pages without issue.
  engine.run([&](Comm& comm) {
    deep_exchange(comm, comm.next_tag_block());
    coll::barrier(comm);
  });
}

TEST(Engine, FastForwardCountsBulkExchangesDuringAmsSort) {
  // Every sparse exchange of an AMS sort (delivery, bucket grouping) takes
  // the bulk path on a clean network, and none does once a NetworkModel is
  // installed — the neutral base model as well as a jittering one.
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  auto cfg = golden_ams_config();
  cfg.backend = EngineBackend::kFibers;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
  EXPECT_GT(res.report.engine.collective_fast_forwards, 0);
  EXPECT_GT(res.report.engine.bulk_exchanges, 0);

  const std::shared_ptr<const NetworkModel> models[] = {
      std::make_shared<NetworkModel>(), std::make_shared<JitterModel>(0.1, 5)};
  for (const auto& model : models) {
    auto modelled = cfg;
    modelled.machine.model = model;
    const auto off = harness::run_sort_experiment(modelled);
    EXPECT_TRUE(off.check.ok());
    EXPECT_EQ(off.report.engine.collective_fast_forwards, 0);
    EXPECT_EQ(off.report.engine.bulk_exchanges, 0);
  }
}

TEST(Engine, CleanModelGoldensHoldAcrossFiberWorkerCounts) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  auto ams = golden_ams_config();
  ams.backend = EngineBackend::kFibers;
  auto rlm = golden_rlm_config();
  rlm.backend = EngineBackend::kFibers;
  auto ams_long = golden_ams_long_config();
  ams_long.backend = EngineBackend::kFibers;
  const char* prev = std::getenv("PMPS_FIBER_WORKERS");
  const std::string saved = prev ? prev : "";
  for (const char* workers : {"1", "3"}) {
    // Read when the engine lazily creates its pool, i.e. inside the next
    // run_sort_experiment call.
    setenv("PMPS_FIBER_WORKERS", workers, 1);
    EXPECT_EQ(canonical_summary(ams), kGoldenAms) << "workers=" << workers;
    EXPECT_EQ(canonical_summary(rlm), kGoldenRlm) << "workers=" << workers;
    EXPECT_EQ(canonical_summary(ams_long), kGoldenAmsLong)
        << "workers=" << workers;
  }
  if (prev) {
    setenv("PMPS_FIBER_WORKERS", saved.c_str(), 1);
  } else {
    unsetenv("PMPS_FIBER_WORKERS");
  }
}

// --- runtime knobs: rejected by name, never silently defaulted -----------

/// Expects `start` to throw std::invalid_argument naming knob `name`, its
/// `value` and what it accepts.
template <typename F>
void expect_rejected(const char* name, const char* value, F&& start) {
  test_support::ScopedEnv env(name, value);
  try {
    start();
    ADD_FAILURE() << name << "=\"" << value << "\" was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("\"") + value + "\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
  }
}

/// A 4-PE barrier on `backend`: the engine reads every knob it uses while
/// it is built and before its PEs start.
void run_small(EngineBackend backend) {
  Engine engine(4, MachineParams::supermuc_like(), 1, backend);
  engine.run([](Comm& comm) { coll::barrier(comm); });
}

TEST(RuntimeKnobs, EngineAcceptsOnlyThreadsOrFibers) {
  for (const char* bad : {"fiber", "THREADS", "auto", ""})
    expect_rejected("PMPS_ENGINE", bad, [] { run_small(EngineBackend::kAuto); });
  test_support::ScopedEnv env("PMPS_ENGINE", "threads");
  EXPECT_EQ(Engine(4, MachineParams::supermuc_like()).backend(),
            EngineBackend::kThreads);
  run_small(EngineBackend::kAuto);
}

TEST(RuntimeKnobs, FiberStackKbNeedsAnIntegerOfAtLeast64) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  for (const char* bad : {"63", "0", "abc", "128k", ""})
    expect_rejected("PMPS_FIBER_STACK_KB", bad,
                    [] { run_small(EngineBackend::kFibers); });
  test_support::ScopedEnv env("PMPS_FIBER_STACK_KB", "64");
  run_small(EngineBackend::kFibers);
}

TEST(RuntimeKnobs, FiberWorkersNeedsAPositiveInteger) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  for (const char* bad : {"0", "-1", "two", "1.5"})
    expect_rejected("PMPS_FIBER_WORKERS", bad,
                    [] { run_small(EngineBackend::kFibers); });
  for (const char* good : {"1", "3", "4"}) {
    test_support::ScopedEnv env("PMPS_FIBER_WORKERS", good);
    run_small(EngineBackend::kFibers);
  }
}

TEST(RuntimeKnobs, ThreadsMaxPNeedsAPositiveInteger) {
  for (const char* bad : {"0", "-4", "4096x"})
    expect_rejected("PMPS_THREADS_MAX_P", bad,
                    [] { run_small(EngineBackend::kThreads); });
  test_support::ScopedEnv env("PMPS_THREADS_MAX_P", "4");
  run_small(EngineBackend::kThreads);
}

TEST(RuntimeKnobs, FiberGuardedStacksNeedsANonNegativeInteger) {
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  for (const char* bad : {"-1", "lots", ""})
    expect_rejected("PMPS_FIBER_GUARDED_STACKS", bad,
                    [] { run_small(EngineBackend::kFibers); });
  for (const char* good : {"0", "16"}) {
    test_support::ScopedEnv env("PMPS_FIBER_GUARDED_STACKS", good);
    run_small(EngineBackend::kFibers);
  }
}

}  // namespace
}  // namespace pmps::net
