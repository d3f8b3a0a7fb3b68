// Tests for the out-of-core subsystem (src/em/): block-granular run
// storage, the full-transfer positional I/O under short transfers, the
// external multiway merge and its edge cases (empty runs, single-block
// runs, all-equal keys), out-of-core local sort, and the spill-vs-in-memory
// equivalence of the AMS/RLM/GV sorters — bit-identical outputs, identical
// verify checksums, identical virtual time — across fiber worker counts and
// engine backends (the determinism wall).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "ams/ams_sort.hpp"
#include "baseline/gv_sample_sort.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "em/block_file.hpp"
#include "em/external_merge.hpp"
#include "em/io.hpp"
#include "em/run_cursor.hpp"
#include "em/run_store.hpp"
#include "harness/runner.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "net/engine.hpp"
#include "net/fiber.hpp"
#include "rlm/rlm_sort.hpp"

namespace pmps {
namespace {

using harness::Algorithm;
using harness::RunConfig;
using harness::Workload;

/// Tiny blocks (8 elements) so even small tests span many blocks.
em::MemoryBudget tiny_blocks(em::SpillStats* stats = nullptr) {
  em::MemoryBudget b;
  b.bytes = 1;  // enabled; per-call sites decide via should_spill
  b.block_bytes = 8 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  b.stats = stats;
  return b;
}

// ---------------------------------------------------------------------------
// RunStore / RunCursor
// ---------------------------------------------------------------------------

TEST(RunStore, RoundTripsRunsOfAllShapes) {
  em::SpillStats stats;
  auto budget = tiny_blocks(&stats);
  em::RunStore<std::uint64_t> store(budget);
  ASSERT_EQ(store.elems_per_block(), 8);

  // Empty, single-element, block-1, exact block, block+1, 3.5 blocks.
  const std::vector<std::size_t> lens{0, 1, 7, 8, 9, 28};
  std::vector<std::vector<std::uint64_t>> runs;
  std::uint64_t v = 100;
  for (auto len : lens) {
    std::vector<std::uint64_t> r;
    for (std::size_t i = 0; i < len; ++i) r.push_back(v++);
    store.append_run({r.data(), r.size()});
    runs.push_back(std::move(r));
  }

  ASSERT_EQ(store.runs(), static_cast<int>(lens.size()));
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    EXPECT_EQ(store.run_size(static_cast<int>(i)),
              static_cast<std::int64_t>(lens[i]));
    expect.insert(expect.end(), runs[i].begin(), runs[i].end());
  }
  EXPECT_EQ(store.take_all(), expect);
  EXPECT_EQ(stats.totals().runs_written, static_cast<std::int64_t>(lens.size()));
  // 0 + 1 + 1 + 1 + 2 + 4 block writes.
  EXPECT_EQ(stats.totals().blocks_written, 9);
  EXPECT_EQ(stats.totals().bytes_written,
            static_cast<std::int64_t>(expect.size() * sizeof(std::uint64_t)));
}

TEST(RunStore, CursorWindowsWalkBlockByBlock) {
  auto budget = tiny_blocks();
  em::RunStore<std::uint64_t> store(budget);
  std::vector<std::uint64_t> run;
  for (std::uint64_t i = 0; i < 20; ++i) run.push_back(i * 3);
  store.append_run({run.data(), run.size()});

  em::RunCursor<std::uint64_t> cur(&store, 0);
  std::vector<std::uint64_t> seen;
  std::vector<std::size_t> window_sizes;
  for (auto w = cur.next_window(); !w.empty(); w = cur.next_window()) {
    window_sizes.push_back(w.size());
    seen.insert(seen.end(), w.begin(), w.end());
  }
  EXPECT_EQ(window_sizes, (std::vector<std::size_t>{8, 8, 4}));
  EXPECT_EQ(seen, run);
  EXPECT_EQ(cur.remaining(), 0);
}

// ---------------------------------------------------------------------------
// BlockFile slot arithmetic (fat elements, multi-slot appends)
// ---------------------------------------------------------------------------

TEST(BlockFile, SlotsForBoundaries) {
  em::BlockFile file(64);
  EXPECT_EQ(file.block_bytes(), 64);
  EXPECT_EQ(file.slots_for(0), 1);   // empty append still reserves its slot
  EXPECT_EQ(file.slots_for(1), 1);
  EXPECT_EQ(file.slots_for(63), 1);
  EXPECT_EQ(file.slots_for(64), 1);  // exact fit
  EXPECT_EQ(file.slots_for(65), 2);  // one byte over
  EXPECT_EQ(file.slots_for(100), 2); // a Record100 in 64-byte blocks
  EXPECT_EQ(file.slots_for(128), 2);
  EXPECT_EQ(file.slots_for(129), 3);
}

TEST(BlockFile, MultiSlotAppendsRoundTripAtEveryOffset) {
  // Appends larger than a block span contiguous slots; interleaved small
  // appends land in their own slots and nothing overlaps.
  em::BlockFile file(16);
  std::vector<std::byte> big(40);   // 3 slots
  std::vector<std::byte> small(5);  // 1 slot
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::byte>(i + 1);
  for (std::size_t i = 0; i < small.size(); ++i)
    small[i] = static_cast<std::byte>(0xa0 + i);

  const auto s1 = file.append({big.data(), big.size()});
  const auto s2 = file.append({small.data(), small.size()});
  const auto s3 = file.append({big.data(), big.size()});
  EXPECT_EQ(s2, s1 + 3);
  EXPECT_EQ(s3, s2 + 1);
  EXPECT_EQ(file.blocks(), 7);

  std::vector<std::byte> back(big.size());
  file.read(s3, 0, {back.data(), back.size()});
  EXPECT_EQ(back, big);
  // Reads at a byte offset crossing the slot boundary of one append.
  std::vector<std::byte> tail(big.size() - 10);
  file.read(s1, 10, {tail.data(), tail.size()});
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), big.begin() + 10));
  std::vector<std::byte> mid(small.size());
  file.read(s2, 0, {mid.data(), mid.size()});
  EXPECT_EQ(mid, small);
}

TEST(BlockFile, RecordsFatterThanBlocksRoundTripThroughRunStore) {
  // sizeof(Record100) = 100 > block_bytes = 64: every element append takes
  // two slots and the byte-size arithmetic must stay exact.
  static_assert(sizeof(Record100) == 100);
  em::SpillStats stats;
  em::MemoryBudget budget;
  budget.bytes = 1;
  budget.block_bytes = 64;
  budget.stats = &stats;
  em::RunStore<Record100> store(budget);
  ASSERT_EQ(store.elems_per_block(), 1);

  std::vector<Record100> run(7);
  for (std::size_t i = 0; i < run.size(); ++i) {
    for (auto& b : run[i].key) b = static_cast<std::uint8_t>(i);
    run[i].payload.fill(static_cast<std::uint8_t>(0x40 + i));
  }
  store.append_run({run.data(), run.size()});
  for (std::size_t i = 0; i < run.size(); ++i) {
    const Record100 rec = store.read_element(static_cast<std::int64_t>(i));
    EXPECT_EQ(std::memcmp(&rec, &run[i], sizeof(Record100)), 0) << "pos " << i;
  }
  std::vector<Record100> mid(3);
  store.read_range(2, {mid.data(), mid.size()});
  EXPECT_EQ(std::memcmp(mid.data(), run.data() + 2, 3 * sizeof(Record100)), 0);
  EXPECT_EQ(stats.totals().bytes_written,
            static_cast<std::int64_t>(run.size() * sizeof(Record100)));
}

// ---------------------------------------------------------------------------
// em/io.hpp: full-transfer loops under injected short transfers
// ---------------------------------------------------------------------------

TEST(IoFull, RoundTripUnderShortTransfers) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>((i * 131 + 36) & 0xff);
  em::set_io_chunk_limit_for_testing(3);  // every syscall moves ≤ 3 bytes
  em::pwrite_full(::fileno(f), 17, data);
  std::vector<std::byte> back(data.size());
  em::pread_full(::fileno(f), 17, back);
  em::set_io_chunk_limit_for_testing(0);
  std::fclose(f);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// External merge edge cases
// ---------------------------------------------------------------------------

TEST(ExternalMerge, EmptyStore) {
  auto budget = tiny_blocks();
  em::RunStore<std::uint64_t> store(budget);
  EXPECT_TRUE(em::merge_runs(store).empty());
}

TEST(ExternalMerge, EmptyRunsAmongNonEmpty) {
  auto budget = tiny_blocks();
  em::RunStore<std::uint64_t> store(budget);
  const std::vector<std::uint64_t> a{1, 4, 9};
  const std::vector<std::uint64_t> b{2, 2, 7};
  store.append_run({});                  // leading empty run
  store.append_run({a.data(), a.size()});
  store.append_run({});                  // middle empty run
  store.append_run({b.data(), b.size()});
  store.append_run({});                  // trailing empty run
  EXPECT_EQ(em::merge_runs(store),
            (std::vector<std::uint64_t>{1, 2, 2, 4, 7, 9}));
}

TEST(ExternalMerge, SingleBlockRuns) {
  auto budget = tiny_blocks();
  em::RunStore<std::uint64_t> store(budget);
  std::vector<std::vector<std::uint64_t>> runs{{5, 6}, {1, 9}, {3}};
  std::vector<std::uint64_t> expect;
  for (auto& r : runs) {
    store.append_run({r.data(), r.size()});
    expect.insert(expect.end(), r.begin(), r.end());
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(em::merge_runs(store), expect);
}

TEST(ExternalMerge, AllEqualKeysAcrossRunsIsRunStable) {
  // All keys equal, payloads tag the origin run: the external merge must
  // emit runs in run-index order — the same stability contract as the
  // in-memory seq::multiway_merge, hence bit-identical results.
  struct KV {  // (key, origin run)
    std::uint64_t key;
    int run;
  };
  struct KeyLess {
    bool operator()(const KV& a, const KV& b) const { return a.key < b.key; }
  };
  em::MemoryBudget budget;
  budget.bytes = 1;
  budget.block_bytes = 4 * static_cast<std::int64_t>(sizeof(KV));
  em::RunStore<KV> store(budget);
  std::vector<std::vector<KV>> runs;
  for (int r = 0; r < 6; ++r) {
    runs.emplace_back(static_cast<std::size_t>(10 + r), KV{42, r});
    store.append_run({runs.back().data(), runs.back().size()});
  }
  const auto out = em::merge_runs(store, KeyLess{});
  const auto expect = seq::multiway_merge(runs, KeyLess{});
  ASSERT_EQ(out.size(), expect.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, expect[i].key) << "position " << i;
    EXPECT_EQ(out[i].run, expect[i].run) << "position " << i;
  }
}

TEST(ExternalMerge, RandomizedMatchesInMemoryMerge) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    auto budget = tiny_blocks();
    em::RunStore<std::uint64_t> store(budget);
    std::vector<std::vector<std::uint64_t>> runs(
        static_cast<std::size_t>(1 + rng.bounded(12)));
    for (auto& r : runs) {
      const auto len = rng.bounded(100);
      for (std::uint64_t i = 0; i < len; ++i) r.push_back(rng.bounded(50));
      std::sort(r.begin(), r.end());
      store.append_run({r.data(), r.size()});
    }
    EXPECT_EQ(em::merge_runs(store), seq::multiway_merge(runs))
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Multi-pass merge (fan-in bounded by the budget)
// ---------------------------------------------------------------------------

TEST(MultiPassMerge, ManyRunsUnderTinyFaninMatchInMemorySort) {
  // 40 runs with budget/block = 2 ⇒ fan-in 2 ⇒ ~6 merge passes. The result
  // must equal a plain stable in-memory sort of the concatenation.
  em::SpillStats stats;
  em::MemoryBudget budget;
  budget.bytes = 2 * 8 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  budget.block_bytes = 8 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  budget.stats = &stats;
  em::RunStore<std::uint64_t> store(budget);

  Xoshiro256 rng(17);
  std::vector<std::uint64_t> all;
  for (int r = 0; r < 40; ++r) {
    std::vector<std::uint64_t> run(static_cast<std::size_t>(rng.bounded(30)));
    for (auto& v : run) v = rng.bounded(64);
    std::sort(run.begin(), run.end());
    store.append_run({run.data(), run.size()});
    all.insert(all.end(), run.begin(), run.end());
  }
  std::stable_sort(all.begin(), all.end());
  EXPECT_EQ(em::merge_runs(store), all);
  EXPECT_GE(stats.totals().merge_passes, 4);
}

TEST(MultiPassMerge, BitIdenticalToSinglePassAndStable) {
  // The same runs merged unbounded (single pass) and with fan-in 2
  // (multi-pass) must agree element for element — including the origin-run
  // tags of equal keys, i.e. the multi-pass tree preserves the exact
  // stable order of the single-pass merge.
  struct KV {
    std::uint64_t key;
    std::uint64_t tag;  // origin (run, index), unique
  };
  struct KeyLess {
    bool operator()(const KV& a, const KV& b) const { return a.key < b.key; }
  };
  const auto build = [](em::RunStore<KV>& store) {
    Xoshiro256 rng(23);
    for (int r = 0; r < 17; ++r) {
      std::vector<KV> run(static_cast<std::size_t>(1 + rng.bounded(25)));
      for (std::size_t i = 0; i < run.size(); ++i)
        run[i] = KV{rng.bounded(8),  // heavy duplication
                    (static_cast<std::uint64_t>(r) << 32) | i};
      std::stable_sort(run.begin(), run.end(), KeyLess{});
      store.append_run({run.data(), run.size()});
    }
  };

  em::MemoryBudget wide;  // unbounded fan-in: budget disabled
  wide.block_bytes = 4 * static_cast<std::int64_t>(sizeof(KV));
  em::RunStore<KV> single(wide);
  build(single);
  const auto expect = em::merge_runs(single, KeyLess{});

  em::SpillStats stats;
  em::MemoryBudget narrow;
  narrow.bytes = 2 * 4 * static_cast<std::int64_t>(sizeof(KV));
  narrow.block_bytes = 4 * static_cast<std::int64_t>(sizeof(KV));
  narrow.stats = &stats;
  em::RunStore<KV> multi(narrow);
  build(multi);
  const auto got = em::merge_runs(multi, KeyLess{});

  EXPECT_GE(stats.totals().merge_passes, 3);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expect[i].key) << "position " << i;
    EXPECT_EQ(got[i].tag, expect[i].tag) << "position " << i;
  }
}

TEST(MultiPassMerge, FaninGroupsLeaveSingleRunResidueUntouched) {
  // 5 runs at fan-in 4: the pass merges runs 0–3 and must pass run 4
  // through untouched rather than rewriting it.
  em::SpillStats stats;
  em::MemoryBudget budget;
  budget.bytes = 4 * 4 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  budget.block_bytes = 4 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  budget.stats = &stats;
  em::RunStore<std::uint64_t> store(budget);
  std::vector<std::uint64_t> all;
  for (int r = 0; r < 5; ++r) {
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 6; ++i)
      run.push_back(static_cast<std::uint64_t>(10 * i + r));
    store.append_run({run.data(), run.size()});
    all.insert(all.end(), run.begin(), run.end());
  }
  const std::int64_t written_before = stats.totals().bytes_written;
  std::sort(all.begin(), all.end());
  EXPECT_EQ(em::merge_runs(store), all);
  EXPECT_EQ(stats.totals().merge_passes, 1);
  // The pass rewrote the four merged runs (24 elements), not the fifth.
  EXPECT_EQ(stats.totals().bytes_written - written_before,
            static_cast<std::int64_t>(24 * sizeof(std::uint64_t)));
}

// ---------------------------------------------------------------------------
// external_sort
// ---------------------------------------------------------------------------

TEST(ExternalSort, MatchesInMemorySort) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> data(
        static_cast<std::size_t>(rng.bounded(5000)));
    for (auto& v : data) v = rng.bounded(1000);  // duplicates likely
    auto expect = data;
    std::sort(expect.begin(), expect.end());

    em::SpillStats stats;
    em::MemoryBudget budget;
    budget.bytes = 512 * static_cast<std::int64_t>(sizeof(std::uint64_t));
    budget.block_bytes = 64 * static_cast<std::int64_t>(sizeof(std::uint64_t));
    budget.stats = &stats;
    em::external_sort(data, budget);
    EXPECT_EQ(data, expect) << "seed=" << seed;
    if (expect.size() > 512) {
      EXPECT_GT(stats.totals().runs_written, 1) << "seed=" << seed;
      EXPECT_GT(stats.totals().bytes_written, 0) << "seed=" << seed;
      EXPECT_EQ(stats.totals().bytes_read, stats.totals().bytes_written);
    }
  }
}

TEST(ExternalSort, EmptyAndTinyInputs) {
  em::MemoryBudget budget = tiny_blocks();
  std::vector<std::uint64_t> empty;
  em::external_sort(empty, budget);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint64_t> one{7};
  em::external_sort(one, budget);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{7}));
}

// ---------------------------------------------------------------------------
// Spill-vs-in-memory equivalence of the sorters
// ---------------------------------------------------------------------------

/// Runs `algo` at p=8, n_per_pe=600 and returns (per-PE outputs, report).
struct SortOutcome {
  std::vector<std::vector<std::uint64_t>> per_pe;
  net::RunReport report;
  bool verified = false;
};

SortOutcome run_capturing(Algorithm algo, Workload workload,
                          std::int64_t budget_bytes, std::uint64_t seed,
                          em::SpillStats* stats = nullptr) {
  constexpr int kP = 8;
  constexpr std::int64_t kNPerPe = 600;
  net::Engine engine(kP, net::MachineParams::supermuc_like(), seed);
  SortOutcome out;
  out.per_pe.resize(kP);
  std::mutex mu;

  em::MemoryBudget budget;
  budget.bytes = budget_bytes;
  budget.block_bytes = 128 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  budget.stats = stats;

  engine.run([&](net::Comm& comm) {
    auto data =
        harness::make_workload(workload, comm.rank(), kP, kNPerPe, seed);
    const auto in_hash = harness::content_hash(
        std::span<const std::uint64_t>(data.data(), data.size()));

    switch (algo) {
      case Algorithm::kAms: {
        ams::AmsConfig cfg;
        cfg.levels = 2;
        cfg.seed = seed;
        cfg.budget = budget;
        ams::ams_sort(comm, data, cfg);
        break;
      }
      case Algorithm::kRlm: {
        rlm::RlmConfig cfg;
        cfg.levels = 2;
        cfg.seed = seed;
        cfg.budget = budget;
        rlm::rlm_sort(comm, data, cfg);
        break;
      }
      case Algorithm::kGvSampleSort: {
        baseline::GvConfig cfg;
        cfg.levels = 2;
        cfg.seed = seed;
        cfg.budget = budget;
        baseline::gv_sample_sort(comm, data, cfg);
        break;
      }
      default:
        FAIL() << "unsupported algorithm in this test";
    }

    const auto check = harness::verify_sorted_output(
        comm, std::span<const std::uint64_t>(data.data(), data.size()),
        in_hash, kNPerPe);
    std::lock_guard lock(mu);
    out.per_pe[static_cast<std::size_t>(comm.rank())] = std::move(data);
    if (comm.rank() == 0) out.verified = check.ok();
  });
  out.report = engine.report();
  return out;
}

class SpillEquivalence
    : public ::testing::TestWithParam<std::tuple<Algorithm, Workload>> {};

TEST_P(SpillEquivalence, BitIdenticalToInMemoryPath) {
  const auto [algo, workload] = GetParam();
  // 600 × 8 bytes = 4800 bytes per PE; a 1 KiB budget forces spilling at
  // every stage, in runs of many blocks.
  em::SpillStats stats;
  const auto spill = run_capturing(algo, workload, 1024, /*seed=*/3, &stats);
  const auto plain = run_capturing(algo, workload, 0, /*seed=*/3);

  EXPECT_TRUE(spill.verified);
  EXPECT_TRUE(plain.verified);
  EXPECT_GT(stats.totals().bytes_written, 0) << "budget did not trigger";

  // Bit-identical outputs, PE by PE.
  ASSERT_EQ(spill.per_pe.size(), plain.per_pe.size());
  for (std::size_t pe = 0; pe < spill.per_pe.size(); ++pe)
    EXPECT_EQ(spill.per_pe[pe], plain.per_pe[pe]) << "PE " << pe;

  // Spilling is invisible to virtual time: same clock, same traffic.
  EXPECT_DOUBLE_EQ(spill.report.wall_time, plain.report.wall_time);
  EXPECT_EQ(spill.report.max_messages_sent, plain.report.max_messages_sent);
  EXPECT_EQ(spill.report.total_bytes_sent, plain.report.total_bytes_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Sorters, SpillEquivalence,
    ::testing::Combine(::testing::Values(Algorithm::kAms, Algorithm::kRlm,
                                         Algorithm::kGvSampleSort),
                       ::testing::Values(Workload::kUniform,
                                         Workload::kAllEqual,
                                         Workload::kSortedGlobal)));

// ---------------------------------------------------------------------------
// Determinism wall: fiber worker counts × engine backends
// ---------------------------------------------------------------------------

TEST(DeterminismWall, WorkersBackendsBitIdentical) {
  // Budgeted sorts that spill at every stage must produce the same output
  // and the same virtual time however the PEs are scheduled.
  struct Obs {
    std::uint64_t sig;
    double wall;
  };
  std::vector<Obs> obs;  // one per algorithm, from the first configuration
  for (const char* workers : {"1", "3"}) {
    ::setenv("PMPS_FIBER_WORKERS", workers, 1);
    for (const auto backend :
         {net::EngineBackend::kFibers, net::EngineBackend::kThreads}) {
      if (backend == net::EngineBackend::kFibers && !net::fibers_supported())
        continue;
      std::size_t a = 0;
      for (const auto algo : {Algorithm::kAms, Algorithm::kRlm}) {
        RunConfig cfg;
        cfg.p = 8;
        cfg.n_per_pe = 600;
        cfg.algorithm = algo;
        cfg.budget.bytes = 1536;  // forces spilling at every stage
        cfg.budget.block_bytes = 512;
        cfg.seed = 23;
        cfg.backend = backend;
        const auto res = harness::run_sort_experiment(cfg);
        ASSERT_TRUE(res.check.ok());
        EXPECT_GT(res.spill.bytes_written, 0);
        if (obs.size() <= a) {
          obs.push_back({res.check.out_signature, res.wall_time()});
        } else {
          EXPECT_EQ(res.check.out_signature, obs[a].sig)
              << "output differs: workers=" << workers;
          EXPECT_EQ(res.wall_time(), obs[a].wall)
              << "virtual time differs: workers=" << workers;
        }
        ++a;
      }
    }
  }
  ::unsetenv("PMPS_FIBER_WORKERS");
}

// ---------------------------------------------------------------------------
// Acceptance: over-budget AMS through the harness
// ---------------------------------------------------------------------------

TEST(OverBudgetHarness, AmsSortExceedingBudgetCompletesAndVerifies) {
  RunConfig cfg;
  cfg.p = 8;
  cfg.n_per_pe = 1000;  // 8000 bytes per PE
  cfg.algorithm = Algorithm::kAms;
  cfg.budget.bytes = 2048;  // force out-of-core
  cfg.budget.block_bytes = 1024;
  cfg.seed = 11;
  const auto spilled = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(spilled.check.ok());
  EXPECT_GT(spilled.spill.bytes_written, 0);
  EXPECT_GT(spilled.spill.external_sorts, 0);

  cfg.budget = {};
  const auto plain = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(plain.check.ok());
  EXPECT_EQ(plain.spill.bytes_written, 0);
  // Same virtual time and traffic — the spill path exchanged the same
  // messages and charged the same local work.
  EXPECT_DOUBLE_EQ(spilled.report.wall_time, plain.report.wall_time);
  // Streaming classification is two-pass (count, then scatter), so spilled
  // partitions are read more than once; every read still comes from a prior
  // write.
  EXPECT_GE(spilled.spill.bytes_read, spilled.spill.bytes_written);
}

// ---------------------------------------------------------------------------
// Shared spill file under fd pressure
// ---------------------------------------------------------------------------

TEST(SharedSpillFile, BudgetedSortAtP256CompletesUnderNofile64) {
  // 256 spilling PEs with RLIMIT_NOFILE lowered to 64 in-process: only the
  // job-wide shared BlockFile makes this possible (per-PE tmpfiles would
  // need 256 descriptors). Lowering the soft limit is process-wide and
  // irreversible for an unprivileged process, but each gtest case runs as
  // its own ctest process, so nothing leaks into other tests.
  struct rlimit lim;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
  lim.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lim), 0);

  RunConfig cfg;
  cfg.p = 256;
  cfg.n_per_pe = 300;  // 2400 bytes per PE
  cfg.algorithm = Algorithm::kAms;
  cfg.budget.bytes = 512;  // every PE spills at every stage
  cfg.budget.block_bytes = 256;
  cfg.seed = 5;
  const auto res = harness::run_sort_experiment(cfg);
  EXPECT_TRUE(res.check.ok());
  EXPECT_GT(res.spill.bytes_written, 0);
  EXPECT_GT(res.spill.merge_passes, 0);
}

// ---------------------------------------------------------------------------
// Record100 through the spill path
// ---------------------------------------------------------------------------

TEST(Record100Spill, PayloadProvenanceSurvivesBudgetedShuffle) {
  // Records carry a payload stamped with the origin rank. After a budgeted
  // AMS sort the output must be key-sorted, the multiset of *whole records*
  // must be preserved (every record's 90 payload bytes still attached to
  // its key — byte-level provenance), and the result must be bit-identical
  // to the in-memory run.
  constexpr int kP = 8;
  constexpr std::int64_t kNPerPe = 400;  // 40 KB per PE
  const auto run = [&](std::int64_t budget_bytes) {
    net::Engine engine(kP, net::MachineParams::supermuc_like(), 7);
    std::vector<std::vector<Record100>> per_pe(kP);
    std::mutex mu;
    engine.run([&](net::Comm& comm) {
      auto data = harness::make_record_workload(comm.rank(), kP, kNPerPe, 7);
      ams::AmsConfig cfg;
      cfg.levels = 2;
      cfg.seed = 7;
      cfg.budget.bytes = budget_bytes;
      cfg.budget.block_bytes = 1024;
      ams::ams_sort(comm, data, cfg);
      std::lock_guard lock(mu);
      per_pe[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    return per_pe;
  };

  const auto spilled = run(4096);  // 10% of the payload resident
  const auto plain = run(0);

  std::vector<Record100> expect;
  for (int pe = 0; pe < kP; ++pe) {
    auto in = harness::make_record_workload(pe, kP, kNPerPe, 7);
    expect.insert(expect.end(), in.begin(), in.end());
  }

  std::vector<Record100> got;
  for (const auto& part : spilled) got.insert(got.end(), part.begin(), part.end());
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));

  // Multiset of whole 100-byte records preserved: order both sides by the
  // full record bytes (key AND payload) and compare byte-for-byte.
  const auto full_bytes_less = [](const Record100& a, const Record100& b) {
    return std::memcmp(&a, &b, sizeof(Record100)) < 0;
  };
  auto got_norm = got;
  std::sort(got_norm.begin(), got_norm.end(), full_bytes_less);
  std::sort(expect.begin(), expect.end(), full_bytes_less);
  EXPECT_EQ(std::memcmp(got_norm.data(), expect.data(),
                        got_norm.size() * sizeof(Record100)),
            0)
      << "payload bytes did not survive the spill path";
  for (const auto& rec : got) {
    const auto origin = rec.payload[0];
    EXPECT_LT(origin, kP);
    for (const auto b : rec.payload) EXPECT_EQ(b, origin);
  }
  for (int pe = 0; pe < kP; ++pe) {
    ASSERT_EQ(spilled[static_cast<std::size_t>(pe)].size(),
              plain[static_cast<std::size_t>(pe)].size());
    EXPECT_EQ(std::memcmp(spilled[static_cast<std::size_t>(pe)].data(),
                          plain[static_cast<std::size_t>(pe)].data(),
                          plain[static_cast<std::size_t>(pe)].size() *
                              sizeof(Record100)),
              0)
        << "PE " << pe << " budgeted output differs from in-memory";
  }
}

}  // namespace
}  // namespace pmps
