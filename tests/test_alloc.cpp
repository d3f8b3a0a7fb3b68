// Allocation-counting harness for the zero-allocation message path
// (docs/DESIGN.md §9).
//
// This binary replaces the global operator new/delete with counting
// versions. Two kinds of assertion:
//
//  * Unit level: the exact components of the send→deposit→retrieve path
//    (BufferPool, MsgNodePool, the slab Mailbox, SendPlan) perform zero
//    heap allocations once warm, measured single-threaded with no
//    scheduler in the way.
//
//  * Engine level: a full engine run's allocation count is *independent of
//    the number of message rounds* — run R rounds and 16·R rounds after a
//    warm-up run and the counts must be equal, i.e. the per-round
//    steady-state message path (p2p ping-pong, and a reused-SendPlan
//    sparse exchange including its Bruck counts rounds and termination
//    barrier) allocates exactly nothing. Per-run fixed costs (Comm
//    construction, std::function, scheduler bookkeeping) cancel out of the
//    comparison. Run with the fiber backend pinned to one worker so the
//    cooperative schedule — and with it the count — is deterministic.
//
// No gtest machinery (which allocates freely) runs inside a measured
// window.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/send_plan.hpp"
#include "common/types.hpp"
#include "em/run_cursor.hpp"
#include "em/run_store.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"
#include "net/fiber.hpp"
#include "net/mailbox.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};

}  // namespace

// The replaced operator new allocates with malloc, so free() in the
// replaced deletes is the matching deallocator; GCC's pairing heuristic
// cannot see that and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pmps {
namespace {

using net::Comm;
using net::Engine;
using net::EngineBackend;
using net::MachineParams;
using net::Message;
using net::MsgKey;

/// Runs `body` with counting enabled and returns the number of operator
/// new calls it performed.
template <typename Body>
std::int64_t count_allocs(Body&& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Unit level: the path's components, single-threaded
// ---------------------------------------------------------------------------

TEST(AllocCount, SendDepositRetrievePathIsAllocationFreeWhenWarm) {
  net::MsgNodePool nodes;
  net::Mailbox mb(nodes);
  net::BufferPool pool;
  constexpr std::size_t kBytes = 192;

  // Exactly what Comm::send_bytes / recv_bytes do around the mailbox.
  const auto send = [&](std::uint64_t tag, int src) {
    Message m;
    m.comm_id = 1;
    m.tag = tag;
    m.src_pe = src;
    m.payload = pool.acquire(kBytes);
    m.payload.assign(kBytes, std::byte{0x5a});
    mb.deposit(std::move(m), [] { ADD_FAILURE() << "woke with no waiter"; });
  };
  const auto recv = [&](std::uint64_t tag, int src) {
    // Every key is queued before it is retrieved, so nothing parks.
    Message m = mb.retrieve(MsgKey{1, tag, src},
                            [](std::unique_lock<std::mutex>&) {
                              throw std::logic_error("parked on a queued key");
                            });
    pool.release(std::move(m.payload));
  };

  // A small backlog (3 keys live at once) exercises slot insert +
  // backward-shift deletion, not just the single-slot fast path.
  const auto churn = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      send(0, 0);
      send(1, 1);
      send(2, 0);
      recv(1, 1);
      recv(0, 0);
      recv(2, 0);
    }
  };

  churn(16);  // warm-up: node pool, key table, payload pool at peak depth
  const std::int64_t allocs = count_allocs([&] { churn(256); });
  EXPECT_EQ(allocs, 0);
  EXPECT_TRUE(mb.empty());
}

TEST(AllocCount, BufferPoolSizeHintAvoidsRegrow) {
  net::BufferPool pool;
  pool.release(std::vector<std::byte>(4096));
  pool.release(std::vector<std::byte>(16));

  // The hint must return the big recycled buffer even though the small one
  // was released more recently; assigning the payload then reuses its
  // capacity instead of regrowing.
  const std::int64_t allocs = count_allocs([&] {
    std::vector<std::byte> buf = pool.acquire(4096);
    buf.assign(4096, std::byte{1});
    pool.release(std::move(buf));
  });
  EXPECT_EQ(allocs, 0);

  // And the small buffer is still pooled for small requests.
  std::vector<std::byte> small = pool.acquire(8);
  EXPECT_GE(small.capacity(), 8u);
  EXPECT_LT(small.capacity(), 4096u);
}

TEST(AllocCount, SendPlanReuseIsAllocationFree) {
  coll::SendPlan<std::int64_t> plan;
  const std::int64_t payload[16] = {};
  const auto fill = [&] {
    plan.clear();
    for (int piece = 0; piece < 32; ++piece)
      plan.add(piece % 7, std::span<const std::int64_t>(payload, 16));
  };
  fill();  // warm: buffers grow to their final capacity once
  const std::int64_t allocs = count_allocs([&] {
    for (int round = 0; round < 64; ++round) fill();
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(plan.pieces(), 32);
  EXPECT_EQ(plan.total(), 32 * 16);
}

TEST(AllocCount, RunStoreRecord100ReadPathIsAllocationFreeWhenWarm) {
  // The spill read path for 100-byte records: pooled block buffers must be
  // sized for Record100 up front so the warm loop — acquire, read_block,
  // read_range, release — never regrows a buffer. A pool that recycled
  // byte-capacity-mismatched buffers would reallocate on every resize(epb).
  em::MemoryBudget budget;
  budget.bytes = 1;
  budget.block_bytes = 8 * static_cast<std::int64_t>(sizeof(pmps::Record100));
  em::RunStore<pmps::Record100> store(budget);
  const auto epb = static_cast<std::size_t>(store.elems_per_block());
  ASSERT_EQ(epb, 8u);

  std::vector<pmps::Record100> run(45);
  for (std::size_t i = 0; i < run.size(); ++i) {
    for (auto& b : run[i].key) b = static_cast<std::uint8_t>(i * 7 + 1);
    run[i].payload.fill(static_cast<std::uint8_t>(i));
  }
  store.append_run({run.data(), run.size()});
  store.append_run({run.data(), run.size() / 2});

  std::vector<pmps::Record100> range_buf(19);
  const auto read_everything = [&] {
    for (int rep = 0; rep < 4; ++rep) {
      auto buf = store.acquire_buffer();
      for (int r = 0; r < store.runs(); ++r) {
        const auto n = store.run_size(r);
        for (std::int64_t b = 0; b * static_cast<std::int64_t>(epb) < n; ++b) {
          const auto len = std::min<std::int64_t>(
              static_cast<std::int64_t>(epb),
              n - b * static_cast<std::int64_t>(epb));
          store.read_block(r, b, {buf.data(), static_cast<std::size_t>(len)});
        }
      }
      store.release_buffer(std::move(buf));
      store.read_range(5, {range_buf.data(), range_buf.size()});
    }
  };

  read_everything();  // warm: pool populated, prefix sums built
  const std::int64_t allocs = count_allocs(read_everything);
  EXPECT_EQ(allocs, 0);
}

TEST(AllocCount, RunCursorRecord100WindowsAllocationFreeWhenWarm) {
  em::MemoryBudget budget;
  budget.bytes = 1;
  budget.block_bytes = 4 * static_cast<std::int64_t>(sizeof(pmps::Record100));
  em::RunStore<pmps::Record100> store(budget);
  std::vector<pmps::Record100> run(30);
  for (std::size_t i = 0; i < run.size(); ++i)
    for (auto& b : run[i].key) b = static_cast<std::uint8_t>(i);
  store.append_run({run.data(), run.size()});

  const auto walk = [&] {
    em::RunCursor<pmps::Record100> cur(&store, 0);
    std::size_t seen = 0;
    for (auto w = cur.next_window(); !w.empty(); w = cur.next_window())
      seen += w.size();
    if (seen != run.size()) std::abort();
  };
  walk();  // warm: the cursor's pooled block buffer reaches full size
  const std::int64_t allocs = count_allocs(walk);
  EXPECT_EQ(allocs, 0);
}

TEST(AllocCount, SpillWarmPathAllocationFree) {
  // The spill write path: once the spill file exists and the block-buffer
  // pool is warm, appending blocks and reading them back allocates exactly
  // nothing.
  em::MemoryBudget budget;
  budget.bytes = 1;
  budget.block_bytes = 8 * static_cast<std::int64_t>(sizeof(std::uint64_t));
  em::RunStore<std::uint64_t> store(budget);
  const int run = store.begin_run();
  std::uint64_t block[8];
  std::uint64_t next = 0;
  const auto append_blocks = [&](int count) {
    for (int i = 0; i < count; ++i) {
      for (auto& v : block) v = next++;
      store.append_block_to_run(
          run, std::span<const std::uint64_t>(block, 8));
    }
  };
  std::uint64_t sink = 0;
  const auto read_blocks = [&] {
    auto buf = store.acquire_buffer();
    for (std::int64_t b = 0; b < 4; ++b) {
      store.read_block(run, b, {buf.data(), 8});
      sink ^= buf[0];
    }
    store.release_buffer(std::move(buf));
  };
  // Warm-up: 96 blocks leaves the run's slot vector at capacity 128, so
  // the measured 12 appends cannot regrow it.
  append_blocks(96);
  read_blocks();
  const std::int64_t allocs = count_allocs([&] {
    append_blocks(12);
    read_blocks();
  });
  EXPECT_EQ(allocs, 0);
  if (sink == 0xdeadbeef) std::abort();  // keep the reads observable
}

// ---------------------------------------------------------------------------
// Engine level: allocation count independent of the round count
// ---------------------------------------------------------------------------

namespace {

/// R rounds of ring ping-pong through the full Comm→Engine→Mailbox path,
/// received with recv_into (the path's non-allocating receive).
void ring_rounds(Comm& comm, int rounds) {
  const int p = comm.size();
  std::int64_t out[8] = {comm.rank(), 1, 2, 3, 4, 5, 6, 7};
  std::int64_t in[8];
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t tag = comm.next_tag_block();
    comm.send<std::int64_t>((comm.rank() + 1) % p, tag,
                            std::span<const std::int64_t>(out, 8));
    comm.recv_into<std::int64_t>((comm.rank() - 1 + p) % p, tag,
                                 std::span<std::int64_t>(in, 8));
  }
}

/// R rounds of a reused-plan sparse exchange with a non-allocating sink —
/// includes the uncharged Bruck counts exchange and the termination
/// barrier, i.e. the whole sparse path.
void sparse_rounds(Comm& comm, int rounds) {
  const int p = comm.size();
  coll::SendPlan<std::int64_t> plan;
  const std::int64_t payload[4] = {comm.rank(), 1, 2, 3};
  std::int64_t acc = 0;
  for (int r = 0; r < rounds; ++r) {
    plan.clear();
    for (int j = 1; j <= 3 && j < p; ++j)
      plan.add((comm.rank() + j) % p,
               std::span<const std::int64_t>(payload, 4));
    coll::sparse_exchange_into<std::int64_t>(
        comm, plan, [&](int, std::span<const std::int64_t> piece) {
          for (auto v : piece) acc += v;
        });
  }
  if (acc == -1) std::abort();  // keep the accumulation observable
}

/// R long-vector allreduces of one 1 Ki-word vector, moved in and back out
/// each round. The long schedule combines straight out of the received
/// payloads and receives the allgather in place, so the only vector it could
/// allocate is the result, and that is the caller's own buffer.
constexpr std::size_t kLongWords = 1024;
void allreduce_rounds(Comm& comm, int rounds) {
  std::vector<std::int64_t> v(kLongWords);
  std::int64_t acc = 0;
  for (int r = 0; r < rounds; ++r) {
    std::fill(v.begin(), v.end(), comm.rank());
    v = coll::allreduce_add(comm, std::move(v));
    acc += v[static_cast<std::size_t>(r) % v.size()];
  }
  if (acc == -1) std::abort();  // keep the results observable
}

std::int64_t engine_run_allocs(Engine& engine, void (*body)(Comm&, int),
                               int rounds) {
  return count_allocs(
      [&] { engine.run([&](Comm& comm) { body(comm, rounds); }); });
}

}  // namespace

TEST(AllocCount, EngineP2PSteadyStateAllocatesNothingPerRound) {
  if (!net::fibers_supported()) GTEST_SKIP() << "no fiber backend here";
  // One worker ⇒ deterministic cooperative schedule ⇒ exact counts.
  setenv("PMPS_FIBER_WORKERS", "1", 1);
  {
    Engine engine(8, MachineParams::supermuc_like(), 1,
                  EngineBackend::kFibers);
    engine.run([](Comm& comm) { ring_rounds(comm, 64); });  // warm-up
    const std::int64_t few = engine_run_allocs(engine, ring_rounds, 4);
    const std::int64_t many = engine_run_allocs(engine, ring_rounds, 64);
    // Equal totals ⇒ the 60 extra rounds allocated exactly nothing.
    EXPECT_EQ(few, many);
  }
  unsetenv("PMPS_FIBER_WORKERS");
}

TEST(AllocCount, SparseExchangeSteadyStateAllocatesNothingPerRound) {
  if (!net::fibers_supported()) GTEST_SKIP() << "no fiber backend here";
  setenv("PMPS_FIBER_WORKERS", "1", 1);
  {
    Engine engine(8, MachineParams::supermuc_like(), 1,
                  EngineBackend::kFibers);
    engine.run([](Comm& comm) { sparse_rounds(comm, 32); });  // warm-up
    const std::int64_t few = engine_run_allocs(engine, sparse_rounds, 2);
    const std::int64_t many = engine_run_allocs(engine, sparse_rounds, 32);
    EXPECT_EQ(few, many);
  }
  unsetenv("PMPS_FIBER_WORKERS");
}

TEST(AllocCount, LongAllreduceAllocatesNothingPerCall) {
  if (!net::fibers_supported()) GTEST_SKIP() << "no fiber backend here";
  setenv("PMPS_FIBER_WORKERS", "1", 1);
  {
    Engine engine(8, MachineParams::supermuc_like(), 1,
                  EngineBackend::kFibers);
    std::atomic<bool> is_long{true};
    engine.run([&](Comm& comm) {
      if (!coll::detail::allreduce_is_long(
              comm, kLongWords * sizeof(std::int64_t)))
        is_long = false;
      allreduce_rounds(comm, 16);  // warm-up
    });
    ASSERT_TRUE(is_long) << "the vector must take the long schedule";
    const std::int64_t few = engine_run_allocs(engine, allreduce_rounds, 2);
    const std::int64_t many = engine_run_allocs(engine, allreduce_rounds, 16);
    EXPECT_EQ(few, many);
  }
  unsetenv("PMPS_FIBER_WORKERS");
}

}  // namespace
}  // namespace pmps
