// Tests for the hash-matched mailbox: out-of-order and bulk deposits,
// same-key FIFO order, targeted (non-broadcast) wakeup, and the
// register/park protocol that Engine::park and Engine::wake drive.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/comm.hpp"
#include "net/engine.hpp"
#include "net/fiber.hpp"
#include "net/mailbox.hpp"

namespace pmps::net {
namespace {

Message make_msg(std::uint64_t comm_id, std::uint64_t tag, int src,
                 std::uint64_t value = 0) {
  Message m;
  m.comm_id = comm_id;
  m.tag = tag;
  m.src_pe = src;
  m.payload.resize(sizeof(value));
  std::memcpy(m.payload.data(), &value, sizeof(value));
  return m;
}

std::uint64_t value_of(const Message& m) {
  std::uint64_t v = 0;
  EXPECT_EQ(m.payload.size(), sizeof(v));
  std::memcpy(&v, m.payload.data(), sizeof(v));
  return v;
}

/// Deposit with no consumer waiting: a wake here is a failure.
void put(Mailbox& mb, Message&& m) {
  mb.deposit(std::move(m), [] { ADD_FAILURE() << "woke with no waiter"; });
}

/// Retrieve of a key that is already queued: a park here is a failure.
Message take(Mailbox& mb, const MsgKey& key) {
  return mb.retrieve(key, [](std::unique_lock<std::mutex>&) {
    throw std::logic_error("retrieve parked on a queued key");
  });
}

TEST(Mailbox, RetrievesOutOfDepositOrder) {
  MsgNodePool pool;
  Mailbox mb(pool);
  // Deposit in an order unrelated to the retrieval order.
  put(mb, make_msg(1, 30, 2, 300));
  put(mb, make_msg(1, 10, 0, 100));
  put(mb, make_msg(2, 10, 0, 999));  // same tag/src, different comm
  put(mb, make_msg(1, 20, 1, 200));

  EXPECT_EQ(value_of(take(mb, MsgKey{1, 10, 0})), 100u);
  EXPECT_EQ(value_of(take(mb, MsgKey{2, 10, 0})), 999u);
  EXPECT_EQ(value_of(take(mb, MsgKey{1, 30, 2})), 300u);
  EXPECT_EQ(value_of(take(mb, MsgKey{1, 20, 1})), 200u);
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, BulkDepositsThenRetrieveAll) {
  // A bulk backlog (every PE deposits before the owner drains anything —
  // the situation the old linear scan degraded on) must match exactly.
  MsgNodePool pool;
  Mailbox mb(pool);
  const int kSenders = 64, kTags = 8;
  for (int src = kSenders - 1; src >= 0; --src)
    for (int t = kTags - 1; t >= 0; --t)
      put(mb, make_msg(7, static_cast<std::uint64_t>(t), src,
                       static_cast<std::uint64_t>(src * 1000 + t)));
  EXPECT_FALSE(mb.empty());
  for (int src = 0; src < kSenders; ++src)
    for (int t = 0; t < kTags; ++t)
      EXPECT_EQ(value_of(take(mb, MsgKey{7, static_cast<std::uint64_t>(t),
                                         src})),
                static_cast<std::uint64_t>(src * 1000 + t));
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, SameKeyMessagesKeepFifoOrder) {
  MsgNodePool pool;
  Mailbox mb(pool);
  for (std::uint64_t v = 0; v < 5; ++v) put(mb, make_msg(1, 4, 2, v));
  for (std::uint64_t v = 0; v < 5; ++v)
    EXPECT_EQ(value_of(take(mb, MsgKey{1, 4, 2})), v);
}

TEST(Mailbox, BlockedRetrieveWokenByMatchingDepositOnly) {
  // A real consumer thread parked on a semaphore, as Engine::park parks a
  // PE's OS thread when no fiber run is in flight.
  MsgNodePool pool;
  Mailbox mb(pool);
  std::binary_semaphore sem{0};
  std::uint64_t got = 0;
  std::thread consumer([&] {
    got = value_of(
        mb.retrieve(MsgKey{1, 2, 3}, [&](std::unique_lock<std::mutex>& lock) {
          lock.unlock();
          sem.acquire();
          lock.lock();
        }));
  });
  const auto wake = [&] { sem.release(); };
  // Non-matching deposits must not satisfy the retrieve.
  mb.deposit(make_msg(1, 2, 4, 111), wake);
  mb.deposit(make_msg(1, 9, 3, 222), wake);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.deposit(make_msg(1, 2, 3, 333), wake);
  consumer.join();
  EXPECT_EQ(got, 333u);
  EXPECT_FALSE(mb.empty());  // the two non-matching messages remain
}

TEST(Mailbox, RetrieveOrBlockProtocol) {
  MsgNodePool pool;
  Mailbox mb(pool);
  int parks = 0, wakes = 0;
  const auto count_wake = [&] { ++wakes; };
  // Miss: the retrieve registers its key and parks. While it is parked the
  // deposits below stand in for another PE: the matching one consumes the
  // registration and wakes it, exactly once.
  const Message got =
      mb.retrieve(MsgKey{1, 2, 3}, [&](std::unique_lock<std::mutex>& lock) {
        if (++parks > 1) throw std::logic_error("parked twice");
        lock.unlock();
        mb.deposit(make_msg(1, 2, 3, 42), count_wake);  // the registered key
        EXPECT_EQ(wakes, 1);
        mb.deposit(make_msg(1, 2, 3, 43), count_wake);  // no waiter any more
        EXPECT_EQ(wakes, 1);
        lock.lock();
      });
  EXPECT_EQ(parks, 1);
  EXPECT_EQ(value_of(got), 42u);

  // Hit: the queued message comes back without parking.
  EXPECT_EQ(value_of(take(mb, MsgKey{1, 2, 3})), 43u);
  EXPECT_EQ(wakes, 1);
}

TEST(Mailbox, NonMatchingDepositDoesNotWakeRegisteredWaiter) {
  MsgNodePool pool;
  Mailbox mb(pool);
  int parks = 0, wakes = 0;
  const auto count_wake = [&] { ++wakes; };
  const Message got =
      mb.retrieve(MsgKey{1, 2, 3}, [&](std::unique_lock<std::mutex>& lock) {
        if (++parks > 1) throw std::logic_error("parked twice");
        lock.unlock();
        mb.deposit(make_msg(9, 9, 9, 1), count_wake);  // different key
        mb.deposit(make_msg(1, 2, 4, 2), count_wake);  // different source
        EXPECT_EQ(wakes, 0);
        mb.deposit(make_msg(1, 2, 3, 3), count_wake);  // the registered key
        EXPECT_EQ(wakes, 1);
        lock.lock();
      });
  EXPECT_EQ(parks, 1);
  EXPECT_EQ(value_of(got), 3u);
  EXPECT_FALSE(mb.empty());  // the two non-matching messages remain
}

TEST(Mailbox, PoisonWakesParkedConsumerOnceAndRetrieveThrows) {
  MsgNodePool pool;
  Mailbox mb(pool);
  int parks = 0, wakes = 0;
  const auto count_wake = [&] { ++wakes; };
  EXPECT_THROW(
      mb.retrieve(MsgKey{1, 2, 3},
                  [&](std::unique_lock<std::mutex>& lock) {
                    if (++parks > 1) throw std::logic_error("parked twice");
                    lock.unlock();
                    mb.poison(count_wake);
                    mb.poison(count_wake);  // registration already consumed
                    lock.lock();
                  }),
      RunAborted);
  EXPECT_EQ(parks, 1);
  EXPECT_EQ(wakes, 1);
  // A poisoned mailbox throws before it registers, so it never parks.
  EXPECT_THROW(take(mb, MsgKey{1, 2, 3}), RunAborted);
}

// ---------------------------------------------------------------------------
// Slab-store regressions: table growth, backward-shift deletion, node reuse
// ---------------------------------------------------------------------------

TEST(Mailbox, ManyConcurrentKeysGrowTableAndDrainExactly) {
  // Far more simultaneously queued keys than the initial table: the
  // open-addressing store must grow with messages pending and still match
  // every key exactly afterwards.
  MsgNodePool pool;
  Mailbox mb(pool);
  const int kKeys = 1000;
  for (int k = 0; k < kKeys; ++k)
    put(mb, make_msg(3, static_cast<std::uint64_t>(k * 7), k % 97,
                     static_cast<std::uint64_t>(k)));
  EXPECT_FALSE(mb.empty());
  // Retrieve in an order unrelated to deposit order (stride walk), so the
  // backward-shift deletion runs against a well-populated table.
  for (int i = 0; i < kKeys; ++i) {
    const int k = static_cast<int>(
        (static_cast<std::uint64_t>(i) * 389) % kKeys);
    EXPECT_EQ(value_of(take(
                  mb, MsgKey{3, static_cast<std::uint64_t>(k * 7), k % 97})),
              static_cast<std::uint64_t>(k));
  }
  EXPECT_TRUE(mb.empty());  // drained: no leaked nodes or ghost slots
}

TEST(Mailbox, InterleavedChurnKeepsPerKeyFifoAcrossNodeReuse) {
  // Deposit/retrieve interleaving recycles nodes through the pool while
  // other keys stay queued; FIFO order per key must survive the churn and
  // repeated slot erase/reinsert of the same keys.
  MsgNodePool pool;
  Mailbox mb(pool);
  std::uint64_t next_put[4] = {0, 0, 0, 0};
  std::uint64_t next_get[4] = {0, 0, 0, 0};
  const auto send = [&](int key) {
    put(mb, make_msg(5, static_cast<std::uint64_t>(key), key,
                     next_put[key]++));
  };
  const auto recv = [&](int key) {
    EXPECT_EQ(value_of(take(mb, MsgKey{5, static_cast<std::uint64_t>(key),
                                       key})),
              next_get[key]++);
  };
  for (int round = 0; round < 200; ++round) {
    send(round % 4);
    send((round + 1) % 4);
    recv(round % 4);  // often empties the key's slot …
    send(round % 4);  // … which is then immediately re-inserted
    recv((round + 1) % 4);
    recv(round % 4);
  }
  EXPECT_TRUE(mb.empty());
  // The store stays fully usable after total drain.
  send(2);
  recv(2);
  EXPECT_TRUE(mb.empty());
}

TEST(MsgNodePoolTest, HighWaterTracksPeakInUse) {
  MsgNodePool pool;
  std::vector<MsgNode*> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.high_water(), 5);
  pool.release(held.back());
  held.pop_back();
  pool.release(held.back());
  held.pop_back();
  held.push_back(pool.acquire());  // back to 4 in use — peak unchanged
  EXPECT_EQ(pool.high_water(), 5);
  held.push_back(pool.acquire());
  held.push_back(pool.acquire());  // 6 in use — new peak
  EXPECT_EQ(pool.high_water(), 6);
  for (MsgNode* n : held) pool.release(n);
  EXPECT_EQ(pool.high_water(), 6);  // high-water survives full drain
}

TEST(BufferPoolTest, ByteCapDropsBuffersBeyondRetainedLimit) {
  // The pool retains at most 256 MiB of payload capacity: a burst of huge
  // one-off buffers (splitter tables at large p) must not stay pinned.
  BufferPool pool;
  constexpr std::size_t kBig = 64u << 20;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> buf;
    buf.reserve(kBig);
    pool.release(std::move(buf));  // 5th release exceeds the cap — dropped
  }
  int retained = 0;
  for (int i = 0; i < 5; ++i) {
    if (pool.acquire(kBig).capacity() >= kBig) ++retained;
  }
  EXPECT_EQ(retained, 4);
}

TEST(MailboxSharding, CrossShardTrafficDeliversExactlyUnderMultipleWorkers) {
  // With PMPS_FIBER_WORKERS=3 the engine keys mailbox pool shards by
  // destination PE; every send below crosses shard boundaries (all-to-all),
  // and the shard high-water counters must see the traffic.
  if (!fibers_supported()) GTEST_SKIP() << "no fiber backend on this platform";
  setenv("PMPS_FIBER_WORKERS", "3", 1);
  {
    Engine engine(12, MachineParams::supermuc_like(), /*seed=*/2,
                  EngineBackend::kFibers);
    engine.run([](Comm& comm) {
      const std::uint64_t tag = comm.next_tag_block();
      const int p = comm.size();
      for (int d = 0; d < p; ++d)
        comm.send_one<std::int64_t>(d, tag, comm.rank() * 100 + d);
      std::int64_t sum = 0;
      for (int s = 0; s < p; ++s)
        sum += comm.recv_one<std::int64_t>(s, tag);
      // Σ_s (s·100 + me) over all senders s.
      EXPECT_EQ(sum, 100 * (p * (p - 1) / 2) + p * comm.rank());
    });
    const EngineStats es = engine.report().engine;
    EXPECT_EQ(es.mailbox_shards, 3);
    EXPECT_GT(es.mailbox_node_high_water, 0);
    EXPECT_GE(es.mailbox_nodes_total_high_water, es.mailbox_node_high_water);
  }
  unsetenv("PMPS_FIBER_WORKERS");
}

TEST(Mailbox, TeardownWithQueuedMessagesReleasesNodes) {
  // A mailbox destroyed with undrained messages (failed run teardown) must
  // hand its nodes back without touching freed payloads — this test is a
  // crash/asan regression more than an assertion.
  MsgNodePool pool;
  auto mb = std::make_unique<Mailbox>(pool);
  for (int i = 0; i < 300; ++i)
    put(*mb, make_msg(1, static_cast<std::uint64_t>(i), 0,
                      static_cast<std::uint64_t>(i)));
  EXPECT_FALSE(mb->empty());
  mb.reset();  // must not leak or double-free
}

}  // namespace
}  // namespace pmps::net
