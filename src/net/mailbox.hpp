// Per-PE mailbox: the delivery endpoint for simulated messages.
//
// Messages are matched on (comm id, tag, source PE). Collectives allocate
// tag blocks in SPMD lockstep (every member of a communicator executes the
// same sequence of operations), so matching is unambiguous and the whole
// simulation is deterministic regardless of OS thread scheduling.
//
// The store is a *slab mailbox*: an open-addressing key table (linear
// probing, backward-shift deletion) whose slots head intrusively linked
// FIFO lists of pooled message nodes. The previous
// unordered_map<MsgKey, deque<Message>> paid one map-node allocation plus
// a deque-segment allocation per key per backlog — per-message heap churn
// on the hottest path of the whole simulator. Nodes now come from a
// per-engine MsgNodePool (slab-allocated, recycled through an intrusive
// free list, the BufferPool discipline applied to mailbox bookkeeping), so
// deposit/retrieve allocate nothing once warm; the key table only
// allocates when it grows, which stops once it reaches the run's working
// set. Matching semantics, per-key FIFO order and virtual time are
// untouched — the store is host-side bookkeeping the §2.1 cost model never
// sees (docs/DESIGN.md §9).
//
// Wakeups are *targeted*: a mailbox has exactly one consumer (its owning
// PE), which registers the key it is waiting for; deposit() only wakes it
// when the deposited key matches that registration, instead of
// notify_all-broadcasting on every deposit.
//
// The mailbox does not know how its consumer blocks: retrieve() hands the
// locked mailbox to a `park` callable and deposit()/poison() call a `wake`
// callable, which the engine binds to Engine::park and Engine::wake — a
// fiber park on the fiber backend, a per-PE semaphore on the thread
// backend (docs/DESIGN.md §6).

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/math.hpp"
#include "common/random.hpp"

namespace pmps::net {

/// One simulated in-flight message: the matching triple (communicator,
/// tag, source), the virtual arrival time, and the raw payload bytes.
/// Payload buffers are recycled through the engine's BufferPool — a
/// receiver that consumed the payload hands the buffer back via
/// Comm::release_payload.
struct Message {
  std::uint64_t comm_id = 0;  ///< owning communicator (part of the match key)
  std::uint64_t tag = 0;      ///< tag within the communicator (match key)
  int src_pe = -1;            ///< global PE id of the sender (match key)
  double arrival = 0;     ///< earliest virtual time the payload is available
  std::vector<std::byte> payload;  ///< raw bytes; pooled, see BufferPool
};

/// Free-list of message payload buffers, shared by all PEs of an engine.
///
/// Every simulated send used to heap-allocate a fresh payload vector and
/// every recv freed it — at paper-scale p the allocator churn dominated
/// *host* time (virtual time never sees it). Senders now acquire() a
/// recycled buffer and receivers release() it once the payload has been
/// copied out, so steady-state communication allocates nothing.
///
/// The free list is bucketed by power-of-two capacity classes:
/// acquire(size_hint) returns a buffer whose retained capacity already
/// covers the hint when one exists, so a small recycled buffer is never
/// handed to a large payload only to be regrown (and a large buffer is not
/// wasted on a 1-byte barrier token while a large send goes empty-handed).
/// Buffers keep their capacity while pooled, so the retained memory
/// converges to the peak number of in-flight messages times their payload
/// sizes — memory the simulation already needed at its peak. The free
/// list is capped; beyond the cap release() simply frees.
class BufferPool {
 public:
  /// Returns a recycled buffer (empty, capacity retained) with capacity of
  /// at least `size_hint` bytes when the free list has one; otherwise the
  /// best it can do is a fresh empty vector the caller's assign will grow.
  /// Thread-safe: senders on any PE call this concurrently.
  std::vector<std::byte> acquire(std::size_t size_hint) {
    const int lo =
        size_hint <= 1
            ? 0
            : std::min(floor_log2(static_cast<std::uint64_t>(size_hint)),
                       kClasses - 1);
    std::lock_guard lock(mu_);
    // Boundary class: its capacities share floor(log2) with the hint but
    // may still fall short of it, so check before taking (in the common
    // case — recurring payload sizes — the first candidate fits).
    {
      auto& cls = free_[static_cast<std::size_t>(lo)];
      for (std::size_t i = cls.size(); i-- > 0;) {
        if (cls[i].capacity() < size_hint) continue;
        std::vector<std::byte> buf = std::move(cls[i]);
        cls[i] = std::move(cls.back());
        cls.pop_back();
        --retained_;
        retained_bytes_ -= buf.capacity();
        return buf;
      }
    }
    // Every buffer in a higher class is large enough by construction.
    for (int c = lo + 1; c < kClasses; ++c) {
      auto& cls = free_[static_cast<std::size_t>(c)];
      if (cls.empty()) continue;
      std::vector<std::byte> buf = std::move(cls.back());
      cls.pop_back();
      --retained_;
      retained_bytes_ -= buf.capacity();
      return buf;
    }
    return {};
  }

  /// Returns a drained payload buffer to its capacity class (cleared,
  /// capacity kept). Buffers beyond the retention caps — count *or* bytes,
  /// the latter so a burst of huge one-off payloads (splitter tables at
  /// large p) cannot pin gigabytes — and moved-from husks with no capacity
  /// are simply dropped.
  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;
    buf.clear();
    const int c =
        std::min(floor_log2(static_cast<std::uint64_t>(buf.capacity())),
                 kClasses - 1);
    std::lock_guard lock(mu_);
    if (retained_ < kMaxRetained &&
        retained_bytes_ + buf.capacity() <= kMaxRetainedBytes) {
      retained_bytes_ += buf.capacity();
      free_[static_cast<std::size_t>(c)].push_back(std::move(buf));
      ++retained_;
    }
  }

 private:
  /// Capacity classes 2^0 … 2^47+: class c holds buffers with
  /// floor(log2(capacity)) == c. A hint's own class is capacity-checked;
  /// every buffer in a higher class has capacity >= 2^(c+1) > hint.
  static constexpr int kClasses = 48;
  static constexpr std::size_t kMaxRetained = 8192;
  static constexpr std::size_t kMaxRetainedBytes = 256u << 20;
  std::mutex mu_;
  std::size_t retained_ = 0;
  std::size_t retained_bytes_ = 0;
  std::array<std::vector<std::vector<std::byte>>, kClasses> free_;
};

/// Matching key for point-to-point messages — the (communicator, tag,
/// source) triple a receiver names in recv(). Tag blocks are allocated in
/// SPMD lockstep (Comm::next_tag_block), so a key is never ambiguous.
struct MsgKey {
  std::uint64_t comm_id = 0;
  std::uint64_t tag = 0;
  int src_pe = -1;

  friend bool operator==(const MsgKey&, const MsgKey&) = default;
};

/// Hash for the mailbox's key table (mix64 over the triple).
struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const {
    std::uint64_t h = mix64(k.comm_id ^ (k.tag * 0x9e3779b97f4a7c15ULL));
    h ^= mix64(static_cast<std::uint64_t>(k.src_pe) + 0x51ed2701ULL);
    return static_cast<std::size_t>(h);
  }
};

/// One pooled mailbox entry: a Message plus the intrusive link chaining
/// same-key messages in FIFO order (or free-list nodes when recycled).
struct MsgNode {
  Message msg;
  MsgNode* next = nullptr;
};

/// Slab allocator for MsgNodes, shared by all mailboxes of an engine
/// (beside the payload BufferPool). Nodes are carved from chunked slabs,
/// handed out through an intrusive free list and recycled on retrieve, so
/// steady-state deposits allocate nothing; the slabs live until the pool
/// is destroyed (their count converges to the peak number of in-flight
/// messages). Thread-safe: any PE deposits into any mailbox.
class MsgNodePool {
 public:
  MsgNodePool() = default;
  MsgNodePool(const MsgNodePool&) = delete;
  MsgNodePool& operator=(const MsgNodePool&) = delete;

  MsgNode* acquire() {
    std::lock_guard lock(mu_);
    if (free_ == nullptr) grow_locked();
    MsgNode* n = free_;
    free_ = n->next;
    n->next = nullptr;
    if (++in_use_ > high_water_) high_water_ = in_use_;
    return n;
  }

  /// Recycles a node. The caller normally moved the Message out already;
  /// a node carrying a live payload (mailbox teardown) is reset here.
  void release(MsgNode* n) {
    n->msg = Message{};
    std::lock_guard lock(mu_);
    n->next = free_;
    free_ = n;
    --in_use_;
  }

  /// Peak number of nodes simultaneously checked out — the pool's
  /// high-water mark of in-flight messages (EngineStats reporting).
  std::int64_t high_water() const {
    std::lock_guard lock(mu_);
    return high_water_;
  }

 private:
  static constexpr std::size_t kSlabNodes = 256;

  void grow_locked() {
    slabs_.push_back(std::make_unique<MsgNode[]>(kSlabNodes));
    MsgNode* slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
  }

  mutable std::mutex mu_;
  MsgNode* free_ = nullptr;
  std::int64_t in_use_ = 0;
  std::int64_t high_water_ = 0;
  std::vector<std::unique_ptr<MsgNode[]>> slabs_;
};

/// Thrown out of a retrieve when the mailbox has been poisoned — the run
/// was aborted (e.g. NetworkError retry exhaustion on some other PE) and a
/// receiver that might otherwise wait forever for a dead sender must unwind
/// instead. Caught by the engine's per-PE body wrapper; user programs never
/// see it.
class RunAborted : public std::runtime_error {
 public:
  RunAborted() : std::runtime_error("simulated run aborted") {}
};

/// One PE's delivery endpoint: an open-addressing key table over pooled
/// FIFO node lists behind one mutex, with a single registered consumer
/// (the owning PE) and targeted wakeups. Any PE may deposit(); only the
/// owner retrieves.
///
/// Registration invariant: a retrieve that misses registers its key once
/// and then parks, and every `wake` call consumes that registration — so
/// each park is answered by exactly one wake, never two.
class Mailbox {
 public:
  /// Nodes come from `pool` (the engine's shard for this PE), which must
  /// outlive the mailbox.
  explicit Mailbox(MsgNodePool& pool) : pool_(&pool) {}

  /// Returns any undrained nodes (teardown after a failed run) to the pool.
  ~Mailbox() { drain(); }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits `m`. If the owning PE is registered waiting on exactly `m`'s
  /// key, the registration is consumed and `wake()` is invoked — a targeted
  /// wakeup of the one consumer, never a broadcast. `wake` runs outside the
  /// mailbox lock; the waiter re-checks the store after resuming.
  template <typename Wake>
  void deposit(Message&& m, Wake&& wake) {
    MsgNode* node = pool_->acquire();
    node->msg = std::move(m);
    bool woke = false;
    {
      std::lock_guard lock(mu_);
      const MsgKey key{node->msg.comm_id, node->msg.tag, node->msg.src_pe};
      push_locked(key, node);
      if (waiting_ && waiting_key_ == key) {
        waiting_ = false;
        woke = true;
      }
    }
    if (woke) wake();
  }

  /// Removes and returns the oldest message matching `key`. While none is
  /// queued it registers `key` and calls `park(lock)` with the mailbox
  /// locked (`lock` is a std::unique_lock on the mailbox mutex): `park`
  /// must release the lock, block until the registration is consumed by a
  /// deposit or poison, and return with the lock held again. Throws
  /// RunAborted once the mailbox is poisoned.
  template <typename Park>
  Message retrieve(const MsgKey& key, Park&& park) {
    std::unique_lock lock(mu_);
    for (;;) {
      if (poisoned_) throw RunAborted{};
      if (MsgNode* n = pop_locked(key)) {
        lock.unlock();
        return take(n);
      }
      waiting_ = true;
      waiting_key_ = key;
      park(lock);
    }
  }

  /// True when no message is queued (used by the engine's end-of-run
  /// leak check: a finished simulation must have drained every mailbox).
  bool empty() const {
    std::lock_guard lock(mu_);
    return size_ == 0;
  }

  /// Aborts the consumer: marks the mailbox poisoned (every subsequent or
  /// pending retrieve throws RunAborted) and, exactly like deposit, consumes
  /// a waiting registration and invokes `wake()` outside the lock so a
  /// parked consumer re-checks and unwinds. Idempotent.
  template <typename Wake>
  void poison(Wake&& wake) {
    bool woke = false;
    {
      std::lock_guard lock(mu_);
      poisoned_ = true;
      if (waiting_) {
        waiting_ = false;
        woke = true;
      }
    }
    if (woke) wake();
  }

  /// Clears the poison flag and releases every queued message (payload
  /// buffers are freed with their nodes). Called by the engine before the
  /// run after a failed one, so an aborted simulation's undrained traffic
  /// does not trip the next run's leak check.
  void drain() {
    std::lock_guard lock(mu_);
    for (Slot& s : slots_) {
      MsgNode* n = s.head;
      while (n != nullptr) {
        MsgNode* next = n->next;
        pool_->release(n);
        n = next;
      }
      s.head = nullptr;
      s.tail = nullptr;
    }
    used_ = 0;
    size_ = 0;
    poisoned_ = false;
    waiting_ = false;
  }

 private:
  /// One key-table entry: the key plus its FIFO list. head == nullptr
  /// marks the slot empty.
  struct Slot {
    MsgKey key;
    MsgNode* head = nullptr;
    MsgNode* tail = nullptr;
  };

  static constexpr std::size_t kInitialSlots = 16;

  /// Moves the message out and recycles the node.
  Message take(MsgNode* n) {
    Message m = std::move(n->msg);
    pool_->release(n);
    return m;
  }

  /// Linear probe: the slot holding `key`, or the first empty slot on its
  /// probe path. Terminates because the table never exceeds 70% load.
  std::size_t probe_locked(const MsgKey& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = MsgKeyHash{}(key) & mask;
    while (slots_[i].head != nullptr && !(slots_[i].key == key))
      i = (i + 1) & mask;
    return i;
  }

  void push_locked(const MsgKey& key, MsgNode* node) {
    node->next = nullptr;
    if (slots_.empty()) slots_.resize(kInitialSlots);
    std::size_t i = probe_locked(key);
    if (slots_[i].head == nullptr) {
      // New key: grow first when this insert would cross 70% load, so
      // probe chains stay short and deletion stays cheap.
      if ((used_ + 1) * 10 > slots_.size() * 7) {
        grow_locked();
        i = probe_locked(key);
      }
      Slot& s = slots_[i];
      s.key = key;
      s.head = s.tail = node;
      ++used_;
    } else {
      Slot& s = slots_[i];
      s.tail->next = node;
      s.tail = node;
    }
    ++size_;
  }

  MsgNode* pop_locked(const MsgKey& key) {
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe_locked(key);
    Slot& s = slots_[i];
    if (s.head == nullptr) return nullptr;
    MsgNode* node = s.head;
    s.head = node->next;
    if (s.head == nullptr) erase_locked(i);
    node->next = nullptr;
    --size_;
    return node;
  }

  /// Backward-shift deletion for linear probing: refill slot `i` by
  /// walking forward and moving back the first entry whose probe path
  /// passes through `i`, repeating from the hole that move leaves. No
  /// tombstones, so lookup cost never degrades with churn.
  void erase_locked(std::size_t i) {
    --used_;
    const std::size_t mask = slots_.size() - 1;
    std::size_t j = i;
    for (;;) {
      slots_[i].head = nullptr;
      slots_[i].tail = nullptr;
      std::size_t ideal;
      do {
        j = (j + 1) & mask;
        if (slots_[j].head == nullptr) return;
        ideal = MsgKeyHash{}(slots_[j].key) & mask;
        // Entry j must stay if its ideal slot lies strictly inside (i, j].
      } while (((j - ideal) & mask) < ((j - i) & mask));
      slots_[i] = slots_[j];
      i = j;
    }
  }

  /// Doubles the table (allocation happens only here; once the table
  /// covers the run's concurrent-key working set it never grows again).
  void grow_locked() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    used_ = 0;
    for (const Slot& s : old) {
      if (s.head == nullptr) continue;
      const std::size_t i = probe_locked(s.key);
      slots_[i] = s;
      ++used_;
    }
  }

  mutable std::mutex mu_;
  MsgNodePool* pool_;  ///< the engine's pool shard for this PE
  std::vector<Slot> slots_;  ///< open-addressing key table (pow2 size)
  std::size_t used_ = 0;     ///< occupied slots (distinct queued keys)
  std::size_t size_ = 0;     ///< queued messages
  bool waiting_ = false;
  bool poisoned_ = false;  ///< run aborted; retrieves throw RunAborted
  MsgKey waiting_key_{};
};

}  // namespace pmps::net
