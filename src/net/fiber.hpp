// Stackful fibers and the cooperative scheduler behind the SPMD engine.
//
// A FiberPool owns W worker threads, each pulling PE fibers off a shared run
// queue. A fiber that cannot make progress (a recv found no matching
// message, or a rendezvous is still waiting for peers) parks itself through
// Engine::park instead of sleeping on an OS primitive; the PE that later
// consumes its registration re-enqueues it through Engine::wake. This
// replaces the seed engine's one-OS-thread-per-PE model, whose
// thread-creation and wakeup-storm costs capped every bench at p ≤ 256, and
// lets a single host simulate paper-scale PE counts (p ≥ 4096, cf. §7.3).
//
// Context switching is a hand-rolled register swap for ELF x86-64 and
// AArch64; on every other platform the engine falls back to the legacy
// thread-per-PE backend behind the same interface (see fibers_supported()
// and PMPS_ENGINE in engine.hpp).
//
// Blocking protocol (the part that makes wakeups race-free):
//   1. The fiber, holding its waker's lock (its mailbox's, or the engine's
//      rendezvous lock), registers its wait and calls prepare_block() →
//      state = kBlocking.
//   2. It releases the lock and calls block_current(), which switches back
//      to the worker. The worker moves kBlocking → kBlocked (parked).
//   3. A depositor that consumed the registration calls wake(): it either
//      catches the fiber in kBlocking (sets kReady; the worker sees the
//      failed kBlocking→kBlocked CAS and re-enqueues) or in kBlocked
//      (CAS to kRunnable and enqueues it itself). No wakeup can be lost and
//      a fiber is never enqueued while its stack is still live on a worker.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

// Fibers are available where we have the hand-rolled context switch: ELF
// x86-64 and AArch64. Other platforms, macOS among them, get the thread
// backend.
#if defined(__ELF__) && (defined(__x86_64__) || defined(__aarch64__))
#define PMPS_HAS_FIBERS 1
#else
#define PMPS_HAS_FIBERS 0
#endif

namespace pmps::net {

/// True when the stackful-fiber backend is available on this platform.
bool fibers_supported();

/// Memory accounting for a FiberPool's shared stack pool (all byte values
/// are host-side resident-memory estimates, not virtual reservations —
/// except stack_bytes_reserved, which is the mapped total).
struct FiberStackStats {
  std::int64_t stacks = 0;           ///< stacks currently held by the pool
  std::int64_t guarded_stacks = 0;   ///< stacks with their own guard page
  std::int64_t stack_acquires = 0;   ///< lifetime acquire count (reuse ⇒ ≫ stacks)
  std::int64_t stack_bytes_reserved = 0;  ///< mapped (virtual) stack bytes
  std::int64_t peak_stack_bytes = 0;  ///< peak touched (resident) stack bytes
  std::int64_t current_stack_bytes = 0;  ///< touched bytes right now
  std::int64_t reclaims = 0;          ///< madvise(MADV_DONTNEED) calls
  std::int64_t reclaimed_bytes = 0;   ///< bytes returned to the kernel
};

#if PMPS_HAS_FIBERS

class FiberPool;

/// One batch of fibers scheduled on a FiberPool: the unit of an SPMD run.
/// A standalone engine keeps a single cached batch and relaunches it per
/// run; the sort service launches one batch per admitted job, so several
/// independent jobs interleave on the same warm worker pool. Fiber indices
/// are batch-local (PE ids), so concurrent batches never alias each other's
/// wakes. Create with FiberPool::create_batch, start with FiberPool::launch.
class FiberBatch {
 public:
  ~FiberBatch();
  FiberBatch(const FiberBatch&) = delete;
  FiberBatch& operator=(const FiberBatch&) = delete;

  /// Makes fiber `index` of this batch runnable again. Must pair with a
  /// prepare_block()/block_current() on that fiber; called through
  /// Engine::wake by whoever consumed the fiber's wait registration.
  void wake(int index);

  /// Blocks the calling thread until every fiber of the current launch has
  /// finished. Returns immediately when the batch was never launched or has
  /// already completed.
  void wait();

 private:
  friend class FiberPool;
  FiberBatch();
  struct State;  ///< implementation detail (fiber.cpp)
  std::unique_ptr<State> st_;
};

/// Fixed pool of worker threads executing cooperatively scheduled stackful
/// fibers — the engine's default backend (PMPS_ENGINE=fibers). One pool
/// per EngineSubstrate; a standalone engine maps each simulated PE onto one
/// fiber of a single batch, while a SortService launches one batch per job
/// and lets the worker pool interleave them.
///
/// Stacks come from a shared *stack pool* instead of one mmap per fiber: a
/// fiber acquires a stack on its first resume and returns it when it exits,
/// so the pool holds at most max-concurrently-live fibers' worth of stacks
/// and reuses them across fibers and runs. Stacks are carved from slabs —
/// individually guard-paged up to a threshold, then packed many-per-slab
/// (one leading guard per slab), which keeps the VMA count far below the
/// kernel's vm.max_map_count even at p = 2^15 where per-fiber guard
/// mappings would exhaust it. A fiber parking in a long-lived collective
/// wait (prepare_block(long_wait = true)) has the cold span of its stack
/// madvise(MADV_DONTNEED)'d back to the kernel, down to roughly one
/// committed page above its live frames — a parked PE costs bytes, not
/// resident stack pages. Design and the blocking protocol: file comment
/// above and docs/DESIGN.md §6, §11.
class FiberPool {
 public:
  /// `num_workers` OS threads; each fiber gets `stack_bytes` of lazily
  /// committed stack from the shared pool.
  FiberPool(int num_workers, std::size_t stack_bytes);

  /// Joins the workers and unmaps the stack pool's slabs. Must not be
  /// called while a launch is in flight.
  ~FiberPool();

  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  /// Creates an idle batch of `n` fibers bound to this pool. The batch is
  /// reusable: launch it as many times as needed (each launch resets the
  /// fibers). Keep the shared_ptr alive until the final launch completed.
  std::shared_ptr<FiberBatch> create_batch(int n);

  /// Starts a launch of `batch`: every fiber becomes runnable with
  /// `body(i)` and the call returns immediately. The batch must be idle
  /// (never launched, or the previous launch fully finished). An exception
  /// escaping any body terminates the process (the std::thread contract;
  /// peers blocked on the dead PE could never finish anyway). If
  /// `on_complete` is non-empty it is invoked exactly once, on the worker
  /// thread that finishes the batch's last fiber, after FiberBatch::wait
  /// would unblock — the service's job-completion hook. `on_complete` may
  /// launch other batches but must not wait on this pool's fibers.
  void launch(FiberBatch& batch, std::function<void(int)> body,
              std::function<void()> on_complete = {});

  /// Publishes the current fiber's intent to block. Call while holding the
  /// lock that a waker will later hold (the mailbox lock, or the engine's
  /// rendezvous lock), so that any wake() issued after the registration
  /// finds the fiber in kBlocking or later — never in kRunning.
  /// `long_wait` marks a long-lived collective park (e.g. a barrier wait):
  /// the worker reclaims the fiber's cold stack span before parking it.
  static void prepare_block(bool long_wait);

  /// Parks the current fiber (after prepare_block). Returns once a wake()
  /// for this fiber has been issued.
  static void block_current();

  /// Worker-thread count the pool was built with (PMPS_FIBER_WORKERS or
  /// the hardware concurrency).
  int num_workers() const { return num_workers_; }

  /// Snapshot of the stack pool's memory accounting.
  FiberStackStats stack_stats() const;

  struct Fiber;  ///< implementation detail (fiber.cpp); opaque to callers

 private:
  friend class FiberBatch;
  struct Impl;
  struct Shard;

  void worker_main(int shard);
  void fiber_main(Fiber& f);
  void wake_fiber(Fiber* f);
  static void trampoline(void* arg);

  int num_workers_;
  Impl* impl_;
};

#else  // !PMPS_HAS_FIBERS

/// Stubs so engine code compiles; never instantiated (fibers_supported()
/// returns false and the engine selects the thread backend).
class FiberBatch {
 public:
  void wake(int) {}
  void wait() {}
};

class FiberPool {
 public:
  FiberPool(int, std::size_t) {}
  std::shared_ptr<FiberBatch> create_batch(int) {
    return std::make_shared<FiberBatch>();
  }
  void launch(FiberBatch&, std::function<void(int)>,
              std::function<void()> = {}) {}
  static void prepare_block(bool) {}
  static void block_current() {}
  int num_workers() const { return 0; }
  FiberStackStats stack_stats() const { return {}; }
};

#endif  // PMPS_HAS_FIBERS

}  // namespace pmps::net
