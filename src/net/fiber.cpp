#include "net/fiber.hpp"

#if PMPS_HAS_FIBERS

#include <unistd.h>

#include <sys/mman.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/math.hpp"
#include "net/knobs.hpp"

// ---------------------------------------------------------------------------
// Context switching.
//
// The hot operation of the whole engine is parking/resuming a fiber, so it
// uses a hand-rolled switch: save the callee-saved registers on the
// suspending stack, swap stack pointers, restore, return. ~20 instructions
// and no kernel involvement. ucontext's swapcontext does the same plus a
// sigprocmask *system call* per switch (it preserves the signal mask),
// which multiplied into milliseconds per simulated run at large p —
// measured ~4× worse end-to-end at p = 256. Platforms without this switch
// (see PMPS_HAS_FIBERS) get the thread backend.
// ---------------------------------------------------------------------------

extern "C" {
/// Saves the callee-saved state on the current stack, stores the suspended
/// stack pointer to *from_sp, switches to to_sp and resumes whatever was
/// suspended (or freshly prepared) there.
void pmps_ctx_switch(void** from_sp, void* to_sp);
}

#if defined(__x86_64__)
// System V AMD64: rbx, rbp, r12–r15 are callee-saved; mxcsr control bits and
// the x87 control word are preserved across calls by convention, so a
// cooperative switch must carry them too (8 bytes). The entry thunk keeps
// rsp ≡ 8 (mod 16) at function entry, exactly like a `call`.
asm(R"(
.text
.globl pmps_ctx_switch
.hidden pmps_ctx_switch
.type pmps_ctx_switch, @function
pmps_ctx_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size pmps_ctx_switch, .-pmps_ctx_switch

.globl pmps_ctx_thunk
.hidden pmps_ctx_thunk
.type pmps_ctx_thunk, @function
pmps_ctx_thunk:
  movq %r12, %rdi
  subq $8, %rsp
  callq *%rbx
  hlt
.size pmps_ctx_thunk, .-pmps_ctx_thunk
)");

extern "C" void pmps_ctx_thunk();

namespace {

/// Lays out a fresh context on [stack, stack+size) that enters fn(arg) when
/// first switched to; returns the value to pass as to_sp.
void* ctx_make(char* stack, std::size_t size, void (*fn)(void*), void* arg) {
  // 16-align the top, then mirror pmps_ctx_switch's save area: fake frame
  // slot, thunk as return address, six registers, fp control words.
  auto top = reinterpret_cast<std::uintptr_t>(stack + size) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;  // padding: keeps the thunk's entry rsp ≡ 8 (mod 16)
  *--sp = reinterpret_cast<std::uint64_t>(&pmps_ctx_thunk);  // ret target
  *--sp = 0;                                     // rbp
  *--sp = reinterpret_cast<std::uint64_t>(fn);   // rbx
  *--sp = reinterpret_cast<std::uint64_t>(arg);  // r12
  *--sp = 0;                                     // r13
  *--sp = 0;                                     // r14
  *--sp = 0;                                     // r15
  *--sp = 0x037f'0000'1f80ULL;  // fcw (hi half) | default mxcsr (lo half)
  return sp;
}

}  // namespace

#elif defined(__aarch64__)
// AAPCS64: x19–x28, fp (x29), lr (x30) and d8–d15 are callee-saved. The
// switch stores them in a 160-byte frame; ret resumes via the restored x30.
asm(R"(
.text
.globl pmps_ctx_switch
.hidden pmps_ctx_switch
.type pmps_ctx_switch, @function
pmps_ctx_switch:
  sub sp, sp, #160
  stp x19, x20, [sp, #0]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8,  d9,  [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x2, sp
  str x2, [x0]
  mov sp, x1
  ldp x19, x20, [sp, #0]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8,  d9,  [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  add sp, sp, #160
  ret
.size pmps_ctx_switch, .-pmps_ctx_switch

.globl pmps_ctx_thunk
.hidden pmps_ctx_thunk
.type pmps_ctx_thunk, @function
pmps_ctx_thunk:
  mov x0, x20
  blr x19
  brk #0
.size pmps_ctx_thunk, .-pmps_ctx_thunk
)");

extern "C" void pmps_ctx_thunk();

namespace {

void* ctx_make(char* stack, std::size_t size, void (*fn)(void*), void* arg) {
  auto top = reinterpret_cast<std::uintptr_t>(stack + size) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<std::uint64_t*>(top) - 20;  // 160-byte frame
  for (int i = 0; i < 20; ++i) sp[i] = 0;
  sp[0] = reinterpret_cast<std::uint64_t>(fn);               // x19
  sp[1] = reinterpret_cast<std::uint64_t>(arg);              // x20
  sp[11] = reinterpret_cast<std::uint64_t>(&pmps_ctx_thunk);  // x30 (lr)
  return sp;
}

}  // namespace
#endif  // architecture

namespace pmps::net {

bool fibers_supported() { return true; }

namespace {

// Fiber lifecycle states (see the protocol comment in fiber.hpp).
enum FiberState : int {
  kRunnable = 0,  ///< in the run queue
  kRunning = 1,   ///< live on a worker
  kBlocking = 2,  ///< announced intent to park, still on the worker's CPU
  kBlocked = 3,   ///< parked, waiting for wake()
  kReady = 4,     ///< wake() raced with kBlocking; worker must re-enqueue
};

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

}  // namespace

/// One fiber's execution context: prepare() a fresh entry into fn(arg);
/// resume() from a worker (returns when the fiber suspends or finishes);
/// suspend() from inside the fiber.
struct FiberContext {
  void* sp = nullptr;       ///< suspended fiber's stack pointer
  void** resume_slot = nullptr;  ///< where the resuming worker parked itself

  void prepare(char* stack, std::size_t size, void (*fn)(void*), void* arg) {
    sp = ctx_make(stack, size, fn, arg);
  }
  void resume() {
    void* worker_sp = nullptr;
    resume_slot = &worker_sp;
    pmps_ctx_switch(&worker_sp, sp);
  }
  void suspend() { pmps_ctx_switch(&sp, *resume_slot); }
};

namespace {

/// Shared pool of fiber stacks. A fiber acquires a stack on its first
/// resume and returns it on exit, so the pool's stack count converges to
/// the peak number of concurrently live fibers and stacks are reused
/// across fibers and runs (their touched pages stay warm).
///
/// Stacks are carved from mmap'd slabs with two layouts:
///   - guarded (the first `guarded_cap` stacks): [guard][stack] pairs, an
///     overflow faults immediately — 2 VMAs per stack;
///   - packed (beyond the cap): one leading guard page, then many stacks
///     back to back — 2 VMAs per slab of 64 stacks. This is what makes
///     p = 2^15 possible at all: 32768 individually guarded stacks need
///     65536 VMAs, above the default vm.max_map_count (65530). Packed
///     stacks trade the per-stack guard for density; only the slab's lowest
///     stack faults on overflow, the rest would first overrun a neighbour's
///     cold end (256 KiB of headroom at the default stack size).
///
/// Residency accounting tracks, per stack, the lowest address known
/// touched (`low_touch`); parking fibers report their saved stack pointer
/// and long-lived collective parks madvise the cold span below the live
/// frames back to the kernel (reclaim()).
class StackPool {
 public:
  struct Stack {
    char* lo = nullptr;        ///< lowest usable address (above any guard)
    char* hi = nullptr;        ///< one past the highest usable address
    char* low_touch = nullptr; ///< lowest address believed resident
    bool guarded = false;
  };

  explicit StackPool(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
    guarded_cap_ = static_cast<std::size_t>(
        read_knob("PMPS_FIBER_GUARDED_STACKS", 0,
                  std::numeric_limits<int>::max())
            .value_or(4096));
  }

  ~StackPool() {
    for (const Slab& s : slabs_) munmap(s.base, s.bytes);
  }

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  Stack* acquire() {
    std::lock_guard lock(mu_);
    acquires_.fetch_add(1, std::memory_order_relaxed);
    if (free_.empty()) allocate_slab_locked();
    Stack* s = free_.back();
    free_.pop_back();
    return s;
  }

  void release(Stack* s) {
    std::lock_guard lock(mu_);
    free_.push_back(s);
  }

  /// Updates residency accounting from a parked fiber's saved stack
  /// pointer. Called by the owning worker only (the fiber is not
  /// concurrently resumable), so the Stack fields need no lock.
  void note_touch(Stack* s, void* sp) {
    char* touched = page_floor(sp);
    if (touched >= s->low_touch) return;
    const auto delta = static_cast<std::int64_t>(s->low_touch - touched);
    s->low_touch = touched;
    const std::int64_t cur =
        cur_touched_.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t peak = peak_touched_.load(std::memory_order_relaxed);
    while (cur > peak &&
           !peak_touched_.compare_exchange_weak(peak, cur,
                                                std::memory_order_relaxed)) {
    }
  }

  /// Returns the cold span of a long-parked stack to the kernel: everything
  /// below one page under the live frames (red-zone margin) is
  /// MADV_DONTNEED'd, so the parked fiber keeps roughly one committed page
  /// plus its live frames. Must run while the fiber is still kBlocking —
  /// i.e. before the worker publishes kBlocked — so no other worker can
  /// resume onto the stack mid-madvise.
  void reclaim(Stack* s, void* sp) {
    char* keep_from = page_floor(sp) - page_size();
    if (keep_from <= s->low_touch) return;  // nothing resident below margin
    const auto span = static_cast<std::size_t>(keep_from - s->low_touch);
    if (span < 4 * page_size()) return;  // not worth a syscall
    if (madvise(s->low_touch, span, MADV_DONTNEED) != 0) return;
    reclaims_.fetch_add(1, std::memory_order_relaxed);
    reclaimed_bytes_.fetch_add(static_cast<std::int64_t>(span),
                               std::memory_order_relaxed);
    cur_touched_.fetch_sub(static_cast<std::int64_t>(span),
                           std::memory_order_relaxed);
    s->low_touch = keep_from;
  }

  std::size_t usable_bytes() const { return stack_bytes_; }

  FiberStackStats stats() const {
    FiberStackStats st;
    {
      std::lock_guard lock(mu_);
      st.stacks = static_cast<std::int64_t>(all_.size());
      st.guarded_stacks = guarded_count_;
      st.stack_bytes_reserved = reserved_;
    }
    st.stack_acquires = acquires_.load(std::memory_order_relaxed);
    st.peak_stack_bytes = peak_touched_.load(std::memory_order_relaxed);
    st.current_stack_bytes = cur_touched_.load(std::memory_order_relaxed);
    st.reclaims = reclaims_.load(std::memory_order_relaxed);
    st.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  struct Slab {
    char* base;
    std::size_t bytes;
  };

  static constexpr std::size_t kGuardedPerSlab = 32;
  static constexpr std::size_t kPackedPerSlab = 64;

  static char* page_floor(void* p) {
    return reinterpret_cast<char*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~(page_size() - 1));
  }

  void allocate_slab_locked() {
    const std::size_t ps = page_size();
    const bool guarded = all_.size() < guarded_cap_;
    const std::size_t count = guarded ? kGuardedPerSlab : kPackedPerSlab;
    const std::size_t bytes =
        guarded ? count * (ps + stack_bytes_) : ps + count * stack_bytes_;
    void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PMPS_CHECK_MSG(base != MAP_FAILED, "fiber stack slab mmap failed");
    slabs_.push_back({static_cast<char*>(base), bytes});
    reserved_ += static_cast<std::int64_t>(count * stack_bytes_);
    char* p = static_cast<char*>(base);
    if (!guarded) {
      PMPS_CHECK(mprotect(p, ps, PROT_NONE) == 0);
      p += ps;
    }
    all_.reserve(all_.size() + count);
    free_.reserve(all_.capacity());
    for (std::size_t i = 0; i < count; ++i) {
      if (guarded) {
        PMPS_CHECK(mprotect(p, ps, PROT_NONE) == 0);
        p += ps;
      }
      auto s = std::make_unique<Stack>();
      s->lo = p;
      s->hi = p + stack_bytes_;
      s->low_touch = s->hi;
      s->guarded = guarded;
      if (guarded) ++guarded_count_;
      free_.push_back(s.get());
      all_.push_back(std::move(s));
      p += stack_bytes_;
    }
  }

  const std::size_t stack_bytes_;
  std::size_t guarded_cap_;

  mutable std::mutex mu_;
  std::vector<Slab> slabs_;
  std::vector<std::unique_ptr<Stack>> all_;
  std::vector<Stack*> free_;
  std::int64_t reserved_ = 0;
  std::int64_t guarded_count_ = 0;

  std::atomic<std::int64_t> acquires_{0};
  std::atomic<std::int64_t> cur_touched_{0};
  std::atomic<std::int64_t> peak_touched_{0};
  std::atomic<std::int64_t> reclaims_{0};
  std::atomic<std::int64_t> reclaimed_bytes_{0};
};

}  // namespace

struct FiberPool::Fiber {
  FiberContext ctx;
  StackPool::Stack* stack = nullptr;  ///< pooled stack; null until 1st resume
  std::atomic<int> state{kRunnable};
  bool finished = false;
  bool prepared = false;   ///< context laid out on `stack` for this launch
  bool long_wait = false;  ///< next park is a long-lived collective wait
  int index = -1;
  int home = 0;  ///< worker shard this fiber is pinned to (index % workers)
  FiberPool* pool = nullptr;
  FiberBatch::State* batch = nullptr;  ///< owning batch (body, done counter)
};

/// Shared state of one batch: its fibers, the launch's body, and the
/// completion accounting. Fibers of several batches coexist in the shard
/// run queues; each fiber carries a pointer back here.
struct FiberBatch::State {
  FiberPool* pool = nullptr;
  int n = 0;
  std::vector<std::unique_ptr<FiberPool::Fiber>> fibers;

  std::mutex mu;
  std::condition_variable cv;  ///< wait(): finished == n
  int finished = 0;
  bool launched = false;  ///< a launch happened (finished/n meaningful)
  std::function<void(int)> body;
  std::function<void()> on_complete;  ///< moved out by the finishing worker
};

/// Fixed-capacity ring of runnable fibers. A fiber is enqueued at most
/// once (the kRunnable state gate), so the queue never holds more than the
/// shard's live fiber count; launch() reserves that capacity up front and
/// the hot push/pop path allocates nothing — a std::deque here allocated a
/// fresh chunk every 64 enqueues in steady state, the last per-message heap
/// cost of the scheduler.
class RunQueue {
 public:
  /// Ensures capacity for `n` queued fibers, preserving queued entries
  /// (a batch launch can land while another batch's fibers are queued).
  /// Called under the shard lock.
  void reserve(std::size_t n) {
    if (ring_.size() >= n) return;
    std::vector<FiberPool::Fiber*> old = std::move(ring_);
    ring_.assign(next_pow2(n), nullptr);
    const std::uint64_t queued = tail_ - head_;
    for (std::uint64_t i = 0; i < queued; ++i)
      ring_[i] = old[(head_ + i) & (old.size() - 1)];
    head_ = 0;
    tail_ = queued;
  }
  bool empty() const { return head_ == tail_; }
  void push(FiberPool::Fiber* f) {
    ring_[tail_++ & (ring_.size() - 1)] = f;
  }
  FiberPool::Fiber* pop() { return ring_[head_++ & (ring_.size() - 1)]; }

 private:
  std::vector<FiberPool::Fiber*> ring_;  ///< power-of-two size
  std::uint64_t head_ = 0, tail_ = 0;    ///< free-running (masked on use)
};

/// One worker's scheduling shard: its own run queue behind its own
/// mutex/condvar. Fibers are pinned to shard index % workers, and a wake()
/// targets the woken fiber's home shard only — the scheduler has no global
/// lock on the warm deposit→retrieve→wake path.
struct FiberPool::Shard {
  std::mutex mu;
  std::condition_variable cv;  ///< this worker: queue non-empty or stop
  RunQueue q;
  std::size_t live = 0;  ///< unfinished fibers pinned here (queue capacity)
  bool stop = false;
};

struct FiberPool::Impl {
  std::size_t stack_bytes;
  StackPool stack_pool;
  std::vector<std::unique_ptr<Shard>> shards;  ///< one per worker
  std::vector<std::thread> workers;

  explicit Impl(std::size_t sb) : stack_bytes(sb), stack_pool(sb) {}
};

namespace {
thread_local FiberPool::Fiber* tl_current_fiber = nullptr;
}

FiberPool::FiberPool(int num_workers, std::size_t stack_bytes)
    : num_workers_(num_workers), impl_(nullptr) {
  PMPS_CHECK(num_workers >= 1);
  const std::size_t ps = page_size();
  impl_ = new Impl(((stack_bytes + ps - 1) / ps) * ps);
  impl_->shards.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    impl_->shards.push_back(std::make_unique<Shard>());
  impl_->workers.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    impl_->workers.emplace_back([this, w] { worker_main(w); });
}

FiberPool::~FiberPool() {
  for (auto& sh : impl_->shards) {
    {
      std::lock_guard lock(sh->mu);
      sh->stop = true;
    }
    sh->cv.notify_all();
  }
  for (auto& t : impl_->workers) t.join();
  delete impl_;  // StackPool unmaps the slabs
}

bool FiberPool::in_fiber() { return tl_current_fiber != nullptr; }

FiberStackStats FiberPool::stack_stats() const {
  return impl_->stack_pool.stats();
}

void FiberPool::prepare_block(bool long_wait) {
  Fiber* f = tl_current_fiber;
  PMPS_CHECK_MSG(f != nullptr, "prepare_block outside a fiber");
  f->long_wait = long_wait;
  f->state.store(kBlocking, std::memory_order_release);
}

void FiberPool::block_current() {
  Fiber* f = tl_current_fiber;
  PMPS_CHECK_MSG(f != nullptr, "block_current outside a fiber");
  // Switch back to the worker; it completes the kBlocking → kBlocked
  // transition (or observes kReady and re-enqueues us immediately).
  f->ctx.suspend();
}

void FiberPool::wake_fiber(Fiber* f) {
  Shard& home = *impl_->shards[static_cast<std::size_t>(f->home)];
  for (;;) {
    int s = f->state.load(std::memory_order_acquire);
    if (s == kBlocking) {
      // Still switching out: hand responsibility to its worker.
      if (f->state.compare_exchange_weak(s, kReady,
                                         std::memory_order_acq_rel))
        return;
    } else if (s == kBlocked) {
      if (f->state.compare_exchange_weak(s, kRunnable,
                                         std::memory_order_acq_rel)) {
        {
          std::lock_guard lock(home.mu);
          home.q.push(f);
        }
        home.cv.notify_one();
        return;
      }
    } else {
      // A waker only fires after the target registered a wait (state is
      // kBlocking or kBlocked at that point), so this is unreachable; be
      // defensive rather than deadlock on a protocol violation.
      std::this_thread::yield();
    }
  }
}

void FiberPool::trampoline(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  f->pool->fiber_main(*f);
}

void FiberPool::fiber_main(Fiber& f) {
  try {
    f.batch->body(f.index);
  } catch (...) {
    // Same contract as an exception escaping a std::thread: die loudly.
    // Swallowing it instead would hang the run — SPMD peers blocked on this
    // PE's sends would park forever and run() would never see all fibers
    // finish.
    std::fprintf(stderr,
                 "pmps: exception escaped the program on simulated PE %d; "
                 "terminating\n",
                 f.index);
    std::terminate();
  }
  f.finished = true;
  // Back to the worker for good; fiber_main must never return (there is no
  // caller frame underneath the entry thunk).
  for (;;) f.ctx.suspend();
}

void FiberPool::worker_main(int shard) {
  Shard& sh = *impl_->shards[static_cast<std::size_t>(shard)];
  for (;;) {
    Fiber* f = nullptr;
    {
      std::unique_lock lock(sh.mu);
      sh.cv.wait(lock, [&sh] { return sh.stop || !sh.q.empty(); });
      if (sh.q.empty()) return;  // stop requested, nothing queued
      f = sh.q.pop();
    }

    if (!f->prepared) {
      // First resume of this run: take a pooled stack and lay the entry
      // context out on it.
      f->stack = impl_->stack_pool.acquire();
      f->ctx.prepare(f->stack->lo, impl_->stack_pool.usable_bytes(),
                     &FiberPool::trampoline, f);
      f->prepared = true;
    }

    f->state.store(kRunning, std::memory_order_relaxed);
    tl_current_fiber = f;
    f->ctx.resume();
    tl_current_fiber = nullptr;

    if (f->finished) {
      // Fiber exit: the stack goes back to the pool (its touched pages stay
      // warm for the next acquirer).
      impl_->stack_pool.release(f->stack);
      f->stack = nullptr;
      f->prepared = false;
      {
        std::lock_guard lock(sh.mu);
        --sh.live;
      }
      FiberBatch::State* b = f->batch;
      std::function<void()> complete;
      {
        std::lock_guard lock(b->mu);
        if (++b->finished == b->n) {
          // Move the hook out before releasing anything: once wait()
          // unblocks, the batch owner may destroy the batch, so the worker
          // must only touch this local copy afterwards. notify under the
          // lock for the same reason.
          complete = std::move(b->on_complete);
          b->on_complete = nullptr;
          b->cv.notify_all();
        }
      }
      if (complete) complete();
    } else {
      impl_->stack_pool.note_touch(f->stack, f->ctx.sp);
      // Long-lived collective park: return the cold stack span to the
      // kernel. This must happen while the state is still kBlocking — a
      // waker can only flag kReady then, never resume the fiber, so the
      // madvise cannot race a live stack. (Skip if a wake already raced:
      // the fiber is about to run again.)
      if (f->long_wait && f->state.load(std::memory_order_acquire) == kBlocking)
        impl_->stack_pool.reclaim(f->stack, f->ctx.sp);
      f->long_wait = false;
      int expected = kBlocking;
      if (!f->state.compare_exchange_strong(expected, kBlocked,
                                            std::memory_order_acq_rel)) {
        // A wake() arrived while the fiber was switching out (kReady).
        f->state.store(kRunnable, std::memory_order_relaxed);
        {
          std::lock_guard lock(sh.mu);
          sh.q.push(f);
        }
        sh.cv.notify_one();
      }
    }
  }
}

std::shared_ptr<FiberBatch> FiberPool::create_batch(int n) {
  PMPS_CHECK(n >= 1);
  auto batch = std::shared_ptr<FiberBatch>(new FiberBatch());
  FiberBatch::State& st = *batch->st_;
  st.pool = this;
  st.n = n;
  st.fibers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto f = std::make_unique<Fiber>();
    f->index = i;
    f->home = i % num_workers_;
    f->pool = this;
    f->batch = &st;
    st.fibers.push_back(std::move(f));
  }
  return batch;
}

void FiberPool::launch(FiberBatch& batch, std::function<void(int)> body,
                       std::function<void()> on_complete) {
  FiberBatch::State& st = *batch.st_;
  PMPS_CHECK(st.pool == this);
  {
    std::lock_guard lock(st.mu);
    PMPS_CHECK_MSG(!st.launched || st.finished == st.n,
                   "FiberBatch launched while a launch is in flight");
    st.launched = true;
    st.finished = 0;
    st.body = std::move(body);
    st.on_complete = std::move(on_complete);
  }

  const auto n = static_cast<std::size_t>(st.n);
  for (std::size_t i = 0; i < n; ++i) {
    Fiber* f = st.fibers[i].get();
    f->finished = false;
    f->prepared = false;
    f->long_wait = false;
    f->state.store(kRunnable, std::memory_order_relaxed);
  }

  const auto w = static_cast<std::size_t>(num_workers_);
  for (std::size_t s = 0; s < w; ++s) {
    Shard& sh = *impl_->shards[s];
    const std::size_t mine = (n + w - 1 - s) / w;
    if (mine == 0) continue;
    {
      std::lock_guard lock(sh.mu);
      sh.live += mine;
      sh.q.reserve(sh.live);
      for (std::size_t i = s; i < n; i += w) sh.q.push(st.fibers[i].get());
    }
    sh.cv.notify_one();
  }
}

void FiberPool::run(int n, const std::function<void(int)>& body) {
  PMPS_CHECK_MSG(!in_fiber(), "FiberPool::run from inside a pool fiber");
  auto batch = create_batch(n);
  launch(*batch, body);
  batch->wait();
}

FiberBatch::FiberBatch() : st_(std::make_unique<State>()) {}

FiberBatch::~FiberBatch() = default;

void FiberBatch::wake(int index) {
  st_->pool->wake_fiber(st_->fibers[static_cast<std::size_t>(index)].get());
}

void FiberBatch::wait() {
  std::unique_lock lock(st_->mu);
  st_->cv.wait(lock,
               [this] { return !st_->launched || st_->finished == st_->n; });
}

bool FiberBatch::done() const {
  std::lock_guard lock(st_->mu);
  return !st_->launched || st_->finished == st_->n;
}

int FiberBatch::size() const { return st_->n; }

}  // namespace pmps::net

#else  // !PMPS_HAS_FIBERS

namespace pmps::net {
bool fibers_supported() { return false; }
}  // namespace pmps::net

#endif  // PMPS_HAS_FIBERS
