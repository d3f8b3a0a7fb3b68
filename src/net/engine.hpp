// The SPMD engine: owns p simulated PEs and runs a program on all of them.
//
// Algorithms are written once, SPMD style, against Comm (see comm.hpp) —
// exactly like an MPI rank program. Virtual time follows the single-ported
// α–β model of the paper's §2.1 (see machine.hpp); it is fully deterministic
// for a given seed.
//
// Execution backends (selectable, bit-for-bit identical results):
//   kFibers  — the default where supported: W ≈ hardware-thread workers run
//              all p PEs as cooperatively scheduled stackful fibers
//              (fiber.hpp). No per-run thread creation, no wakeup
//              broadcasts — this is what makes paper-scale PE counts
//              (p ≥ 4096, §7.3) simulable on one host.
//   kThreads — the seed backend: one OS thread per PE per run. Kept behind
//              the same interface for differential testing; select with
//              PMPS_ENGINE=threads (or explicitly in the constructor).
//
// A PE that must wait — a recv whose message has not arrived, a member of
// a rendezvous that is not the last to arrive — blocks through one pair,
// Engine::park and Engine::wake, on either backend: its fiber parks while a
// fiber run is in flight, otherwise its OS thread sleeps on the PE's
// semaphore.
//
// Determinism does not depend on the backend: message matching is exact on
// (comm id, tag, source PE) and every PE owns its RNG streams and virtual
// clock, so same seed ⇒ same virtual times, same statistics, same output
// under either scheduler.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "net/machine.hpp"
#include "net/mailbox.hpp"
#include "net/stats.hpp"

namespace pmps::net {

class Comm;
class FiberBatch;
class FiberPool;

/// How Engine::run executes the p simulated PEs.
enum class EngineBackend : int {
  kAuto = 0,     ///< PMPS_ENGINE env var, else fibers where supported
  kThreads = 1,  ///< legacy one-OS-thread-per-PE
  kFibers = 2,   ///< cooperative fibers on a fixed worker pool
};

/// One piece of a bulk sparse exchange (coll::sparse_exchange_into on a
/// clean network, docs/DESIGN.md §14): a view of the payload in the
/// sender's send plan plus its virtual arrival time. In a member's outgoing
/// list `rank` is the destination rank; in its incoming list, the source
/// rank.
struct BulkPiece {
  int rank = 0;
  double arrival = 0;
  std::span<const std::byte> payload;
};

/// Reusable scratch for the hot collectives, per-PE and shared by every
/// Comm of that PE, so a delivery's repeated sparse exchanges reuse warm
/// capacity instead of allocating fresh vectors per call. The dense
/// counts_* / seq_per_dest vectors (Θ(p) each) and Bruck working arrays
/// back the message path of sparse_exchange_into; the bulk_* lists (sized
/// by pieces, not p) back its bulk path — at p = 2^15 three Θ(p) vectors
/// per PE alone would cost ~25 GB host RAM. The ff_* fields are what a
/// member posts for a fast-forwarded collective's replay (docs/DESIGN.md
/// §16). The collectives never nest within one PE, so distinct fields are
/// never aliased by a live use.
struct CollScratch {
  std::vector<std::int64_t> counts_out, counts_in, seq_per_dest;
  std::vector<std::int32_t> bruck_tmp, bruck_block, bruck_in;
  std::vector<BulkPiece> bulk_out;  ///< own pieces, plan order
  std::vector<BulkPiece> bulk_in;   ///< pieces to this PE, receive order
  void* ff_out = nullptr;  ///< replay: this member's std::vector<T>, in/out
  double ff_arrival = 0;   ///< replay: arrival of this round's message
};

/// What a rendezvous on the fast-forward board stands for
/// (Engine::rendezvous): it picks the counter the rendezvous bumps, and
/// whether an abort waits until every member has arrived.
enum class RendezvousKind {
  kReplay,       ///< a replayed collective (collective_fast_forwards)
  kBulkScatter,  ///< a bulk sparse exchange's scatter (bulk_exchanges)
  kBulkClose,    ///< the bulk exchange's closing barrier, a replay whose
                 ///< abort is deferred until every member has arrived
};

/// All mutable per-PE state. Owned by the engine, accessed only by the
/// thread or fiber running that PE (mailbox deposits and wake_sem aside,
/// which are internally synchronised).
struct PeContext {
  PeContext(int pe, MsgNodePool& node_pool) : pe(pe), mailbox(node_pool) {}

  int pe = -1;
  double clock = 0;  ///< virtual time (seconds)
  Phase phase = Phase::kOther;
  bool free_mode = false;  ///< suppress all charging (precomputation steps)
  /// Straggler dilation from the machine's NetworkModel (1.0 when healthy):
  /// multiplies local-computation charges (Comm::charge) only — waiting
  /// (advance_to) and communication costs are not compute-bound.
  double dilation = 1.0;
  /// Per-run ordinal of the next network send: the replay-stable identity
  /// the NetworkModel hashes its fault decisions from.
  std::uint64_t send_seq = 0;
  Mailbox mailbox;
  /// Where Engine::park puts this PE's OS thread to sleep when no fiber run
  /// is in flight (thread backend, p = 1 inline runs). Holds at most one
  /// token: every wake consumes one registration (Engine::park).
  std::binary_semaphore wake_sem{0};
  CommStats stats;
  CollScratch coll_scratch;
  Xoshiro256 rng;        ///< algorithmic randomness (shared seed semantics)
  Xoshiro256 noise_rng;  ///< communication jitter stream

  /// Advance the virtual clock, attributing the time to the current phase.
  void advance(double dt) {
    if (free_mode) return;
    clock += dt;
    stats.phase_time[static_cast<int>(phase)] += dt;
  }
  /// Jump the clock forward to at least `t` (waiting for a message).
  void advance_to(double t) {
    if (t > clock) advance(t - clock);
  }
};

/// RAII guard that makes all communication/computation free (not charged to
/// virtual time and not counted in statistics) — used for steps the paper
/// treats as precomputation, e.g. communicator construction (§7.1), and for
/// out-of-band bookkeeping inside sparse exchanges.
class FreeModeGuard {
 public:
  explicit FreeModeGuard(PeContext& ctx) : ctx_(ctx), prev_(ctx.free_mode) {
    ctx_.free_mode = true;
  }
  ~FreeModeGuard() { ctx_.free_mode = prev_; }
  FreeModeGuard(const FreeModeGuard&) = delete;
  FreeModeGuard& operator=(const FreeModeGuard&) = delete;

 private:
  PeContext& ctx_;
  bool prev_;
};

/// One mailbox shard: a node pool + payload buffer pool pair serving the
/// PEs with pe % num_shards == shard index. Splitting the slab/pool state
/// (each behind its own mutex) removes the single global pool lock from
/// the warm deposit→retrieve path.
struct MailboxShard {
  MsgNodePool node_pool;
  BufferPool buffer_pool;
};

/// The engine's host-side execution resources — the fiber worker pool and
/// the mailbox node/payload pool shards. A standalone Engine owns a private
/// substrate (exactly the pre-service behavior); a svc::SortService creates
/// one substrate and shares it across every job's engine, so the worker
/// threads, pooled stacks, and recycled buffers stay warm across jobs.
/// Everything in here is content-agnostic bookkeeping: sharing it between
/// concurrent jobs cannot leak any simulated state between them.
class EngineSubstrate {
 public:
  explicit EngineSubstrate(int num_shards);
  ~EngineSubstrate();

  EngineSubstrate(const EngineSubstrate&) = delete;
  EngineSubstrate& operator=(const EngineSubstrate&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  MailboxShard& shard(std::size_t i) { return *shards_[i]; }

  /// The shared fiber pool, created on first use with `workers` workers
  /// (later calls return the existing pool regardless of the argument).
  /// Thread-safe; returns nullptr when fibers are unsupported.
  FiberPool* ensure_pool(int workers);
  /// The pool if one was created, else nullptr.
  FiberPool* pool() const { return pool_.get(); }

 private:
  std::vector<std::unique_ptr<MailboxShard>> shards_;
  std::mutex pool_mu_;
  std::unique_ptr<FiberPool> pool_;
};

class Engine {
 public:
  Engine(int num_pes, MachineParams machine, std::uint64_t seed = 1,
         EngineBackend backend = EngineBackend::kAuto);

  /// Service-path engine: runs on a shared `substrate` (warm fiber workers
  /// and mailbox pools) instead of creating private ones. `job_id` gives
  /// the engine its own Comm namespace — it is folded into the world
  /// communicator id and thus into every mailbox key and rendezvous cell id
  /// derived from it (job_id 0 reproduces the standalone namespace).
  /// Virtual time, RNG streams and statistics depend only on (machine,
  /// seed, program), so a job's results are bit-identical to a standalone
  /// one-shot run of the same configuration.
  Engine(int num_pes, MachineParams machine, std::uint64_t seed,
         EngineBackend backend, std::shared_ptr<EngineSubstrate> substrate,
         std::uint64_t job_id);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `program` on all PEs and blocks until every PE finished. May be
  /// called repeatedly; clocks and stats reset between runs, and the fiber
  /// pool (workers, stacks) is reused across runs. It is start_run +
  /// finish_run, rethrowing the failure as a NetworkError.
  void run(const std::function<void(Comm&)>& program);

  /// Launches the run. On the fiber backend (p > 1) it returns without
  /// waiting and `on_complete`, if set, fires exactly once on the worker
  /// thread that finishes the last PE; a p = 1 or thread-backend run
  /// completes before start_run returns and fires `on_complete` on the
  /// caller. Either way finish_run() must then be called (from any
  /// thread) to collect the run's outcome; the engine must not be
  /// destroyed or re-run before finish_run returns.
  void start_run(std::function<void(Comm&)> program,
                 std::function<void()> on_complete);

  /// Completes a start_run: blocks until the last PE finished (immediate
  /// when called from on_complete or later), clears the run state, and
  /// returns the abort reason if the run failed — the non-throwing
  /// counterpart of run()'s NetworkError.
  std::optional<std::string> finish_run();

  int num_pes() const { return num_pes_; }
  const MachineParams& machine() const { return machine_; }
  std::uint64_t seed() const { return seed_; }
  /// The backend actually in use (kAuto resolved at construction).
  EngineBackend backend() const { return backend_; }
  /// Correlated congestion factor (≥ 1) for island/global links, drawn once
  /// per run when machine().congestion_noise_frac > 0.
  double run_congestion() const { return run_congestion_; }

  PeContext& pe_context(int pe) { return *pes_[pe]; }
  const PeContext& pe_context(int pe) const { return *pes_[pe]; }

  /// Message delivery/pickup for Comm: a deposit that matches the
  /// destination's registered wait wakes it, a retrieve that misses parks
  /// (park/wake).
  void deposit_message(int dest_pe, Message&& m);
  Message retrieve_message(PeContext& ctx, const MsgKey& key);

  /// Recycled payload buffers for messages destined to PE `dest_pe`:
  /// senders acquire from the destination's shard and the receiver releases
  /// to its own — the same shard, so buffers never migrate. Sharded per
  /// worker (one shard on the thread backend) so the warm acquire/release
  /// path does not serialise every PE on one global pool mutex.
  BufferPool& buffer_pool(int dest_pe) {
    return substrate_
        ->shard(static_cast<std::size_t>(dest_pe) %
                static_cast<std::size_t>(substrate_->num_shards()))
        .buffer_pool;
  }

  /// Recycled mailbox nodes for PE `dest_pe`'s mailbox (same sharding as
  /// buffer_pool; see MsgNodePool in mailbox.hpp).
  MsgNodePool& node_pool(int dest_pe) {
    return substrate_
        ->shard(static_cast<std::size_t>(dest_pe) %
                static_cast<std::size_t>(substrate_->num_shards()))
        .node_pool;
  }

  /// Number of mailbox slab/pool shards (1 on the thread backend).
  int mailbox_shards() const { return substrate_->num_shards(); }

  /// Communicator id of this engine's world Comm: 1 for job_id 0 (the
  /// standalone namespace every golden was recorded against), else a mixed
  /// odd value unique per job. Sub-communicator ids deterministically chain
  /// off the parent id, so the whole id space — and with it every mailbox
  /// key and rendezvous cell — is disjoint between concurrent jobs. Comm
  /// ids never enter the cost model, so virtual times are unaffected.
  std::uint64_t world_comm_id() const;

  /// Shared member list of the world communicator — every world Comm
  /// aliases this one vector instead of materialising its own Θ(p) copy
  /// per PE (4 GB at p = 2^15).
  const std::shared_ptr<const std::vector<int>>& world_members() const {
    return world_members_;
  }

  /// True when the collectives may fast-forward (replays and the bulk
  /// sparse exchange): always on a clean network. A NetworkModel (fault
  /// injection must see real messages) restores the message-by-message
  /// execution; the base NetworkModel, whose hooks are neutral, does so
  /// bit-identically, which is how tests run the message path.
  bool coll_ff_enabled() const { return machine_.model == nullptr; }

  /// The send rule: charges `ctx` for sending `bytes` over `lvl` to global
  /// PE `dest_pe` and returns the message's virtual arrival time there. A
  /// free-mode PE pays nothing and a send to itself pays a copy. Any other
  /// send pays α + βb, stretched by the sender's noise draw and, off-node,
  /// by the run's congestion factor, and is counted; on a clean network
  /// it arrives when the sender finishes, and under a NetworkModel it goes
  /// through the model's protocol (which may abort the run and throw
  /// NetworkError). Messages, replays and the bulk sparse exchange all
  /// charge through here.
  double charge_send(PeContext& ctx, LinkLevel lvl, int dest_pe,
                     std::size_t bytes);

  /// The receive rule: charges `ctx` for receiving `bytes` over `lvl` that
  /// arrived at virtual time `arrival`. Self links and free mode cost
  /// nothing. A receiver that is early waits for the arrival; one whose
  /// clock has passed it pays the βb drain. Counted either way.
  void charge_recv(PeContext& ctx, LinkLevel lvl, std::size_t bytes,
                   double arrival) const;

  /// The fast-forward board's one primitive (requires coll_ff_enabled();
  /// docs/DESIGN.md §11, §14, §16). The `size` members of communicator
  /// `comm_id` arrive on its cell; every one but the last parks, and the
  /// last runs `on_last` while all others are parked — so it may read and
  /// write their contexts and CollScratch — then releases them together.
  /// An abort before the release throws RunAborted at once, except under
  /// kBulkClose, where it releases no member before every member has
  /// arrived and then skips `on_last`. A member released before an abort
  /// returns normally. Returns whether the run was aborted when this
  /// member left, which only kBulkClose callers need.
  template <typename F>
  bool rendezvous(PeContext& ctx, std::uint64_t comm_id, int size,
                  RendezvousKind kind, F&& on_last) {
    using Fn = std::remove_reference_t<F>;
    return rendezvous(
        ctx, comm_id, size, kind,
        [](void* fn) { (*static_cast<Fn*>(fn))(); },
        const_cast<void*>(static_cast<const void*>(&on_last)));
  }

  /// Aborts the current run with a per-run error: records `why`, poisons
  /// every mailbox so blocked PEs unwind (RunAborted) instead of waiting
  /// forever for a dead sender, and makes run() rethrow the reason as a
  /// NetworkError after every PE has finished. This overload is for
  /// host-initiated aborts (a service cancelling a job); the first caller's
  /// reason wins over any simulated failure.
  void abort_run(const std::string& why);

  /// Simulated-failure abort, called by charge_send when a lossy
  /// NetworkModel exhausts its retry budget; safe from any PE. Concurrent
  /// failing PEs race only in host time, so the latch keeps the reason
  /// with the smallest (virtual failure time, pe) — the reported error
  /// does not depend on worker count or backend when the racing failures
  /// are all observed before the abort propagates (e.g. first-send
  /// exhaustion).
  void abort_run(const std::string& why, double at_time, int pe);

  /// Aggregated results of the last run().
  RunReport report() const;

 private:
  /// One rendezvous cell of the fast-forward board, keyed by communicator
  /// id (comm ids are deterministic, so cells persist across runs). SPMD
  /// lockstep guarantees the members never mix two collectives within one
  /// generation. Guarded by rv_mu_.
  struct RendezvousCell {
    int size = 0;              ///< communicator size (fixed at creation)
    int arrived = 0;           ///< members arrived this generation
    std::uint64_t gen = 0;     ///< bumped on release; parked members wait on it
    bool aborted = false;      ///< run aborted: see rv_park
    std::vector<int> parked_pes;  ///< global PE ids parked, one entry each
  };

  /// Blocks the calling PE, which has just registered a wait under `lock`
  /// (its mailbox key, or its entry in a rendezvous cell's parked_pes),
  /// until a wake(ctx.pe) consumes that registration; returns with `lock`
  /// held again. While a fiber run is in flight the PE's fiber parks —
  /// published under `lock`, so no wake can find it still running — and
  /// `long_wait` lets its worker reclaim the cold stack span; otherwise the
  /// PE's OS thread sleeps on ctx.wake_sem. Every wake consumes exactly one
  /// registration, and a PE registers again only after it woke, so the
  /// semaphore never holds two tokens.
  void park(PeContext& ctx, std::unique_lock<std::mutex>& lock,
            bool long_wait);
  /// Resumes PE `pe`, whose registration the caller has just consumed;
  /// the backend is chosen from the same in-flight batch as park's.
  void wake(int pe);

  /// The type-erased core of rendezvous().
  bool rendezvous(PeContext& ctx, std::uint64_t comm_id, int size,
                  RendezvousKind kind, void (*on_last)(void*), void* fn);

  /// Finds or creates the cell for `comm_id` (rv_mu_ held). Creation is
  /// cold — once per communicator; warm rendezvous only look up.
  RendezvousCell& rv_cell_locked(std::uint64_t comm_id, int size);

  /// Parks the calling member until the cell's generation advances
  /// (rv_mu_ held via `lock`). Returns once released, even if the run was
  /// aborted meanwhile. An abort before the release throws RunAborted at
  /// once, or, with `defer_abort`, keeps the member parked until the
  /// release.
  void rv_park(std::unique_lock<std::mutex>& lock, RendezvousCell& cell,
               PeContext& ctx, bool defer_abort);

  /// charge_send under an installed NetworkModel (jitter-only, or the full
  /// ack/retransmit protocol when the model is lossy): advances the
  /// sender's clock by the stretched `cost` and returns the arrival time.
  /// Throws NetworkError (after abort_run) on retry exhaustion.
  double send_with_model(PeContext& ctx, const NetworkModel& model,
                         LinkLevel lvl, int dest_pe, std::size_t bytes,
                         double cost);

  /// Releases a completed generation: bumps gen, wakes every parked member
  /// (rv_mu_ held).
  void rv_release_locked(RendezvousCell& cell);

  /// Per-run reset of clocks/stats/abort state at the start of every
  /// start_run(); draws the run's congestion factor.
  void prepare_run();
  /// The per-PE body of a run: builds the world Comm and executes the
  /// program, swallowing the RunAborted/NetworkError unwinds of an aborted
  /// run so the backend's fiber/thread always finishes normally.
  void run_pe(int pe, const std::function<void(Comm&)>& program);
  /// start_run's synchronous runs: run_program_ on the one PE inline
  /// (p = 1) or on one OS thread per PE (thread backend), then join.
  void run_sync();

  int num_pes_;
  MachineParams machine_;
  std::uint64_t seed_;
  EngineBackend backend_;
  std::uint64_t job_id_ = 0;
  double run_congestion_ = 1.0;
  std::uint64_t run_counter_ = 0;
  /// Declared before pes_ so mailboxes (which return nodes on teardown)
  /// are destroyed while their shard's pool is still alive. Private for a
  /// standalone engine; shared across jobs under a SortService.
  std::shared_ptr<EngineSubstrate> substrate_;
  std::shared_ptr<const std::vector<int>> world_members_;
  std::vector<std::unique_ptr<PeContext>> pes_;
  FiberPool* pool_ = nullptr;  ///< substrate's pool (fiber backend, p > 1)
  std::shared_ptr<FiberBatch> batch_;  ///< cached across runs (fiber backend)
  /// The in-flight batch while a fiber run is executing. Null outside runs
  /// and on the thread/inline runs; park and wake both choose the backend
  /// from it, so they can never disagree.
  std::atomic<FiberBatch*> cur_batch_{nullptr};
  std::function<void(Comm&)> run_program_;  ///< keeps start_run's program alive
  // --- fast-forward board ---------------------------------------------------
  std::mutex rv_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RendezvousCell>> rv_cells_;
  std::atomic<std::int64_t> fast_forwards_{0};
  std::atomic<std::int64_t> bulk_exchanges_{0};
  // --- abort state (lossy NetworkModel runs only) --------------------------
  std::atomic<bool> failed_{false};
  std::mutex fail_mu_;
  std::string fail_msg_;  ///< winning abort_run reason (under fail_mu_)
  double fail_time_ = 0;  ///< virtual time of the winning failure
  int fail_pe_ = -1;      ///< PE of the winning failure (-1: host abort)
  bool drain_needed_ = false;   ///< last run failed; drain mailboxes first
};

/// Convenience: build an engine, run `program`, return the report.
RunReport run_spmd(int num_pes, const MachineParams& machine,
                   std::uint64_t seed,
                   const std::function<void(Comm&)>& program);

/// The backend `requested` resolves to on this host (kAuto → PMPS_ENGINE
/// env var, else fibers where supported) — what Engine::backend() would
/// report after construction. Like every PMPS_* knob, a value the variable
/// does not accept throws std::invalid_argument (net/knobs.hpp).
EngineBackend resolve_engine_backend(
    EngineBackend requested = EngineBackend::kAuto);

/// Fiber worker-thread count the engine would choose for `num_pes` PEs
/// (PMPS_FIBER_WORKERS or the hardware concurrency, clamped to num_pes).
/// A shared substrate sized for arbitrary jobs passes INT_MAX.
int engine_fiber_workers(int num_pes);

}  // namespace pmps::net
