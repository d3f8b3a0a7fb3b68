#include "net/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common/check.hpp"
#include "net/comm.hpp"
#include "net/fiber.hpp"
#include "net/knobs.hpp"
#include "net/network_model.hpp"

namespace pmps::net {

namespace {

constexpr long kIntMax = std::numeric_limits<int>::max();

/// Stack per fiber: 256 KiB of lazily committed stack is generous for the
/// SPMD programs here (heap-allocated data, shallow recursion).
constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// The thread backend starts one OS thread per PE per run; beyond a few
/// thousand that exhausts process limits (thread stacks, pid slots) long
/// before the run finishes, so larger runs are refused before any starts.
constexpr int kThreadsMaxP = 4096;

EngineBackend resolve_backend(EngineBackend requested) {
  if (requested == EngineBackend::kAuto) {
    if (const auto env = read_knob("PMPS_ENGINE", {"threads", "fibers"}))
      requested = *env == 0 ? EngineBackend::kThreads : EngineBackend::kFibers;
  }
  if (requested == EngineBackend::kThreads) return EngineBackend::kThreads;
  // kAuto default and explicit kFibers: fibers where the platform has them.
  return fibers_supported() ? EngineBackend::kFibers : EngineBackend::kThreads;
}

int fiber_workers(int num_pes) {
  const long w = read_knob("PMPS_FIBER_WORKERS", 1, kIntMax)
                     .value_or(std::thread::hardware_concurrency());
  return std::clamp(static_cast<int>(w), 1, num_pes);
}

/// Approximately standard-normal deviate from three uniforms (Irwin–Hall);
/// plenty for modelling network jitter and the run's congestion.
double approx_gauss(Xoshiro256& rng) {
  return (rng.uniform() + rng.uniform() + rng.uniform() - 1.5) * 2.0;
}

/// SplitMix64 finaliser: spreads job ids across the 64-bit comm-id space so
/// concurrent jobs' communicator-id chains never collide.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

EngineSubstrate::EngineSubstrate(int num_shards) {
  PMPS_CHECK(num_shards >= 1);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s)
    shards_.push_back(std::make_unique<MailboxShard>());
}

EngineSubstrate::~EngineSubstrate() = default;

FiberPool* EngineSubstrate::ensure_pool(int workers) {
  if (!fibers_supported()) return nullptr;
  std::lock_guard lock(pool_mu_);
  if (!pool_) pool_ = std::make_unique<FiberPool>(workers, kFiberStackBytes);
  return pool_.get();
}

Engine::Engine(int num_pes, MachineParams machine, std::uint64_t seed,
               EngineBackend backend)
    : Engine(num_pes, machine, seed, backend, nullptr, /*job_id=*/0) {}

Engine::Engine(int num_pes, MachineParams machine, std::uint64_t seed,
               EngineBackend backend,
               std::shared_ptr<EngineSubstrate> substrate, std::uint64_t job_id)
    : num_pes_(num_pes),
      machine_(machine),
      seed_(seed),
      backend_(resolve_backend(backend)),
      job_id_(job_id),
      substrate_(std::move(substrate)) {
  PMPS_CHECK(num_pes >= 1);
  if (!substrate_) {
    // Standalone engine: private substrate with one mailbox shard per fiber
    // worker (keyed dest PE % shards); the thread backend keeps its
    // single-table semantics with exactly one shard.
    const int num_shards =
        backend_ == EngineBackend::kFibers ? fiber_workers(num_pes) : 1;
    substrate_ = std::make_shared<EngineSubstrate>(num_shards);
  } else {
    // Service engine: the shared pool already exists (the service creates
    // it eagerly before admitting jobs).
    pool_ = substrate_->pool();
  }
  {
    auto members = std::make_shared<std::vector<int>>(num_pes);
    for (int i = 0; i < num_pes; ++i) (*members)[i] = i;
    world_members_ = std::move(members);
  }
  pes_.reserve(static_cast<std::size_t>(num_pes));
  for (int i = 0; i < num_pes; ++i) {
    auto ctx = std::make_unique<PeContext>(i, node_pool(i));
    ctx->rng = Xoshiro256(seed, static_cast<std::uint64_t>(i));
    ctx->noise_rng =
        Xoshiro256(seed ^ 0x6e6f697365ULL, static_cast<std::uint64_t>(i));
    pes_.push_back(std::move(ctx));
  }
}

Engine::~Engine() = default;

std::uint64_t Engine::world_comm_id() const {
  return job_id_ == 0 ? 1 : (mix64(job_id_) | 1ULL);
}

void Engine::prepare_run() {
  // Correlated congestion: one factor per run (interfering traffic on the
  // shared island interconnect, cf. the fluctuation discussion in §7.2).
  run_congestion_ = 1.0;
  if (machine_.congestion_noise_frac > 0) {
    Xoshiro256 rng(seed_ ^ 0xc049e57104ULL, run_counter_);
    run_congestion_ =
        1.0 + machine_.congestion_noise_frac * std::abs(approx_gauss(rng));
  }
  ++run_counter_;

  failed_.store(false, std::memory_order_relaxed);
  fast_forwards_.store(0, std::memory_order_relaxed);
  bulk_exchanges_.store(0, std::memory_order_relaxed);
  if (drain_needed_) {
    // The aborted run may have left rendezvous cells mid-generation
    // (members that threw never arrived); reset them alongside the
    // mailboxes. Cells of a clean run end each generation at arrived == 0.
    std::lock_guard lock(rv_mu_);
    for (auto& [id, cell] : rv_cells_) {
      std::lock_guard cell_lock(cell->mu);
      cell->arrived = 0;
      cell->aborted = false;
      cell->parked_pes.clear();
    }
  }
  for (auto& ctx : pes_) {
    // A failed (aborted) run legitimately leaves undelivered traffic and
    // poisoned mailboxes behind; flush both before reuse. After a clean
    // run an undrained mailbox is still a program bug.
    if (drain_needed_) ctx->mailbox.drain();
    PMPS_CHECK_MSG(ctx->mailbox.empty(),
                   "mailbox not drained by previous run");
    ctx->clock = 0;
    ctx->phase = Phase::kOther;
    ctx->stats = CommStats{};
    ctx->send_seq = 0;
    ctx->dilation =
        machine_.model ? machine_.model->compute_dilation(ctx->pe) : 1.0;
    // Reset the RNG streams so repeated runs are bit-identical.
    ctx->rng = Xoshiro256(seed_, static_cast<std::uint64_t>(ctx->pe));
    ctx->noise_rng =
        Xoshiro256(seed_ ^ 0x6e6f697365ULL, static_cast<std::uint64_t>(ctx->pe));
  }
  drain_needed_ = false;
}

// On an aborted run the origin PE unwinds on the NetworkError it threw
// (abort_run already recorded it) and every other PE on the RunAborted its
// poisoned mailbox raises; both stop here so the backend's fiber/thread
// finishes normally and the failure is reported once, after the join. Any
// other exception still propagates (and, on the fiber backend, terminates —
// see fiber.hpp).
void Engine::run_pe(int pe, const std::function<void(Comm&)>& program) {
  Comm comm(this, pe);
  try {
    program(comm);
  } catch (const RunAborted&) {
  } catch (const NetworkError&) {
  }
}

void Engine::run_sync() {
  if (num_pes_ == 1) {
    // Inline run: a single PE only ever sends to itself (kSelf links carry
    // no faults), so no abort can originate from inside; run_pe still
    // wraps the program so an external (service-side) abort_run unwinds
    // cleanly instead of escaping.
    run_pe(0, run_program_);
    return;
  }
  if (num_pes_ > kThreadsMaxP) {
    throw std::runtime_error(
        "PMPS_ENGINE=threads refuses p=" + std::to_string(num_pes_) +
        " (> cap " + std::to_string(kThreadsMaxP) +
        "): one OS thread per PE would exhaust the process. Use the fiber "
        "backend for large p.");
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_pes_));
  for (int i = 0; i < num_pes_; ++i)
    threads.emplace_back([this, i] { run_pe(i, run_program_); });
  for (auto& t : threads) t.join();
}

void Engine::run(const std::function<void(Comm&)>& program) {
  start_run(program, {});
  if (auto err = finish_run()) throw NetworkError(*err);
}

void Engine::start_run(std::function<void(Comm&)> program,
                       std::function<void()> on_complete) {
  run_program_ = std::move(program);
  prepare_run();
  if (backend_ == EngineBackend::kFibers && num_pes_ > 1) {
    if (!pool_) pool_ = substrate_->ensure_pool(fiber_workers(num_pes_));
    if (!batch_) batch_ = pool_->create_batch(num_pes_);
    cur_batch_.store(batch_.get(), std::memory_order_release);
    pool_->launch(*batch_, [this](int pe) { run_pe(pe, run_program_); },
                  std::move(on_complete));
    return;
  }
  // p = 1 inline runs and the thread backend: the run completes before
  // start_run returns and on_complete fires on the caller.
  run_sync();
  if (on_complete) on_complete();
}

std::optional<std::string> Engine::finish_run() {
  if (FiberBatch* b = cur_batch_.load(std::memory_order_acquire)) {
    b->wait();
    cur_batch_.store(nullptr, std::memory_order_release);
  }
  run_program_ = nullptr;
  if (!failed_.load(std::memory_order_acquire)) return std::nullopt;
  drain_needed_ = true;
  std::lock_guard lock(fail_mu_);
  return fail_msg_;
}

void Engine::abort_run(const std::string& why) {
  // Host-initiated: ranks below every simulated failure (pe -1 breaks the
  // tie at any time), but never displaces an earlier host abort.
  abort_run(why, -1.0, -1);
}

void Engine::abort_run(const std::string& why, double at_time, int pe) {
  {
    std::lock_guard lock(fail_mu_);
    const bool first = !failed_.exchange(true, std::memory_order_acq_rel);
    if (first || std::tie(at_time, pe) < std::tie(fail_time_, fail_pe_)) {
      fail_msg_ = why;
      fail_time_ = at_time;
      fail_pe_ = pe;
    }
  }
  // Poison the rendezvous board first: members parked in a rendezvous
  // have no mailbox registration, so the mailbox poison below would never
  // reach them. Each cell is poisoned under its own lock, so a replay in
  // progress finishes before its members can be woken. Wakes target this
  // engine's PEs only, so a service-side abort never touches sibling jobs.
  {
    std::lock_guard lock(rv_mu_);
    for (auto& [id, cell] : rv_cells_) {
      std::lock_guard cell_lock(cell->mu);
      cell->aborted = true;
      for (const int pe : cell->parked_pes) wake(pe);
      cell->parked_pes.clear();
    }
  }
  // Poison every mailbox (the origin PE's too — it unwinds on its own
  // NetworkError and must not block again). Same wake discipline as
  // deposit_message, so a registered waiter is always resumed.
  for (auto& ctx : pes_) {
    const int pe = ctx->pe;
    ctx->mailbox.poison([this, pe] { wake(pe); });
  }
}

void Engine::park(PeContext& ctx, std::unique_lock<std::mutex>& lock,
                  bool long_wait) {
  if (cur_batch_.load(std::memory_order_acquire) != nullptr) {
    FiberPool::prepare_block(long_wait);
    lock.unlock();
    FiberPool::block_current();
  } else {
    lock.unlock();
    ctx.wake_sem.acquire();
  }
  lock.lock();
}

void Engine::wake(int pe) {
  if (FiberBatch* b = cur_batch_.load(std::memory_order_acquire)) {
    b->wake(pe);
  } else {
    pes_[static_cast<std::size_t>(pe)]->wake_sem.release();
  }
}

void Engine::deposit_message(int dest_pe, Message&& m) {
  pes_[static_cast<std::size_t>(dest_pe)]->mailbox.deposit(
      std::move(m), [this, dest_pe] { wake(dest_pe); });
}

Message Engine::retrieve_message(PeContext& ctx, const MsgKey& key) {
  return ctx.mailbox.retrieve(
      key, [this, &ctx](std::unique_lock<std::mutex>& lock) {
        park(ctx, lock, /*long_wait=*/false);
      });
}

Engine::RendezvousCell& Engine::rv_cell(std::uint64_t comm_id, int size) {
  std::lock_guard lock(rv_mu_);
  auto it = rv_cells_.find(comm_id);
  if (it == rv_cells_.end()) {
    auto cell = std::make_unique<RendezvousCell>();
    cell->size = size;
    // abort_run sets failed_ before it sweeps the board under rv_mu_, so a
    // cell its sweep did not see is created with failed_ already set.
    cell->aborted = failed_.load(std::memory_order_acquire);
    cell->parked_pes.reserve(static_cast<std::size_t>(size));
    it = rv_cells_.emplace(comm_id, std::move(cell)).first;
  }
  PMPS_ASSERT(it->second->size == size);
  return *it->second;
}

void Engine::rv_park(std::unique_lock<std::mutex>& lock, RendezvousCell& cell,
                     PeContext& ctx, bool defer_abort) {
  const std::uint64_t gen0 = cell.gen;
  // A rendezvous park is the long-lived collective wait: the whole phase
  // blocks here, so a fiber's worker reclaims its cold stack span. The
  // registration (parked_pes) happens under the cell's lock, exactly like a
  // mailbox wait registration under the mailbox lock, so a releasing or
  // aborting peer can never miss us. Each wake consumes the registration,
  // so a member woken by an abort it defers takes the cell's lock again and
  // registers again before parking again. Released is checked before
  // aborted: a member released just before an abort must still return,
  // because the bulk exchange's readers rely on every released member
  // reaching its closing barrier.
  do {
    cell.parked_pes.push_back(ctx.pe);
    park(ctx, lock, /*long_wait=*/true);
  } while (cell.gen == gen0 && !(cell.aborted && !defer_abort));
  if (cell.gen == gen0) throw RunAborted{};
}

void Engine::rv_release_locked(RendezvousCell& cell) {
  cell.arrived = 0;
  ++cell.gen;
  for (const int pe : cell.parked_pes) wake(pe);
  cell.parked_pes.clear();
}

bool Engine::rendezvous(PeContext& ctx, std::uint64_t comm_id, int size,
                        RendezvousKind kind, void (*on_last)(void*),
                        void* fn) {
  PMPS_ASSERT(coll_ff_enabled());
  const bool defer_abort = kind == RendezvousKind::kBulkClose;
  RendezvousCell& cell = rv_cell(comm_id, size);
  std::unique_lock lock(cell.mu);
  if (cell.aborted && !defer_abort) throw RunAborted{};
  if (++cell.arrived < size) {
    rv_park(lock, cell, ctx, defer_abort);
    return cell.aborted;
  }
  // Last arriver: every other member is parked (or about to park — each
  // registered under the cell's lock before its arrival counted), so their
  // contexts and scratch are ours. Only a deferring rendezvous gets here on
  // an aborted run, and nobody uses its results then.
  if (!cell.aborted) on_last(fn);
  (kind == RendezvousKind::kBulkScatter ? bulk_exchanges_ : fast_forwards_)
      .fetch_add(1, std::memory_order_relaxed);
  rv_release_locked(cell);
  return cell.aborted;
}

double Engine::charge_send(PeContext& ctx, LinkLevel lvl, int dest_pe,
                           std::size_t bytes) {
  const MachineParams& m = machine_;
  if (ctx.free_mode || lvl == LinkLevel::kSelf) {
    // Local move: charged as a copy, not a network message.
    if (!ctx.free_mode) ctx.advance(m.copy_cost(bytes));
    return ctx.clock;
  }
  double cost = m.message_cost(lvl, bytes);
  if (m.comm_noise_frac > 0) {
    const double f = 1.0 + m.comm_noise_frac * approx_gauss(ctx.noise_rng);
    cost *= std::max(0.05, f);
  }
  if (lvl != LinkLevel::kNode) cost *= run_congestion_;
  double arrival;
  if (m.model == nullptr) {
    // Clean network: arrival is the sender-finish time (single-ported
    // model). This is the default path, untouched by fault injection.
    ctx.advance(cost);
    arrival = ctx.clock;
  } else {
    arrival = send_with_model(ctx, *m.model, lvl, dest_pe, bytes, cost);
  }
  ctx.stats.messages_sent += 1;
  ctx.stats.phase_messages_sent[static_cast<int>(ctx.phase)] += 1;
  ctx.stats.bytes_sent += static_cast<std::int64_t>(bytes);
  return arrival;
}

double Engine::send_with_model(PeContext& ctx, const NetworkModel& model,
                               LinkLevel lvl, int dest_pe, std::size_t bytes,
                               double cost) {
  MsgAttempt a;
  a.src_pe = ctx.pe;
  a.dst_pe = dest_pe;
  a.level = lvl;
  a.bytes = bytes;
  a.seq = ctx.send_seq++;

  if (!model.lossy()) {
    // Jitter-only model: one stretched transmission, no protocol.
    ctx.advance(cost * model.latency_factor(a));
    return ctx.clock + model.extra_delay(a);
  }

  const RetransmitParams rp = model.retransmit();
  const double ack_cost = machine_.message_cost(lvl, rp.ack_bytes);
  const double start = ctx.clock;
  const ReliableOutcome out =
      simulate_reliable_send(model, rp, a, cost, ack_cost);

  if (!out.delivered) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "reliable send PE %d -> PE %d (seq %llu): no ack after %d "
                  "attempts, retry budget exhausted",
                  ctx.pe, dest_pe, static_cast<unsigned long long>(a.seq),
                  out.attempts);
    abort_run(why, start, ctx.pe);
    throw NetworkError(why);
  }

  ctx.advance(out.finish_dt);
  ctx.stats.faults.retransmits += out.retransmits;
  ctx.stats.faults.data_drops += out.data_drops;
  ctx.stats.faults.ack_drops += out.ack_drops;
  ctx.stats.faults.dup_data += out.dup_data;
  ctx.stats.faults.dup_acks += out.dup_acks;
  // First-try success means arrival_dt == finish_dt, and the arrival must
  // equal the sender's clock *bit for bit* (start + dt would re-round);
  // only reconstruct an absolute arrival when the protocol decoupled them.
  return out.arrival_dt == out.finish_dt ? ctx.clock : start + out.arrival_dt;
}

void Engine::charge_recv(PeContext& ctx, LinkLevel lvl, std::size_t bytes,
                         double arrival) const {
  if (lvl == LinkLevel::kSelf || ctx.free_mode) return;
  if (ctx.clock < arrival) {
    // We were waiting: payload is available the moment the sender finished.
    ctx.advance_to(arrival);
  } else {
    // We were busy past the arrival: charge the drain (receive occupancy).
    ctx.advance(machine_.beta[static_cast<int>(lvl)] *
                static_cast<double>(bytes));
  }
  ctx.stats.messages_received += 1;
  ctx.stats.bytes_received += static_cast<std::int64_t>(bytes);
}

RunReport Engine::report() const {
  RunReport r;
  for (const auto& ctx : pes_) {
    r.wall_time = std::max(r.wall_time, ctx->clock);
    for (int ph = 0; ph < kNumPhases; ++ph) {
      r.phase_max[ph] = std::max(r.phase_max[ph], ctx->stats.phase_time[ph]);
      r.phase_max_messages_sent[ph] = std::max(
          r.phase_max_messages_sent[ph], ctx->stats.phase_messages_sent[ph]);
    }
    r.max_messages_received =
        std::max(r.max_messages_received, ctx->stats.messages_received);
    r.max_messages_sent =
        std::max(r.max_messages_sent, ctx->stats.messages_sent);
    r.total_bytes_sent += ctx->stats.bytes_sent;
    r.faults += ctx->stats.faults;
  }
  // Host-resource fields below (mailbox pools, fiber stacks) snapshot the
  // *substrate*, which stays warm by design: on a standalone engine they
  // are engine-lifetime high-waters; under a SortService they are shared
  // across every job on the substrate. All simulated per-job metrics above
  // (clocks, phase times, message/byte counters, faults) reset per run.
  r.engine.mailbox_shards = substrate_->num_shards();
  for (int s = 0; s < substrate_->num_shards(); ++s) {
    const std::int64_t hw =
        substrate_->shard(static_cast<std::size_t>(s)).node_pool.high_water();
    r.engine.mailbox_node_high_water =
        std::max(r.engine.mailbox_node_high_water, hw);
    r.engine.mailbox_nodes_total_high_water += hw;
  }
  if (pool_) {
    const FiberStackStats ss = pool_->stack_stats();
    r.engine.peak_stack_bytes = ss.peak_stack_bytes;
    r.engine.current_stack_bytes = ss.current_stack_bytes;
    r.engine.stack_bytes_reserved = ss.stack_bytes_reserved;
    r.engine.stacks = ss.stacks;
    r.engine.stack_acquires = ss.stack_acquires;
    r.engine.stack_reclaims = ss.reclaims;
    r.engine.stack_reclaimed_bytes = ss.reclaimed_bytes;
  }
  r.engine.collective_fast_forwards =
      fast_forwards_.load(std::memory_order_relaxed);
  r.engine.bulk_exchanges = bulk_exchanges_.load(std::memory_order_relaxed);
  return r;
}

RunReport run_spmd(int num_pes, const MachineParams& machine,
                   std::uint64_t seed,
                   const std::function<void(Comm&)>& program) {
  Engine engine(num_pes, machine, seed);
  engine.run(program);
  return engine.report();
}

EngineBackend resolve_engine_backend(EngineBackend requested) {
  return resolve_backend(requested);
}

int engine_fiber_workers(int num_pes) { return fiber_workers(num_pes); }

}  // namespace pmps::net
