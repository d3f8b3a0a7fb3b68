// Comm: an MPI-communicator-like handle for SPMD programs on the simulated
// cluster. Each PE (thread) holds its own Comm instance. Sub-communicators
// for the recursion of the multi-level sorting algorithms and for the §4.2
// grid are slices of the parent's members that every PE computes alone
// (split_strided, split_consecutive); split() agrees on an arbitrary
// coloring by exchanging messages. Neither is charged, matching the
// paper's §7.1 note that communicator construction is precomputation.
//
// Point-to-point semantics: send() is asynchronous (deposits into the
// destination mailbox with a virtual arrival time); recv() blocks the PE —
// parking its fiber under the fiber engine, or its OS thread under the
// legacy backend — until the matching message exists, and advances the
// virtual clock to no earlier than the arrival time. Tags are allocated in
// lockstep via next_tag_block(); higher-level collectives live in
// coll/collectives.hpp.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/engine.hpp"

namespace pmps::net {

class Comm {
 public:
  /// World communicator for PE `pe` (used by Engine).
  Comm(Engine* engine, int pe);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_->size()); }
  int world_rank() const { return ctx_->pe; }
  int world_size() const { return engine_->num_pes(); }
  int member(int rank) const { return (*members_)[rank]; }

  Engine& engine() const { return *engine_; }
  const MachineParams& machine() const { return engine_->machine(); }
  PeContext& ctx() const { return *ctx_; }
  Xoshiro256& rng() const { return ctx_->rng; }

  // --- virtual time ---------------------------------------------------------
  double now() const { return ctx_->clock; }
  /// Charges local computation. Straggler PEs (NetworkModel compute
  /// dilation) run it dilation× slower; healthy PEs multiply by exactly
  /// 1.0, which keeps the clean path bit-identical.
  void charge(double seconds) const {
    ctx_->advance(seconds * ctx_->dilation);
  }
  void set_phase(Phase p) const { ctx_->phase = p; }
  Phase phase() const { return ctx_->phase; }

  // --- tags -----------------------------------------------------------------
  /// Returns the base of a fresh block of 2^20 tags. All members of a
  /// communicator call this the same number of times (SPMD lockstep), so
  /// the returned base is identical on every member.
  std::uint64_t next_tag_block() { return (seq_++) << 20; }

  // --- point-to-point (typed, trivially copyable payloads) -------------------
  template <Sortable T>
  void send(int dest_rank, std::uint64_t tag, std::span<const T> data) {
    send_bytes(dest_rank, tag,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size_bytes()});
  }

  template <Sortable T>
  std::vector<T> recv(int src_rank, std::uint64_t tag) {
    Message m = recv_bytes(src_rank, tag);
    PMPS_CHECK(m.payload.size() % sizeof(T) == 0);
    std::vector<T> out(m.payload.size() / sizeof(T));
    if (!m.payload.empty())
      std::memcpy(out.data(), m.payload.data(), m.payload.size());
    release_payload(std::move(m));
    return out;
  }

  /// Receives a message of exactly `dest.size()` elements directly into
  /// `dest` — no intermediate typed vector; the payload buffer goes back to
  /// the engine's pool. The flat collectives use this to land parts at their
  /// offset in one contiguous result buffer.
  template <Sortable T>
  void recv_into(int src_rank, std::uint64_t tag, std::span<T> dest) {
    Message m = recv_bytes(src_rank, tag);
    PMPS_CHECK(m.payload.size() == dest.size_bytes());
    if (!m.payload.empty())
      std::memcpy(dest.data(), m.payload.data(), m.payload.size());
    release_payload(std::move(m));
  }

  /// Receives a message and appends its elements to `out` (single grow, no
  /// intermediate vector); returns the number of elements appended.
  template <Sortable T>
  std::size_t recv_append(int src_rank, std::uint64_t tag,
                          std::vector<T>& out) {
    Message m = recv_bytes(src_rank, tag);
    PMPS_CHECK(m.payload.size() % sizeof(T) == 0);
    const std::size_t n = m.payload.size() / sizeof(T);
    if (n > 0) {
      const std::size_t old = out.size();
      out.resize(old + n);
      std::memcpy(out.data() + old, m.payload.data(), m.payload.size());
    }
    release_payload(std::move(m));
    return n;
  }

  /// Sends a single value.
  template <Sortable T>
  void send_one(int dest_rank, std::uint64_t tag, const T& v) {
    send<T>(dest_rank, tag, std::span<const T>(&v, 1));
  }

  template <Sortable T>
  T recv_one(int src_rank, std::uint64_t tag) {
    auto v = recv<T>(src_rank, tag);
    PMPS_CHECK(v.size() == 1);
    return v[0];
  }

  void send_bytes(int dest_rank, std::uint64_t tag,
                  std::span<const std::byte> payload);
  Message recv_bytes(int src_rank, std::uint64_t tag);

  /// Charges this PE for sending `bytes` to `dest_rank` by the engine's
  /// send rule (Engine::charge_send) and returns the arrival time there —
  /// what send_bytes charges, without the message.
  double charge_send(int dest_rank, std::size_t bytes);

  /// Charges this PE for receiving `bytes` from `src_rank` that arrived at
  /// `arrival`, by the engine's receive rule (Engine::charge_recv) — what
  /// recv_bytes charges for the same message.
  void charge_recv(int src_rank, std::size_t bytes, double arrival);

  /// Joins this communicator's rendezvous on the engine's fast-forward
  /// board (Engine::rendezvous; requires engine().coll_ff_enabled()). Every
  /// member calls it in lockstep, after posting in ctx().coll_scratch what
  /// `on_last` reads; the last to arrive runs `on_last` while every other
  /// member is parked. Returns whether the run was aborted (kBulkClose).
  template <typename F>
  bool rendezvous(RendezvousKind kind, F&& on_last) {
    return engine_->rendezvous(*ctx_, comm_id_, size(), kind,
                               std::forward<F>(on_last));
  }

  /// Returns a consumed message's payload buffer to the engine's pool.
  /// Callers of recv_bytes should release once done with the payload; the
  /// typed recv helpers do it automatically.
  void release_payload(Message&& m);

  // --- sub-communicators ------------------------------------------------------
  /// Splits this communicator: PEs with equal `color` form a new
  /// communicator, ranked by (key, parent rank). Collective over all
  /// members: a binomial gather of every member's (color, key) to rank 0
  /// and a broadcast of the whole table, Θ(p) bytes to every PE. Not
  /// charged to virtual time (precomputation, see §7.1).
  Comm split(int color, int key);

  /// The sub-communicator of parent ranks first, first + stride, …,
  /// first + (count − 1)·stride, ranked in that order; the caller must be
  /// one of them. Every PE knows its slice, so nothing is sent: it has the
  /// members and ranks of split(color, key) for any coloring that groups
  /// exactly these ranks in this order. Every member of this communicator
  /// calls it in lockstep, each with the slice that holds it (the child's
  /// id comes from next_tag_block). Not charged (§7.1; docs/DESIGN.md §15).
  Comm split_strided(int first, int stride, int count);

  /// Splits into `groups` equal consecutive groups; returns the
  /// sub-communicator for this PE's group (a split_strided slice).
  /// Requires size() % groups == 0.
  Comm split_consecutive(int groups);

 private:
  Comm(Engine* engine, PeContext* ctx,
       std::shared_ptr<const std::vector<int>> members, int rank,
       std::uint64_t comm_id);

  Engine* engine_;
  PeContext* ctx_;
  std::shared_ptr<const std::vector<int>> members_;  // global PE ids, sorted
  int rank_;
  std::uint64_t comm_id_;
  std::uint64_t seq_ = 1;
};

}  // namespace pmps::net
