// Collective operations on top of Comm point-to-point messages.
//
// Costs are *emergent*: every collective is built from p2p sends/recvs, so
// its virtual-time cost is whatever its message schedule costs, without any
// hand-inserted charges. The cost of each is listed below. Only allreduce
// meets the Θ(α log p + βℓ) bound the paper quotes from [2, 30] for
// vector-valued collectives, and only above its length crossover
// (docs/DESIGN.md §13); bcast, reduce and exscan_add ship the whole vector
// on each of their ⌈log2 p⌉ rounds.
//
// On a clean network barrier, bcast, allreduce (both schedules),
// exscan_add, allgather_merge and sparse_exchange send no messages: the
// members meet in one engine rendezvous, and the last to arrive replays the
// schedule for all of them, bit-identical in virtual time, statistics and
// values (docs/DESIGN.md §11, §14, §16). There, bcast's root and
// exscan_add's rank 0 wait for every member, so every caller must reach
// them in SPMD lockstep.
//
// The irregular collectives are *flat-buffer* APIs, the shape real MPI
// specifies them in (one contiguous buffer plus counts/displacements):
// gatherv/allgatherv return a FlatParts<T> view (flat.hpp), alltoallv takes
// (sendbuf, counts) spans, and sparse_exchange returns one flat buffer
// indexed by (message, offset). Internally each tree edge serialises its
// accumulated payload exactly once and every part lands at its offset in
// one result buffer, so a collective costs O(1) heap allocations per PE
// instead of one per rank per PE — that Θ(p²)-allocation host-time wall is
// what capped executed runs before; virtual-time costs are unchanged (see
// docs/DESIGN.md §7).
//
// Provided (all SPMD-collective over the communicator):
//   barrier                — dissemination barrier, Θ(α log p); replayed
//   bcast / bcast_one      — binomial tree, Θ((α + βℓ) log p); replayed
//   reduce                 — binomial tree to a root, Θ((α + βℓ) log p)
//   allreduce / allreduce_add — elementwise on equal-length vectors, any
//                            associative op: short vectors reduce + bcast,
//                            Θ((α + βℓ) log p); long ones Rabenseifner's
//                            reduce-scatter + allgather, Θ(α log p + βℓ);
//                            each replayed as one, folding the sum once
//   allreduce_then         — allreduce, then one function of the sum: on
//                            the replay computed once per communicator and
//                            shared by every member
//   exscan_add             — vector-valued exclusive prefix sum
//                            (dissemination), Θ((α + βℓ) log p); replayed
//   *_one                  — scalar wrappers over the vector collectives,
//                            all through the same one-element adapter
//   gatherv / allgatherv   — binomial gather (+ broadcast) → FlatParts<T>
//   allgather_merge        — gossip of *sorted* runs, merging at every
//                            combine step (the modified allGather of §4.2);
//                            the hypercube meets its farthest partner
//                            first, so the doubling runs cross the nearest,
//                            cheapest links (docs/DESIGN.md §15); replayed,
//                            merging each subcube once
//   alltoallv              — dense irregular exchange over (sendbuf, counts);
//                            Schedule::kDirect posts every pair (p−1
//                            startups, like mpich), Schedule::kOneFactor
//                            runs the 1-factor algorithm [31] and omits
//                            empty messages (§7.1)
//   sparse_exchange        — NBX-style sparse all-to-all: only actual
//                            messages are charged plus an α log p
//                            termination-detection barrier; used by the data
//                            delivery algorithms of §4.3 so that their O(r)
//                            startup guarantees are visible in virtual time.
//                            On a clean network it delivers the pieces in
//                            place, in one engine rendezvous, instead of one
//                            mailbox message each (docs/DESIGN.md §14).

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "coll/flat.hpp"
#include "coll/send_plan.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"

namespace pmps::coll {

using net::Comm;

// ---------------------------------------------------------------------------
// fast-forward replays (docs/DESIGN.md §16)
// ---------------------------------------------------------------------------
//
// Each replayed schedule below is written twice, side by side: as messages
// and as a detail::replay_* that the last member to reach the collective's
// rendezvous runs for every member.

namespace detail {

/// The last arriver's view of a fast-forwarded collective: every member's
/// context and posted vectors by rank, and the engine's send and receive
/// rules applied between ranks, exactly as Comm::send_bytes and
/// Comm::recv_bytes apply them.
class Replay {
 public:
  explicit Replay(const Comm& comm) : comm_(comm), engine_(comm.engine()) {}

  int size() const { return comm_.size(); }
  const net::MachineParams& machine() const { return comm_.machine(); }
  net::PeContext& ctx(int rank) const {
    return engine_.pe_context(comm_.member(rank));
  }
  net::CollScratch& scratch(int rank) const {
    return ctx(rank).coll_scratch;
  }
  template <typename T>
  std::vector<T>& out(int rank) const {
    return *static_cast<std::vector<T>*>(scratch(rank).ff_out);
  }

  /// Charges rank `src` for a message of `bytes` to rank `dst`; returns
  /// its arrival.
  double send(int src, int dst, std::size_t bytes) const {
    net::PeContext& s = ctx(src);
    const int dst_pe = comm_.member(dst);
    return engine_.charge_send(
        s, comm_.machine().level_between(s.pe, dst_pe), dst_pe, bytes);
  }
  /// Charges rank `dst` for receiving that message.
  void recv(int dst, int src, std::size_t bytes, double arrival) const {
    net::PeContext& r = ctx(dst);
    engine_.charge_recv(
        r, comm_.machine().level_between(r.pe, comm_.member(src)), bytes,
        arrival);
  }
  /// send(), for a round whose receives are charged in a second pass: the
  /// arrival waits in the receiver's scratch (one message per receiver and
  /// round) until posted_recv() charges it.
  void post_send(int src, int dst, std::size_t bytes) const {
    scratch(dst).ff_arrival = send(src, dst, bytes);
  }
  void posted_recv(int dst, int src, std::size_t bytes) const {
    recv(dst, src, bytes, scratch(dst).ff_arrival);
  }
  /// Charges rank `rank` for `seconds` of local computation, as
  /// Comm::charge charges it.
  void charge(int rank, double seconds) const {
    net::PeContext& c = ctx(rank);
    c.advance(seconds * c.dilation);
  }
  /// Hands every member the same `result`; each takes its reference back
  /// with take_shared once released.
  void share(const std::shared_ptr<const void>& result) const {
    for (int r = 0; r < size(); ++r) scratch(r).ff_shared = result;
  }

 private:
  const Comm& comm_;
  net::Engine& engine_;
};

/// This member's reference to the result a replay shared (Replay::share).
template <typename R>
std::shared_ptr<const R> take_shared(Comm& comm) {
  return std::static_pointer_cast<const R>(
      std::exchange(comm.ctx().coll_scratch.ff_shared, nullptr));
}

/// Replay of barrier's dissemination schedule. Every member sends and
/// receives in every round, so each round charges all sends, in rank
/// order, then all receives. Each member's own effects keep their order
/// (send r, receive r, send r + 1, …), every receive reads its sender's
/// same-round arrival, and each noise stream is drawn once per round in
/// round order — so every clock, counter and noise state ends bit for bit
/// where the message loop leaves it.
inline void replay_barrier(const Replay& ff) {
  const int p = ff.size();
  for (int step = 1; step < p; step <<= 1) {
    for (int i = 0; i < p; ++i) ff.post_send(i, (i + step) % p, 1);
    for (int i = 0; i < p; ++i) ff.posted_recv(i, (i - step + p) % p, 1);
  }
}

/// Joins a rendezvous whose last arriver replays barrier; returns whether
/// the run was aborted (RendezvousKind::kBulkClose only).
inline bool ff_barrier(Comm& comm, net::RendezvousKind kind) {
  return comm.rendezvous(kind, [&comm] { replay_barrier(Replay(comm)); });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// barrier
// ---------------------------------------------------------------------------

/// Dissemination barrier: ⌈log2 p⌉ rounds; also synchronises virtual clocks
/// (every PE ends no earlier than any other PE's entry time). Fast-forwarded
/// on a clean network (detail::replay_barrier).
inline void barrier(Comm& comm) {
  const int p = comm.size();
  if (p == 1) return;
  if (comm.engine().coll_ff_enabled()) {
    detail::ff_barrier(comm, net::RendezvousKind::kReplay);
    return;
  }
  const std::uint64_t tag = comm.next_tag_block();
  const std::byte token{0};
  std::byte got{0};
  for (int round = 0, step = 1; step < p; ++round, step <<= 1) {
    const int dest = (comm.rank() + step) % p;
    const int src = (comm.rank() - step + p) % p;
    comm.send<std::byte>(dest, tag + static_cast<std::uint64_t>(round),
                         std::span<const std::byte>(&token, 1));
    comm.recv_into<std::byte>(src, tag + static_cast<std::uint64_t>(round),
                              std::span<std::byte>(&got, 1));
  }
}

namespace detail {

/// The shared shape of every scalar ("*_one") collective: wrap the value in
/// a one-element vector, run the vector-valued collective, unwrap.
template <Sortable T, typename VecOp>
T one(T value, VecOp&& op) {
  std::vector<T> v{std::move(value)};
  std::forward<VecOp>(op)(v);
  PMPS_ASSERT(v.size() == 1);
  return v[0];
}

}  // namespace detail

// ---------------------------------------------------------------------------
// broadcast
// ---------------------------------------------------------------------------

namespace detail {

/// The charges of bcast's binomial tree from `root` for a vector of
/// `bytes`, rounds from distance top/2 down to 1 (top = next_pow2(p)) in
/// virtual ranks (root = 0). A round's senders, the multiples of 2m,
/// already hold the data and its receivers do not yet, so no member both
/// sends and receives in one round, and each edge is charged
/// send-then-receive.
inline void charge_bcast(const Replay& ff, int root, std::size_t bytes) {
  const int p = ff.size();
  for (int m = static_cast<int>(next_pow2(static_cast<std::uint64_t>(p)) / 2);
       m >= 1; m /= 2) {
    for (int v = 0; v + m < p; v += 2 * m) {
      const int src = (v + root) % p;
      const int dst = (v + m + root) % p;
      ff.recv(dst, src, bytes, ff.send(src, dst, bytes));
    }
  }
}

/// Replay of bcast: its charges, then every other member gets the root's
/// vector.
template <Sortable T>
void replay_bcast(const Replay& ff, int root) {
  const std::vector<T>& data = ff.out<T>(root);
  charge_bcast(ff, root, data.size() * sizeof(T));
  for (int r = 0; r < ff.size(); ++r)
    if (r != root) ff.out<T>(r) = data;
}

}  // namespace detail

/// Binomial-tree broadcast of `data` from `root`: Θ(α log p + βℓ log p)
/// virtual time (each tree edge ships the whole vector). Fast-forwarded on
/// a clean network (detail::replay_bcast), where the root, too, waits for
/// every member.
template <Sortable T>
void bcast(Comm& comm, std::vector<T>& data, int root = 0) {
  const int p = comm.size();
  if (p == 1) return;
  if (comm.engine().coll_ff_enabled()) {
    comm.ctx().coll_scratch.ff_out = &data;
    comm.rendezvous(net::RendezvousKind::kReplay, [&comm, root] {
      detail::replay_bcast<T>(detail::Replay(comm), root);
    });
    return;
  }
  const std::uint64_t tag = comm.next_tag_block();
  const int vrank = (comm.rank() - root + p) % p;  // root becomes vrank 0

  const std::uint64_t top = next_pow2(static_cast<std::uint64_t>(p));
  const std::uint64_t lowbit =
      vrank == 0 ? top : static_cast<std::uint64_t>(vrank & -vrank);
  if (vrank != 0) {
    const int vparent = vrank - static_cast<int>(lowbit);
    const int parent = (vparent + root) % p;
    data = comm.recv<T>(parent, tag + static_cast<std::uint64_t>(vrank));
  }
  for (std::uint64_t m = lowbit >> 1; m >= 1; m >>= 1) {
    const int vchild = vrank + static_cast<int>(m);
    if (vchild < p) {
      comm.send<T>((vchild + root) % p, tag + static_cast<std::uint64_t>(vchild),
                   std::span<const T>(data));
    }
    if (m == 1) break;
  }
}

/// Broadcast of a single value from `root`.
template <Sortable T>
T bcast_one(Comm& comm, T value, int root = 0) {
  return detail::one(std::move(value),
                     [&](std::vector<T>& v) { bcast(comm, v, root); });
}

// ---------------------------------------------------------------------------
// reduce / allreduce (elementwise on equal-length vectors)
// ---------------------------------------------------------------------------

/// Binomial-tree reduction to `root`; `op(a, b)` combines elementwise.
template <Sortable T, typename Op>
std::vector<T> reduce(Comm& comm, std::vector<T> local, Op op, int root = 0) {
  const int p = comm.size();
  if (p == 1) return local;
  const std::uint64_t tag = comm.next_tag_block();
  const int vrank = (comm.rank() - root + p) % p;

  for (int step = 1; step < p; step <<= 1) {
    if ((vrank & step) != 0) {
      const int vdest = vrank - step;
      comm.send<T>((vdest + root) % p, tag + static_cast<std::uint64_t>(vrank),
                   std::span<const T>(local));
      break;
    }
    const int vsrc = vrank + step;
    if (vsrc < p) {
      auto other = comm.recv<T>((vsrc + root) % p,
                                tag + static_cast<std::uint64_t>(vsrc));
      PMPS_CHECK(other.size() == local.size());
      comm.charge(comm.machine().compare_cost_n(
          static_cast<std::int64_t>(local.size())));
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] = op(local[i], other[i]);
    }
  }
  return local;  // meaningful only on root
}

namespace detail {

/// Crossover of `allreduce`: the long-vector schedule pays off once one
/// message's bandwidth term β·bytes reaches the α·⌈log2 p⌉ startups of a
/// tree, both taken on the communicator's widest link. Identical on every
/// member (same p, same link, equal-length vectors), so all take one path.
inline bool allreduce_is_long(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  const auto& m = comm.machine();
  const int lvl =
      static_cast<int>(m.level_between(comm.member(0), comm.member(p - 1)));
  return m.beta[lvl] * static_cast<double>(bytes) >=
         m.alpha[lvl] * ceil_log2(static_cast<std::uint64_t>(p));
}

/// The shape of Rabenseifner's schedule over p ranks and a vector of `len`
/// elements, shared by its message loop and its replay. For p = 2^k + rem
/// the 2^k participants are the odd ranks of the first rem pairs and every
/// rank from 2·rem on; the vector is cut into 2^k blocks.
struct LongAllreduceShape {
  LongAllreduceShape(int p, std::size_t len)
      : rounds(floor_log2(static_cast<std::uint64_t>(p))),
        pof2(1 << rounds),
        rem(p - pof2),
        len(len) {}

  int rounds;  ///< k: halving rounds, then as many doubling rounds
  int pof2;    ///< 2^k participants
  int rem;     ///< ranks 2i and 2i+1 (i < rem) fold into 2i+1
  std::size_t len;

  /// The rank of participant `vr`.
  int rank_of(int vr) const { return vr < rem ? 2 * vr + 1 : vr + rem; }
  /// The element offset of block `b`.
  std::size_t offset(int b) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(b) * len /
                                    static_cast<std::uint64_t>(pof2));
  }
  /// Elements participant `vr` keeps after `k` halving rounds: 2^(rounds−k)
  /// blocks from block rev(vr mod 2^k)·2^(rounds−k), rev reversing k bits.
  std::size_t kept(int vr, int k) const {
    int first = 0;
    for (int j = 0; j < k; ++j)
      if (((vr >> j) & 1) != 0) first += pof2 >> (j + 1);
    return offset(first + (pof2 >> k)) - offset(first);
  }
};

/// Rabenseifner's allreduce, in place on `v`: a reduce-scatter by recursive
/// halving, then an allgather by recursive doubling — Θ(α log p + βℓ). For
/// p = 2^k + rem, ranks 2i and 2i+1 (i < rem) first fold into 2i+1, and 2i
/// gets the result back at the end. The halving starts at distance 1 and
/// every combine puts the lower ranks' partial on the left, so each combine
/// joins two rank-contiguous partials: an associative, non-commutative `op`
/// gives the rank-order fold. The received payloads are combined in place
/// and handed back to the pool, so a warm call allocates nothing.
template <Sortable T, typename Op>
void allreduce_long(Comm& comm, std::vector<T>& v, Op& op) {
  const int me = comm.rank();
  const LongAllreduceShape shape(comm.size(), v.size());
  const int pof2 = shape.pof2;
  const int rem = shape.rem;
  const std::uint64_t tag = comm.next_tag_block();
  const std::uint64_t fold_out_tag =
      tag + 1 + 2 * static_cast<std::uint64_t>(shape.rounds);

  // v[lo, lo + n) ← op over (received, own), lower ranks on the left.
  auto combine_from = [&](int src, std::uint64_t t, std::size_t lo,
                          std::size_t n, bool theirs_lower) {
    net::Message m = comm.recv_bytes(src, t);
    PMPS_CHECK(m.payload.size() == n * sizeof(T));
    comm.charge(comm.machine().compare_cost_n(static_cast<std::int64_t>(n)));
    for (std::size_t i = 0; i < n; ++i) {
      T x{};
      std::memcpy(&x, m.payload.data() + i * sizeof(T), sizeof(T));
      v[lo + i] = theirs_lower ? op(x, v[lo + i]) : op(v[lo + i], x);
    }
    comm.release_payload(std::move(m));
  };

  int vrank = me - rem;  // rank among the 2^k participants
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      comm.send<T>(me + 1, tag, std::span<const T>(v));
      comm.recv_into<T>(me + 1, fold_out_tag, std::span<T>(v));
      return;
    }
    combine_from(me - 1, tag, 0, v.size(), /*theirs_lower=*/true);
    vrank = me / 2;
  }
  auto blocks = [&](int lo, int hi) {
    return std::span<T>(v.data() + shape.offset(lo),
                        shape.offset(hi) - shape.offset(lo));
  };

  // Reduce-scatter: keep one half of the current block range, send the
  // other to the partner at distance `mask`.
  int lo = 0;
  int hi = pof2;
  std::uint64_t t = tag + 1;
  for (int mask = 1; mask < pof2; mask <<= 1, ++t) {
    const int partner = shape.rank_of(vrank ^ mask);
    const bool lower = (vrank & mask) == 0;
    const int mid = (lo + hi) / 2;
    comm.send<T>(partner, t, lower ? blocks(mid, hi) : blocks(lo, mid));
    (lower ? hi : lo) = mid;
    combine_from(partner, t, shape.offset(lo),
                 shape.offset(hi) - shape.offset(lo),
                 /*theirs_lower=*/!lower);
  }
  // Allgather: the same pairs in reverse; each round doubles the range.
  for (int mask = pof2 / 2; mask >= 1; mask >>= 1, ++t) {
    const int partner = shape.rank_of(vrank ^ mask);
    const bool lower = (vrank & mask) == 0;
    const int width = hi - lo;
    comm.send<T>(partner, t, blocks(lo, hi));
    if (lower) {
      comm.recv_into<T>(partner, t, blocks(hi, hi + width));
      hi += width;
    } else {
      comm.recv_into<T>(partner, t, blocks(lo - width, lo));
      lo -= width;
    }
  }
  PMPS_ASSERT(lo == 0 && hi == pof2 && t == fold_out_tag);
  if (me < 2 * rem) comm.send<T>(me - 1, fold_out_tag, std::span<const T>(v));
}

/// Replay of the short allreduce up to its sum: reduce's binomial tree to
/// rank 0, then bcast's charges from rank 0. In reduce round k the senders
/// are the ranks whose lowest set bit is 2^k and the receivers the
/// multiples of 2^(k+1), so again no member both sends and receives in one
/// round. Each receiver is charged the message and then its combine, and
/// folds the sender's partial in on the right, in place — reduce's tree
/// order, so a non-commutative `op` gives the message path's result.
/// Returns rank 0's vector, which holds the sum.
template <Sortable T, typename Op>
const std::vector<T>& replay_allreduce_short(const Replay& ff, Op& op) {
  const int p = ff.size();
  const auto& machine = ff.machine();
  for (int step = 1; step < p; step <<= 1) {
    for (int dst = 0; dst + step < p; dst += 2 * step) {
      const int src = dst + step;
      std::vector<T>& acc = ff.out<T>(dst);
      const std::vector<T>& part = ff.out<T>(src);
      const std::size_t bytes = part.size() * sizeof(T);
      ff.recv(dst, src, bytes, ff.send(src, dst, bytes));
      PMPS_CHECK(part.size() == acc.size());
      ff.charge(dst,
                machine.compare_cost_n(static_cast<std::int64_t>(acc.size())));
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], part[i]);
    }
  }
  charge_bcast(ff, 0, ff.out<T>(0).size() * sizeof(T));
  return ff.out<T>(0);
}

/// Replay of allreduce_long up to its sum. The schedule is charged
/// round-major: the fold-in edges, each receive followed by its combine;
/// every halving round, all sends in participant order, then all receives,
/// each followed by its combine (as replay_barrier orders a round); every
/// doubling round likewise, without combines; the fold-out edges. An empty
/// block is charged as the empty message that carries it.
///
/// Then the sum is folded once, in the halving tree's order: pairwise over
/// the 2^k participants, the lower partial on the left, participant i < rem
/// first folding op(rank 2i, rank 2i+1) — §13's rank-order fold, so a
/// floating-point sum and a non-commutative `op` give the message path's
/// bits. Chunk by chunk, the tree runs depth first, each subtree's partial
/// kept in its first participant's vector: every posted vector is read
/// once, and the ⌈log2 p⌉ live partials stay in cache. Returns the vector
/// that holds the sum.
template <Sortable T, typename Op>
const std::vector<T>& replay_allreduce_long(const Replay& ff, Op& op) {
  const int p = ff.size();
  const auto& machine = ff.machine();
  const std::size_t len = ff.out<T>(0).size();
  for (int r = 1; r < p; ++r) PMPS_CHECK(ff.out<T>(r).size() == len);
  const LongAllreduceShape shape(p, len);
  const int pof2 = shape.pof2;
  const auto combine = [&](int rank, std::size_t n) {
    ff.charge(rank, machine.compare_cost_n(static_cast<std::int64_t>(n)));
  };

  for (int i = 0; i < shape.rem; ++i) {
    ff.recv(2 * i + 1, 2 * i, len * sizeof(T),
            ff.send(2 * i, 2 * i + 1, len * sizeof(T)));
    combine(2 * i + 1, len);
  }
  // In the round at distance 2^k each participant sends what its partner
  // keeps after the round; in the doubling round, what it kept itself.
  for (int k = 0; k < shape.rounds; ++k) {
    for (int v = 0; v < pof2; ++v)
      ff.post_send(shape.rank_of(v), shape.rank_of(v ^ (1 << k)),
                   shape.kept(v ^ (1 << k), k + 1) * sizeof(T));
    for (int v = 0; v < pof2; ++v) {
      const std::size_t n = shape.kept(v, k + 1);
      ff.posted_recv(shape.rank_of(v), shape.rank_of(v ^ (1 << k)),
                     n * sizeof(T));
      combine(shape.rank_of(v), n);
    }
  }
  for (int k = shape.rounds - 1; k >= 0; --k) {
    for (int v = 0; v < pof2; ++v)
      ff.post_send(shape.rank_of(v), shape.rank_of(v ^ (1 << k)),
                   shape.kept(v, k + 1) * sizeof(T));
    for (int v = 0; v < pof2; ++v)
      ff.posted_recv(shape.rank_of(v), shape.rank_of(v ^ (1 << k)),
                     shape.kept(v ^ (1 << k), k + 1) * sizeof(T));
  }
  for (int i = 0; i < shape.rem; ++i) {
    ff.recv(2 * i, 2 * i + 1, len * sizeof(T),
            ff.send(2 * i + 1, 2 * i, len * sizeof(T)));
  }

  const auto at = [&](int v) { return ff.out<T>(shape.rank_of(v)).data(); };
  // 16 KiB of elements: at p = 4096 the ≤ 13 live partials take 208 KiB,
  // within a core's L2.
  constexpr std::size_t kChunk = std::max<std::size_t>(1, 16384 / sizeof(T));
  for (std::size_t lo = 0; lo < len; lo += kChunk) {
    const std::size_t hi = std::min(len, lo + kChunk);
    for (int v = 0; v < pof2; ++v) {
      T* const leaf = at(v);
      if (v < shape.rem) {
        const T* const pair = ff.out<T>(2 * v).data();
        for (std::size_t i = lo; i < hi; ++i) leaf[i] = op(pair[i], leaf[i]);
      }
      // v closes the subtree of 2^(j+1) participants ending at v for every
      // low 1-bit j: fold its upper half into its lower half.
      for (int j = 0; ((v >> j) & 1) != 0; ++j) {
        T* const acc = at(v + 1 - (2 << j));
        const T* const part = at(v + 1 - (1 << j));
        for (std::size_t i = lo; i < hi; ++i) acc[i] = op(acc[i], part[i]);
      }
    }
  }
  return ff.out<T>(shape.rank_of(0));
}

/// Replay of either allreduce schedule up to its sum: every member's
/// charges, and the vector that holds the sum (the caller hands it out).
template <Sortable T, typename Op>
const std::vector<T>& replay_allreduce(const Replay& ff, bool is_long,
                                       Op& op) {
  return is_long ? replay_allreduce_long<T>(ff, op)
                 : replay_allreduce_short<T>(ff, op);
}

}  // namespace detail

/// Elementwise allreduce over equal-length vectors; `op` must be
/// associative, need not be commutative, and the result is the rank-order
/// fold on every PE. Short vectors run a binomial reduce to rank 0 and a
/// broadcast, Θ((α + βℓ) log p); at and above the crossover
/// (detail::allreduce_is_long) Rabenseifner's schedule, Θ(α log p + βℓ).
/// On a clean network either runs as one fast-forwarded rendezvous
/// (detail::replay_allreduce), whose last arriver folds the sum once with
/// its own `op`, so `op` must be the same function on every member, and
/// writes it into every member's vector in place.
template <Sortable T, typename Op>
std::vector<T> allreduce(Comm& comm, std::vector<T> local, Op op) {
  if (comm.size() == 1) return local;
  const bool is_long =
      detail::allreduce_is_long(comm, local.size() * sizeof(T));
  if (comm.engine().coll_ff_enabled()) {
    comm.ctx().coll_scratch.ff_out = &local;
    comm.rendezvous(net::RendezvousKind::kReplay, [&comm, is_long, &op] {
      const detail::Replay ff(comm);
      const std::vector<T>& sum = detail::replay_allreduce<T>(ff, is_long, op);
      for (int r = 0; r < ff.size(); ++r)
        if (&ff.out<T>(r) != &sum) ff.out<T>(r) = sum;  // equal lengths
    });
    return local;
  }
  if (is_long) {
    detail::allreduce_long(comm, local, op);
    return local;
  }
  auto result = reduce(comm, std::move(local), op, /*root=*/0);
  bcast(comm, result, /*root=*/0);
  return result;
}

/// allreduce, then `f(sum)`, handed to every member as one shared result.
/// On a clean network the last arriver of either schedule's replay runs `f`
/// once for the whole communicator, on the sum where the fold left it, and
/// no member's vector receives the sum. On messages every PE runs allreduce
/// and then `f` itself. Both give every member an equal value, so `f` must
/// be the same pure function of the sum on every member; it may run on
/// another member's worker, and charges nothing: each caller charges its
/// own share of f's work.
template <Sortable T, typename Op, typename F,
          typename R = std::remove_cvref_t<
              std::invoke_result_t<F&, const std::vector<T>&>>>
std::shared_ptr<const R> allreduce_then(Comm& comm, std::vector<T> local,
                                        Op op, F f) {
  if (comm.size() > 1 && comm.engine().coll_ff_enabled()) {
    const bool is_long =
        detail::allreduce_is_long(comm, local.size() * sizeof(T));
    comm.ctx().coll_scratch.ff_out = &local;
    comm.rendezvous(net::RendezvousKind::kReplay, [&comm, is_long, &op, &f] {
      const detail::Replay ff(comm);
      ff.share(std::make_shared<const R>(
          f(detail::replay_allreduce<T>(ff, is_long, op))));
    });
    return detail::take_shared<R>(comm);
  }
  return std::make_shared<const R>(f(allreduce(comm, std::move(local), op)));
}

/// Elementwise vector sum across all PEs.
inline std::vector<std::int64_t> allreduce_add(
    Comm& comm, std::vector<std::int64_t> local) {
  return allreduce(comm, std::move(local), std::plus<std::int64_t>{});
}

/// Allreduce of a single value with a generic associative `op`.
template <Sortable T, typename Op>
T allreduce_one(Comm& comm, T value, Op op) {
  return detail::one(std::move(value), [&](std::vector<T>& v) {
    v = allreduce(comm, std::move(v), op);
  });
}

/// Global sum of one int64 per PE.
inline std::int64_t allreduce_add_one(Comm& comm, std::int64_t v) {
  return allreduce_one(comm, v, std::plus<std::int64_t>{});
}

// ---------------------------------------------------------------------------
// exclusive prefix sums (vector-valued, addition)
// ---------------------------------------------------------------------------

namespace detail {

/// Replay of exscan_add's dissemination scan on the members' inclusive
/// prefixes (posted as ff_out, each starting as the member's own vector).
/// Every member may send and receive in one round, so each round charges
/// all sends, in rank order, then all receives; the sums run from the
/// highest rank down, so that each adds its sender's prefix from before the
/// round, as the message carried it.
inline void replay_exscan_add(const Replay& ff) {
  const int p = ff.size();
  const auto bytes = [&ff](int rank) {
    return ff.out<std::int64_t>(rank).size() * sizeof(std::int64_t);
  };
  for (int step = 1; step < p; step <<= 1) {
    for (int i = 0; i + step < p; ++i) ff.post_send(i, i + step, bytes(i));
    for (int i = step; i < p; ++i) ff.posted_recv(i, i - step, bytes(i - step));
    for (int i = p - 1; i >= step; --i) {
      std::vector<std::int64_t>& incl = ff.out<std::int64_t>(i);
      const std::vector<std::int64_t>& part = ff.out<std::int64_t>(i - step);
      PMPS_CHECK(part.size() == incl.size());
      for (std::size_t j = 0; j < incl.size(); ++j) incl[j] += part[j];
    }
  }
}

}  // namespace detail

/// Dissemination (Hillis–Steele) scan: ⌈log2 p⌉ rounds of length-ℓ messages,
/// i.e. Θ((α + βℓ) log p); the paper's vector-valued prefix sums.
/// Returns the *exclusive* prefix (sum over ranks < rank()). Fast-forwarded
/// on a clean network (detail::replay_exscan_add), where rank 0, too, waits
/// for every member.
inline std::vector<std::int64_t> exscan_add(
    Comm& comm, const std::vector<std::int64_t>& local) {
  const int p = comm.size();
  const std::size_t len = local.size();
  std::vector<std::int64_t> incl = local;
  if (p > 1 && comm.engine().coll_ff_enabled()) {
    comm.ctx().coll_scratch.ff_out = &incl;
    comm.rendezvous(net::RendezvousKind::kReplay, [&comm] {
      detail::replay_exscan_add(detail::Replay(comm));
    });
  } else if (p > 1) {
    const std::uint64_t tag = comm.next_tag_block();
    for (int round = 0, step = 1; step < p; ++round, step <<= 1) {
      if (comm.rank() + step < p) {
        comm.send<std::int64_t>(comm.rank() + step,
                                tag + static_cast<std::uint64_t>(round),
                                std::span<const std::int64_t>(incl));
      }
      if (comm.rank() - step >= 0) {
        auto part = comm.recv<std::int64_t>(
            comm.rank() - step, tag + static_cast<std::uint64_t>(round));
        PMPS_CHECK(part.size() == len);
        for (std::size_t i = 0; i < len; ++i) incl[i] += part[i];
      }
    }
  }
  std::vector<std::int64_t> excl(len);
  for (std::size_t i = 0; i < len; ++i) excl[i] = incl[i] - local[i];
  return excl;
}

/// Exclusive prefix sum of one int64 per PE (rank 0 gets 0).
inline std::int64_t exscan_add_one(Comm& comm, std::int64_t v) {
  return detail::one(v, [&](std::vector<std::int64_t>& x) {
    x = exscan_add(comm, x);
  });
}

// ---------------------------------------------------------------------------
// gather / allgather
// ---------------------------------------------------------------------------

/// Binomial gather of variable-length contributions. On `root` the result
/// holds one part per source rank (in rank order); elsewhere it is an empty
/// view (zero parts).
///
/// Every PE accumulates ONE flat payload plus (vrank, size) header pairs;
/// a combine step appends the child's header and payload to its own, so
/// each tree edge serialises exactly once and nothing is ever repacked —
/// the seed implementation's per-step re-serialisation into per-rank
/// vectors was the dominant host-time cost of large-p gathers.
template <Sortable T>
FlatParts<T> gatherv(Comm& comm, std::span<const T> local, int root = 0) {
  const int p = comm.size();
  const std::uint64_t tag = comm.next_tag_block();
  const int vrank = (comm.rank() - root + p) % p;

  std::vector<std::int64_t> header{static_cast<std::int64_t>(vrank),
                                   static_cast<std::int64_t>(local.size())};
  std::vector<T> payload(local.begin(), local.end());

  for (int step = 1; step < p; step <<= 1) {
    if ((vrank & step) != 0) {
      const int vdest = vrank - step;
      comm.send<std::int64_t>(
          (vdest + root) % p, tag + 2 * static_cast<std::uint64_t>(vrank),
          std::span<const std::int64_t>(header));
      comm.send<T>((vdest + root) % p,
                   tag + 2 * static_cast<std::uint64_t>(vrank) + 1,
                   std::span<const T>(payload));
      return {};
    }
    const int vsrc = vrank + step;
    if (vsrc < p) {
      comm.recv_append<std::int64_t>(
          (vsrc + root) % p, tag + 2 * static_cast<std::uint64_t>(vsrc),
          header);
      comm.recv_append<T>((vsrc + root) % p,
                          tag + 2 * static_cast<std::uint64_t>(vsrc) + 1,
                          payload);
    }
  }

  // Root (vrank 0). Subtrees arrive in ascending-vrank order and each is
  // internally vrank-ascending, so `payload` is already the concatenation
  // in vrank order; rank order is the vrank order rotated by `root`.
  PMPS_CHECK(header.size() == 2 * static_cast<std::size_t>(p));
  std::vector<std::int64_t> vsizes(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v) {
    PMPS_ASSERT(header[2 * static_cast<std::size_t>(v)] == v);
    vsizes[static_cast<std::size_t>(v)] =
        header[2 * static_cast<std::size_t>(v) + 1];
  }
  if (root != 0) {
    const auto vfirst = static_cast<std::size_t>(p - root);  // vrank of rank 0
    std::int64_t elems_before = 0;
    for (std::size_t v = 0; v < vfirst; ++v) elems_before += vsizes[v];
    std::rotate(payload.begin(), payload.begin() + elems_before,
                payload.end());
    std::rotate(vsizes.begin(),
                vsizes.begin() + static_cast<std::int64_t>(vfirst),
                vsizes.end());
  }
  return FlatParts<T>::from_sizes(std::move(payload), vsizes);
}

/// allgatherv = gather to 0 + broadcast of (sizes, flat buffer). Every PE
/// gets all contributions in rank order as one FlatParts view.
template <Sortable T>
FlatParts<T> allgatherv(Comm& comm, std::span<const T> local) {
  const int p = comm.size();
  FlatParts<T> gathered = gatherv(comm, local, /*root=*/0);

  std::vector<std::int64_t> sizes = comm.rank() == 0
                                        ? gathered.sizes()
                                        : std::vector<std::int64_t>(
                                              static_cast<std::size_t>(p));
  bcast(comm, sizes, 0);
  std::vector<T> flat = std::move(gathered).take_flat();  // empty off-root
  bcast(comm, flat, 0);
  return FlatParts<T>::from_sizes(std::move(flat), sizes);
}

// ---------------------------------------------------------------------------
// allgather-merge (the gossip of §4.2)
// ---------------------------------------------------------------------------

namespace detail {

/// Merges two sorted runs into a new one, `lower`'s elements first among
/// equals: the gossip's tie order. Both paths put the lower-rank half on
/// the left, so every member ends with the same bytes even when `less`
/// ties distinguishable elements.
template <typename T, typename Less>
std::vector<T> merge_runs(std::span<const T> lower, std::span<const T> upper,
                          Less& less) {
  std::vector<T> out;
  out.reserve(lower.size() + upper.size());
  std::merge(lower.begin(), lower.end(), upper.begin(), upper.end(),
             std::back_inserter(out), less);
  return out;
}

/// Replay of allgather_merge on the members' runs (each posted as a
/// std::span<const T>), merging each subcube once instead of once per
/// member. run[c] is what rank c holds (in the hypercube, every member of
/// class c); held[c] owns it once c has merged.
///
/// Hypercube: before the round at distance s every member of class
/// c = rank mod 2s holds the same run, and the round merges class c with
/// class c + s for every c < s — N·log2 p elements merged in all, against
/// about 2N on each of the p members on messages. Each round charges every
/// send, in rank order, then every receive, each followed by its
/// receiver's merge of both runs, as replay_barrier does.
///
/// Other sizes: the merging binomial gather to rank 0, edge by edge as in
/// replay_allreduce's reduce, then bcast's charges for the merged run.
///
/// Every member gets the merged run as one shared vector in ff_shared.
template <Sortable T, typename Less>
void replay_allgather_merge(const Replay& ff, Less& less) {
  const int p = ff.size();
  const auto& machine = ff.machine();
  std::vector<std::span<const T>> run(static_cast<std::size_t>(p));
  std::vector<std::vector<T>> held(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    run[r] = *static_cast<const std::span<const T>*>(ff.scratch(r).ff_out);
  const auto bytes = [&run](int c) { return run[c].size() * sizeof(T); };
  const auto charge_merge = [&](int rank, std::size_t n) {
    ff.charge(rank, machine.merge_cost(static_cast<std::int64_t>(n), 2));
  };
  const auto merge_pair = [&](int lower, int upper) {
    held[lower] = merge_runs(run[lower], run[upper], less);
    run[lower] = held[lower];
    held[upper] = std::vector<T>();
    run[upper] = {};
  };
  if (is_pow2(p)) {
    for (int s = p / 2; s >= 1; s /= 2) {
      const auto cls = [s](int rank) { return rank % (2 * s); };
      for (int i = 0; i < p; ++i) ff.post_send(i, i ^ s, bytes(cls(i)));
      for (int i = 0; i < p; ++i) {
        ff.posted_recv(i, i ^ s, bytes(cls(i ^ s)));
        charge_merge(i, run[cls(i)].size() + run[cls(i ^ s)].size());
      }
      for (int c = 0; c < s; ++c) merge_pair(c, c + s);
    }
  } else {
    for (int step = 1; step < p; step <<= 1) {
      for (int dst = 0; dst + step < p; dst += 2 * step) {
        const int src = dst + step;
        ff.recv(dst, src, bytes(src), ff.send(src, dst, bytes(src)));
        charge_merge(dst, run[dst].size() + run[src].size());
        merge_pair(dst, src);
      }
    }
    charge_bcast(ff, 0, bytes(0));
  }
  ff.share(std::make_shared<const std::vector<T>>(std::move(held[0])));
}

}  // namespace detail

/// All-gather of locally *sorted* runs where combining merges instead of
/// concatenating, so every intermediate and the final result are sorted.
/// Power-of-two sizes use the hypercube gossip the paper cites from [21],
/// from distance p/2 down to 1: each round doubles the run, so the largest
/// runs go to the nearest partners, which on a hierarchical machine share
/// a node. Other sizes fall back to a merging binomial gather plus
/// broadcast (footnote 3 of the paper). Every merge puts the lower ranks'
/// run first among equals, so every member returns the same bytes.
///
/// Fast-forwarded on a clean network (detail::replay_allgather_merge): the
/// last arriver merges with its own `less`, so `less` must be the same
/// function on every member, and hands every member one shared merged run,
/// which each copies out on its own worker. Copying it into every member's
/// vector on the last arriver's worker instead would grow that worker's
/// malloc arena to the largest burst it ever served.
template <Sortable T, typename Less = std::less<T>>
std::vector<T> allgather_merge(Comm& comm, std::span<const T> local_sorted,
                               Less less = {}) {
  const int p = comm.size();
  PMPS_ASSERT(std::is_sorted(local_sorted.begin(), local_sorted.end(), less));
  if (p == 1) return std::vector<T>(local_sorted.begin(), local_sorted.end());
  if (comm.engine().coll_ff_enabled()) {
    comm.ctx().coll_scratch.ff_out = &local_sorted;
    comm.rendezvous(net::RendezvousKind::kReplay, [&comm, &less] {
      detail::replay_allgather_merge<T>(detail::Replay(comm), less);
    });
    return *detail::take_shared<std::vector<T>>(comm);
  }

  std::vector<T> cur(local_sorted.begin(), local_sorted.end());
  const auto merge2 = [&comm, &less](std::span<const T> lower,
                                     std::span<const T> upper) {
    std::vector<T> out = detail::merge_runs(lower, upper, less);
    comm.charge(comm.machine().merge_cost(
        static_cast<std::int64_t>(out.size()), 2));
    return out;
  };

  if (is_pow2(p)) {
    const std::uint64_t tag = comm.next_tag_block();
    for (int round = 0, step = p / 2; step >= 1; ++round, step >>= 1) {
      const int partner = comm.rank() ^ step;
      comm.send<T>(partner, tag + static_cast<std::uint64_t>(round),
                   std::span<const T>(cur));
      const auto other =
          comm.recv<T>(partner, tag + static_cast<std::uint64_t>(round));
      cur = (comm.rank() & step) != 0 ? merge2(other, cur) : merge2(cur, other);
    }
    return cur;
  }

  // Non-power-of-two: binomial gather with merging, then broadcast.
  const std::uint64_t tag = comm.next_tag_block();
  const int vrank = comm.rank();
  for (int step = 1; step < p; step <<= 1) {
    if ((vrank & step) != 0) {
      comm.send<T>(vrank - step, tag + static_cast<std::uint64_t>(vrank),
                   std::span<const T>(cur));
      break;
    }
    if (vrank + step < p) {
      const auto other = comm.recv<T>(
          vrank + step, tag + static_cast<std::uint64_t>(vrank + step));
      cur = merge2(cur, other);
    }
  }
  bcast(comm, cur, 0);
  return cur;
}

// ---------------------------------------------------------------------------
// dense all-to-all of counts (Bruck) and irregular all-to-all of payloads
// ---------------------------------------------------------------------------

/// Alltoall of one count per pair using Bruck's algorithm: ⌈log2 p⌉ rounds
/// of ≤ p/2 entries each, i.e. Θ((α + βp) log p) instead of p startups.
/// Writes recv[i] = the value rank i sent to us (recv is resized to p).
///
/// Counts travel as int32 on the wire — half the Θ(p) bytes per PE of the
/// previous int64 format (this collective runs under every alltoallv and
/// sparse exchange, so at large p the halving is visible in β terms).
/// Values outside int32 range are a checked failure; the int64 interface is
/// kept so callers stay unchanged. Wire-format note: docs/DESIGN.md §8.
///
/// The sink-style signature exists for the zero-allocation message path
/// (docs/DESIGN.md §9): the Bruck working arrays live in the PE's
/// CollScratch and every round's payload is received into them, so a warm
/// call allocates nothing (beyond growing `recv` once).
inline void alltoall_counts_into(Comm& comm,
                                 std::span<const std::int64_t> send,
                                 std::vector<std::int64_t>& recv) {
  const int p = comm.size();
  PMPS_CHECK(static_cast<int>(send.size()) == p);
  if (p == 1) {
    recv.assign(send.begin(), send.end());
    return;
  }
  const int me = comm.rank();
  const std::uint64_t tag = comm.next_tag_block();
  net::CollScratch& scratch = comm.ctx().coll_scratch;

  // Local rotation: tmp[j] = my value for dest (me + j) mod p. Position j
  // always holds data whose remaining travel distance has exactly the
  // not-yet-processed bits of j.
  std::vector<std::int32_t>& tmp = scratch.bruck_tmp;
  tmp.resize(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j) {
    const std::int64_t v = send[static_cast<std::size_t>((me + j) % p)];
    PMPS_CHECK_MSG(
        v >= std::numeric_limits<std::int32_t>::min() &&
            v <= std::numeric_limits<std::int32_t>::max(),
        "alltoall_counts: value overflows the int32 wire format");
    tmp[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(v);
  }

  std::vector<std::int32_t>& block = scratch.bruck_block;
  std::vector<std::int32_t>& in = scratch.bruck_in;
  for (int k = 0, step = 1; step < p; ++k, step <<= 1) {
    block.clear();
    for (int j = 0; j < p; ++j)
      if ((j & step) != 0) block.push_back(tmp[static_cast<std::size_t>(j)]);
    const int to = (me + step) % p;
    const int from = (me - step + p) % p;
    comm.send<std::int32_t>(to, tag + static_cast<std::uint64_t>(k),
                            std::span<const std::int32_t>(block));
    // The incoming block covers the same index set {j : j & step}, so its
    // size equals ours and it can land in scratch without a size probe.
    in.resize(block.size());
    comm.recv_into<std::int32_t>(from, tag + static_cast<std::uint64_t>(k),
                                 std::span<std::int32_t>(in.data(), in.size()));
    std::size_t idx = 0;
    for (int j = 0; j < p; ++j)
      if ((j & step) != 0) tmp[static_cast<std::size_t>(j)] = in[idx++];
  }

  // Position j now holds the value that travelled j hops, i.e. from rank
  // (me − j) mod p.
  recv.resize(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j)
    recv[static_cast<std::size_t>((me - j + p) % p)] =
        tmp[static_cast<std::size_t>(j)];
}

/// Value-returning wrapper over alltoall_counts_into.
inline std::vector<std::int64_t> alltoall_counts(
    Comm& comm, const std::vector<std::int64_t>& send) {
  std::vector<std::int64_t> recv;
  alltoall_counts_into(
      comm, std::span<const std::int64_t>(send.data(), send.size()), recv);
  return recv;
}

enum class Schedule {
  kDirect,     ///< post all p−1 pairs, empty messages included (mpich-like)
  kOneFactor,  ///< 1-factor pairing [31], empty messages omitted (§7.1)
};

/// Dense alltoallv over one flat send buffer: `sendbuf` holds the per-rank
/// pieces consecutively (piece i, of counts[i] elements, goes to rank i).
/// Returns the received pieces indexed by source rank as a FlatParts view;
/// every piece is received directly into its offset of the one result
/// buffer. The self part is copied locally (copy cost only). Under
/// kOneFactor receive sizes are known to both endpoints after a Bruck
/// counts exchange (charged), mirroring how MPI_Alltoallv callers first
/// alltoall the counts; kDirect posts blind (sizes read off the messages,
/// like mpich's direct algorithm — no counts exchange).
template <Sortable T>
FlatParts<T> alltoallv(Comm& comm, std::span<const T> sendbuf,
                       std::span<const std::int64_t> counts,
                       Schedule sched = Schedule::kOneFactor) {
  const int p = comm.size();
  const int me = comm.rank();
  PMPS_CHECK(static_cast<int>(counts.size()) == p);
  std::vector<std::int64_t> send_off(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i)
    send_off[static_cast<std::size_t>(i) + 1] =
        send_off[static_cast<std::size_t>(i)] +
        counts[static_cast<std::size_t>(i)];
  PMPS_CHECK(send_off[static_cast<std::size_t>(p)] ==
             static_cast<std::int64_t>(sendbuf.size()));
  const auto send_part = [&](int i) {
    return sendbuf.subspan(
        static_cast<std::size_t>(send_off[static_cast<std::size_t>(i)]),
        static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]));
  };

  comm.charge(comm.machine().copy_cost(
      static_cast<std::size_t>(counts[static_cast<std::size_t>(me)]) *
      sizeof(T)));
  if (p == 1) {
    return FlatParts<T>::from_sizes(
        std::vector<T>(sendbuf.begin(), sendbuf.end()), counts);
  }

  if (sched == Schedule::kDirect) {
    const std::uint64_t tag = comm.next_tag_block();
    // Shifted order so PEs do not all start with the same destination.
    for (int i = 1; i < p; ++i) {
      const int dest = (me + i) % p;
      comm.send<T>(dest, tag + static_cast<std::uint64_t>(me),
                   send_part(dest));
    }
    // Sizes are unknown until the messages arrive: hold the raw (pooled)
    // payload buffers, then assemble the flat result in one pass.
    std::vector<net::Message> pending(static_cast<std::size_t>(p));
    for (int i = 1; i < p; ++i) {
      const int src = (me - i + p) % p;
      pending[static_cast<std::size_t>(src)] =
          comm.recv_bytes(src, tag + static_cast<std::uint64_t>(src));
    }
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(p), 0);
    sizes[static_cast<std::size_t>(me)] = counts[static_cast<std::size_t>(me)];
    for (int s = 0; s < p; ++s) {
      if (s == me) continue;
      const auto& payload = pending[static_cast<std::size_t>(s)].payload;
      PMPS_CHECK(payload.size() % sizeof(T) == 0);
      sizes[static_cast<std::size_t>(s)] =
          static_cast<std::int64_t>(payload.size() / sizeof(T));
    }
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
    for (int i = 0; i < p; ++i)
      offsets[static_cast<std::size_t>(i) + 1] =
          offsets[static_cast<std::size_t>(i)] +
          sizes[static_cast<std::size_t>(i)];
    std::vector<T> flat(
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(p)]));
    for (int s = 0; s < p; ++s) {
      T* dst = flat.data() + offsets[static_cast<std::size_t>(s)];
      if (s == me) {
        const auto self = send_part(me);
        std::copy(self.begin(), self.end(), dst);
      } else {
        net::Message& m = pending[static_cast<std::size_t>(s)];
        if (!m.payload.empty())
          std::memcpy(dst, m.payload.data(), m.payload.size());
        comm.release_payload(std::move(m));
      }
    }
    return FlatParts<T>(std::move(flat), std::move(offsets));
  }

  // 1-factor algorithm [31]: p−1 (p even) or p (p odd) rounds of disjoint
  // pairs; rounds where both directions are empty cost nothing.
  std::vector<std::int64_t> out_counts(counts.begin(), counts.end());
  out_counts[static_cast<std::size_t>(me)] = 0;
  const std::vector<std::int64_t> in_counts = alltoall_counts(comm, out_counts);

  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    const std::int64_t sz = i == me ? counts[static_cast<std::size_t>(me)]
                                    : in_counts[static_cast<std::size_t>(i)];
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + sz;
  }
  std::vector<T> flat(
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(p)]));
  {
    const auto self = send_part(me);
    std::copy(self.begin(), self.end(),
              flat.data() + offsets[static_cast<std::size_t>(me)]);
  }

  const std::uint64_t tag = comm.next_tag_block();
  const bool even = (p % 2) == 0;
  const int rounds = even ? p - 1 : p;
  for (int r = 0; r < rounds; ++r) {
    int partner;
    if (even) {
      const int m = p - 1;
      if (me == p - 1) {
        partner =
            static_cast<int>((static_cast<std::int64_t>(r) * (p / 2)) % m);
      } else {
        const int q = ((r - me) % m + m) % m;
        partner = (q == me) ? p - 1 : q;
      }
    } else {
      partner = ((r - me) % p + p) % p;
      if (partner == me) continue;  // idle round
    }
    const auto out = send_part(partner);
    if (!out.empty()) {
      comm.send<T>(partner, tag + static_cast<std::uint64_t>(r), out);
    }
    const std::int64_t in_sz = in_counts[static_cast<std::size_t>(partner)];
    if (in_sz > 0) {
      comm.recv_into<T>(
          partner, tag + static_cast<std::uint64_t>(r),
          std::span<T>(flat.data() + offsets[static_cast<std::size_t>(partner)],
                       static_cast<std::size_t>(in_sz)));
    }
  }
  return FlatParts<T>(std::move(flat), std::move(offsets));
}

// ---------------------------------------------------------------------------
// sparse exchange (NBX-style)
// ---------------------------------------------------------------------------

/// Result of a sparse exchange: one flat buffer holding every received
/// message, indexed by (message, offset) through the FlatParts view, with
/// the source rank of each part alongside. Parts are ordered by source rank
/// and, within a source, by send order.
template <Sortable T>
struct SparseIn {
  FlatParts<T> parts;
  std::vector<int> srcs;  ///< srcs[i] = source rank of parts.part(i)

  int count() const { return parts.parts(); }
};

/// Sink-parameterised sparse all-to-all: identical message sequence (and
/// therefore identical virtual time) to sparse_exchange, but every received
/// payload is handed to `sink(src_rank, std::span<const T>)` in the
/// deterministic receive order — ascending source rank, send order within a
/// source — instead of being appended to one in-memory result buffer. The
/// payload span is only valid during the sink call. The out-of-core
/// delivery path (delivery::deliver_into + em::run_sink) uses this to land
/// incoming pieces directly into run blocks on disk.
///
/// The outgoing pieces arrive as a SendPlan (send_plan.hpp) and leave in
/// plan order, straight out of the plan's flat buffer. Two paths,
/// bit-identical in virtual time, statistics and received bytes:
///   - bulk (the default on a clean network, docs/DESIGN.md §14): no
///     messages at all. Each PE charges its sends, the engine hands every
///     receiver the list of its pieces in one rendezvous, and the sink
///     reads each piece in place from the sender's plan. The closing
///     barrier keeps every plan alive until all receivers are done, even
///     when the run is aborted meanwhile.
///   - messages (a NetworkModel installed): a free-mode Bruck exchange of
///     the Θ(p) counts, then one mailbox message per piece.
/// Both keep their scratch in the PE's CollScratch, so a warm exchange
/// with a reused plan and a non-allocating sink performs zero heap
/// allocations (docs/DESIGN.md §9, asserted by tests/test_alloc.cpp).
template <Sortable T, typename Sink>
void sparse_exchange_into(Comm& comm, const SendPlan<T>& outgoing,
                          Sink&& sink) {
  const int p = comm.size();
  const std::uint64_t tag = comm.next_tag_block();
  net::CollScratch& scratch = comm.ctx().coll_scratch;

  if (comm.engine().coll_ff_enabled()) {
    // Each piece is charged as send_bytes would charge it and stamped with
    // its arrival; the last arriver appends every piece to its receiver's
    // bulk_in, sources in rank order and each in plan order — the message
    // path's receive order.
    scratch.bulk_out.clear();
    for (int i = 0; i < outgoing.pieces(); ++i) {
      const auto piece = std::as_bytes(outgoing.piece(i));
      scratch.bulk_out.push_back(
          {outgoing.dest(i), comm.charge_send(outgoing.dest(i), piece.size()),
           piece});
    }
    comm.rendezvous(net::RendezvousKind::kBulkScatter, [&comm, p] {
      const detail::Replay ff(comm);
      for (int r = 0; r < p; ++r) ff.scratch(r).bulk_in.clear();
      for (int src = 0; src < p; ++src)
        for (const net::BulkPiece& piece : ff.scratch(src).bulk_out)
          ff.scratch(piece.rank).bulk_in.push_back(
              {src, piece.arrival, piece.payload});
    });
    // From here on other PEs read this PE's plan, and this PE reads
    // theirs, until the closing barrier returns. So nothing may unwind
    // before it: a sink's exception waits for the barrier (caught here,
    // never parked on), and an abort is only reported by the barrier once
    // every member has arrived.
    std::exception_ptr failed;
    try {
      for (const net::BulkPiece& piece : scratch.bulk_in) {
        comm.charge_recv(piece.rank, piece.payload.size(), piece.arrival);
        sink(piece.rank,
             std::span<const T>(
                 reinterpret_cast<const T*>(piece.payload.data()),
                 piece.payload.size() / sizeof(T)));
      }
    } catch (...) {
      failed = std::current_exception();
    }
    const bool aborted =
        p > 1 && detail::ff_barrier(comm, net::RendezvousKind::kBulkClose);
    if (failed) std::rethrow_exception(failed);
    if (aborted) throw net::RunAborted{};
    return;
  }

  // --- message path: free-mode dense Bruck counts exchange ------------------
  std::vector<std::int64_t>& in_count = scratch.counts_in;
  {
    net::FreeModeGuard free_guard(comm.ctx());
    std::vector<std::int64_t>& out_count = scratch.counts_out;
    out_count.assign(static_cast<std::size_t>(p), 0);
    for (int i = 0; i < outgoing.pieces(); ++i)
      out_count[static_cast<std::size_t>(outgoing.dest(i))] += 1;
    alltoall_counts_into(
        comm, std::span<const std::int64_t>(out_count.data(), out_count.size()),
        in_count);
  }

  // --- charged: the real messages ------------------------------------------
  std::vector<std::int64_t>& seq_per_dest = scratch.seq_per_dest;
  seq_per_dest.assign(static_cast<std::size_t>(p), 0);
  for (int i = 0; i < outgoing.pieces(); ++i) {
    const int dest = outgoing.dest(i);
    const auto k = static_cast<std::uint64_t>(
        seq_per_dest[static_cast<std::size_t>(dest)]++);
    comm.send<T>(dest, tag + k, outgoing.piece(i));
  }

  for (int src = 0; src < p; ++src) {
    for (std::int64_t k = 0; k < in_count[static_cast<std::size_t>(src)];
         ++k) {
      net::Message m = comm.recv_bytes(src, tag + static_cast<std::uint64_t>(k));
      PMPS_CHECK(m.payload.size() % sizeof(T) == 0);
      sink(src,
           std::span<const T>(reinterpret_cast<const T*>(m.payload.data()),
                              m.payload.size() / sizeof(T)));
      comm.release_payload(std::move(m));
    }
  }

  // Termination detection (NBX ibarrier), charged.
  barrier(comm);
}

/// Sparse all-to-all: each PE sends an arbitrary set of messages; receivers
/// do not know the senders in advance. Mirrors the NBX algorithm (dynamic
/// sparse data exchange): only the actual messages are charged, plus a
/// Θ(α log p) termination-detection barrier. The sender/receiver sets are
/// resolved out of band (uncharged), which is what NBX's speculative
/// receive loop achieves on a real machine.
///
/// Every received payload is appended to one flat result buffer (no
/// per-message vector), so the host-time cost is O(messages) appends plus
/// O(1) allocations. (This is sparse_exchange_into with the flat-buffer
/// sink.)
template <Sortable T>
SparseIn<T> sparse_exchange(Comm& comm, const SendPlan<T>& outgoing) {
  SparseIn<T> in;
  std::vector<T> flat;
  std::vector<std::int64_t> offsets{0};
  sparse_exchange_into<T>(comm, outgoing,
                          [&](int src, std::span<const T> piece) {
                            flat.insert(flat.end(), piece.begin(), piece.end());
                            offsets.push_back(
                                static_cast<std::int64_t>(flat.size()));
                            in.srcs.push_back(src);
                          });
  in.parts = FlatParts<T>(std::move(flat), std::move(offsets));
  return in;
}

}  // namespace pmps::coll
