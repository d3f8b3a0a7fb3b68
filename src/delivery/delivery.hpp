// Data delivery (paper §4.3, §4.3.1 and Appendix A).
//
// Each PE holds its local data partitioned into r consecutive pieces; piece
// g must be moved to PE group g (ranks [g·p/r, (g+1)·p/r)), and every PE of
// a group must receive (nearly) the same amount of data using only O(r)
// message startups per PE. Four algorithms:
//
//  kSimple          — plain vector-valued prefix sum over piece sizes;
//                     element j of group g goes to the ⌈j/(m_g/p')⌉-th PE of
//                     the group. O(2r) sends per PE, but adversarial inputs
//                     (many consecutive senders with tiny pieces, Fig. 3 top)
//                     can concentrate Ω(p) *received* messages on one PE.
//  kRandomized      — the prefix sum enumerates senders in pseudorandom
//                     order (Feistel permutation, Appendix B), breaking the
//                     consecutive-tiny-pieces pattern (Fig. 3 bottom).
//                     (The paper permutes per group; we use one global
//                     sender permutation, which breaks the same adversarial
//                     correlation with a single reordered prefix sum.)
//  kDeterministic   — the two-phase algorithm of §4.3.1 (Theorem 1): small
//                     pieces (≤ n/2pr) are assigned whole, r per receiver;
//                     large pieces are placed into the residual capacities
//                     by merging two prefix-sum sequences. Receivers get
//                     ≤ r small + ≤ 2r large pieces: O(r) startups
//                     guaranteed. (The group-internal merge is performed as
//                     an allgather of O(p) descriptors per group plus an
//                     identical local merge, replacing the Batcher-network
//                     merge of [15]; the assignment produced is the same —
//                     see docs/DESIGN.md §2.)
//  kAdvancedRandomized — Appendix A (Theorem 4): pieces larger than
//                     s = a·n/(rp) are chopped into size-s fragments that
//                     are *delegated* to pseudorandom PEs for enumeration;
//                     origins are notified of their fragments' position
//                     ranges and ship data directly. With high probability
//                     ≤ 1 + 2r(1+1/a) received messages per PE.
//
// Every algorithm is split into a *placer* and a *materialiser*. The placer
// (place_simple / place_deterministic / place_advanced) runs all of the
// algorithm's control communication — prefix sums, descriptor exchanges,
// delegations — and returns the outgoing data messages as a list of
// Placements: (dest, offset, len) fragments of the local partition's
// *content*, in emission order. Placers never touch elements, so they are
// non-template code shared by every element type AND every storage mode.
// The materialiser turns placements into one coll::SendPlan either from an
// in-memory span (plan_delivery) or block-by-block from a spilled
// em::RunStore (plan_delivery_from_store) — the same placements, sliced in
// the same order, produce byte-identical plans, which is what makes the
// spilled AMS classification path bit-identical to the in-memory one.
//
// All variants ship payloads with coll::sparse_exchange, so their startup
// guarantees are directly observable in the simulator's message statistics
// (tests assert them).
//
// Unreliable networks (net/network_model.hpp, docs/DESIGN.md §10): when a
// lossy NetworkModel is installed, every point-to-point send underneath
// these exchanges runs a stop-and-wait ack/retransmit protocol at the send
// site. The delivery layer is deliberately oblivious to it: exactly one
// copy of each message reaches the destination mailbox (duplicates are
// suppressed by the transport), deposits stay in sender program order so
// per-key FIFO matching — which the piece/fragment sequencing here relies
// on — is preserved, and retry exhaustion aborts the run with a
// NetworkError instead of wedging a receiver. Loss and jitter therefore
// change *virtual time* (and the retransmit counters in CommStats), never
// the delivered assignment.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "em/run_store.hpp"
#include "net/comm.hpp"
#include "prng/feistel.hpp"

namespace pmps::delivery {

using net::Comm;

enum class Algo {
  kSimple,              ///< prefix-sum placement (§4.3); adversarial worst case Ω(p) recvs
  kRandomized,          ///< prefix sum over a pseudorandom sender order (§4.3, App. B)
  kDeterministic,       ///< two-phase small/large assignment of §4.3.1, O(r) recvs guaranteed
  kAdvancedRandomized,  ///< fragment-and-delegate scheme of Appendix A (Theorem 4)
};

/// Human-readable name for tables and test failure messages.
inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kSimple: return "simple";
    case Algo::kRandomized: return "randomized";
    case Algo::kDeterministic: return "deterministic";
    case Algo::kAdvancedRandomized: return "advanced-randomized";
  }
  return "?";
}

/// One outgoing data fragment, produced by a placer: `len` elements
/// starting at content offset `offset` of the local partition (pieces
/// concatenated in group order), shipped to rank `dest`. Placements are
/// emitted in send order — materialising them in sequence reproduces the
/// exact piece sequence (and thus message sequence) of the algorithm.
struct Placement {
  std::int32_t dest;
  std::int64_t offset;
  std::int64_t len;
};

namespace detail {

/// Chunk index of position `pos` when [0, m) is split into `parts` chunks
/// via chunk_begin (first m%parts chunks one element larger).
inline std::int64_t chunk_of(std::int64_t m, std::int64_t parts,
                             std::int64_t pos) {
  PMPS_ASSERT(pos >= 0 && pos < m);
  const std::int64_t base = m / parts;
  const std::int64_t rem = m % parts;
  if (base == 0) return pos;  // chunks of size 1 then 0
  const std::int64_t big_span = rem * (base + 1);
  if (pos < big_span) return pos / (base + 1);
  return rem + (pos - big_span) / base;
}

/// Emits placements for one contiguous fragment of local content
/// ([base, base + len)) occupying positions [pos, pos + len) of group g's
/// stream of m elements, split across the group's p_prime receivers by
/// chunk boundaries. Each chunk becomes one placement (= one plan piece).
inline void emit_piece(std::int64_t base, std::int64_t len, int group,
                       std::int64_t pos, std::int64_t m, std::int64_t p_prime,
                       std::vector<Placement>& out) {
  std::int64_t done = 0;
  while (done < len) {
    const std::int64_t q = chunk_of(m, p_prime, pos + done);
    const std::int64_t q_end = chunk_begin(m, p_prime, q + 1);
    const std::int64_t take = std::min(len - done, q_end - (pos + done));
    PMPS_ASSERT(take > 0);
    const int dest =
        group * static_cast<int>(p_prime) + static_cast<int>(q);
    out.push_back(Placement{dest, base + done, take});
    done += take;
  }
}

/// Prefix offsets of the local pieces within the local data span.
inline std::vector<std::int64_t> local_offsets(
    const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> off(sizes.size() + 1, 0);
  for (std::size_t i = 0; i < sizes.size(); ++i) off[i + 1] = off[i] + sizes[i];
  return off;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// simple & randomized
// ---------------------------------------------------------------------------

/// kSimple / kRandomized: one vector-valued prefix sum over the piece sizes
/// (in PE order or in a Feistel-permuted sender order) places every element
/// at a global position in its group's stream; chunk boundaries map
/// positions to receivers. O(2r) sends per PE.
inline std::vector<Placement> place_simple(
    Comm& comm, const std::vector<std::int64_t>& piece_sizes,
    bool permute_senders, std::uint64_t seed) {
  const int p = comm.size();
  const int r = static_cast<int>(piece_sizes.size());
  PMPS_CHECK(r >= 1 && p % r == 0);
  const std::int64_t p_prime = p / r;

  std::vector<std::int64_t> off;
  if (!permute_senders) {
    off = coll::exscan_add(comm, piece_sizes);
  } else {
    // Enumerate senders in pseudorandom order: run the prefix sum on a
    // communicator whose ranks are permuted by a Feistel PRP (replicated
    // state, no communication needed to agree on it — Appendix B).
    prng::FeistelPermutation perm(static_cast<std::uint64_t>(p), seed);
    Comm permuted = comm.split(
        0, static_cast<int>(perm(static_cast<std::uint64_t>(comm.rank()))));
    off = coll::exscan_add(permuted, piece_sizes);
  }
  const auto m = coll::allreduce_add(comm, piece_sizes);

  const auto loc = detail::local_offsets(piece_sizes);
  std::vector<Placement> out;
  for (int g = 0; g < r; ++g) {
    if (piece_sizes[static_cast<std::size_t>(g)] == 0) continue;
    detail::emit_piece(loc[static_cast<std::size_t>(g)],
                       piece_sizes[static_cast<std::size_t>(g)], g,
                       off[static_cast<std::size_t>(g)],
                       m[static_cast<std::size_t>(g)], p_prime, out);
  }

  return out;
}

// ---------------------------------------------------------------------------
// deterministic two-phase (§4.3.1)
// ---------------------------------------------------------------------------

namespace detail {

struct PieceDesc {
  std::int32_t sender;  ///< comm rank of the owner
  std::int32_t group;
  std::int64_t size;
};

/// Assignment of one (possibly split) piece fragment.
struct FragmentAssign {
  std::int32_t group;
  std::int64_t piece_offset;  ///< offset within the sender's piece
  std::int64_t len;
  std::int32_t dest;  ///< comm rank to ship to
};

}  // namespace detail

/// kDeterministic (§4.3.1): small pieces (≤ n/2pr) are assigned whole,
/// ≤ r per receiver; large pieces fill the residual capacities. Every
/// receiver gets O(r) messages regardless of the piece-size distribution.
inline std::vector<Placement> place_deterministic(
    Comm& comm, const std::vector<std::int64_t>& piece_sizes) {
  using detail::PieceDesc;
  const int p = comm.size();
  const int r = static_cast<int>(piece_sizes.size());
  PMPS_CHECK(r >= 1 && p % r == 0);
  const std::int64_t p_prime = p / r;
  const int my_group = comm.rank() / static_cast<int>(p_prime);

  const auto m = coll::allreduce_add(comm, piece_sizes);
  std::int64_t n_total = 0;
  for (auto v : m) n_total += v;
  // Threshold between small and large pieces: n/(2pr).
  const std::int64_t small_limit =
      std::max<std::int64_t>(1, n_total / (2 * static_cast<std::int64_t>(p) *
                                           static_cast<std::int64_t>(r)));

  // Send every piece's descriptor to PE ⌊sender/r⌋ of its target group —
  // the Exch(p, O(r), r) descriptor exchange of §4.3.1. (Pieces of size 0
  // are ignored entirely.)
  coll::SendPlan<PieceDesc> desc_out;
  for (int g = 0; g < r; ++g) {
    if (piece_sizes[static_cast<std::size_t>(g)] == 0) continue;
    const int within = comm.rank() / r;  // ⌊i/r⌋, capped to the group size
    const int holder =
        g * static_cast<int>(p_prime) +
        std::min<int>(within, static_cast<int>(p_prime) - 1);
    desc_out.begin_piece(holder);
    desc_out.push_back(
        PieceDesc{comm.rank(), g, piece_sizes[static_cast<std::size_t>(g)]});
  }
  auto desc_in = coll::sparse_exchange(comm, desc_out);

  // Group-internal: allgather the descriptors so every member can compute
  // the identical assignment (replaces the Batcher-network merge of [15]).
  // The sparse result is already one flat descriptor buffer, and the
  // allgather result's concatenation is exactly the piece list.
  Comm group = comm.split_consecutive(r);
  std::vector<PieceDesc> pieces =
      coll::allgatherv(group, desc_in.parts.flat()).take_flat();
  // Deterministic order: by sender rank (each sender has ≤ 1 piece/group).
  std::sort(pieces.begin(), pieces.end(),
            [](const PieceDesc& a, const PieceDesc& b) {
              return a.sender < b.sender;
            });
  comm.charge(comm.machine().compare_cost_n(
      static_cast<std::int64_t>(pieces.size()) *
      ceil_log2(std::max<std::uint64_t>(pieces.size(), 2))));

  // --- identical local computation of the assignment for `my_group` -------
  const std::int64_t mg = m[static_cast<std::size_t>(my_group)];
  std::vector<detail::FragmentAssign> assigns;  // for pieces of my group
  {
    // Phase 1: small pieces, numbered in sender order; small piece i goes
    // whole to PE ⌊i/r⌋ of the group.
    std::vector<std::int64_t> small_load(static_cast<std::size_t>(p_prime), 0);
    std::int64_t small_idx = 0;
    for (const auto& pc : pieces) {
      if (pc.size > small_limit) continue;
      const auto q = static_cast<std::size_t>(
          std::min<std::int64_t>(small_idx / r, p_prime - 1));
      small_load[q] += pc.size;
      assigns.push_back(detail::FragmentAssign{
          pc.group, 0, pc.size,
          my_group * static_cast<int>(p_prime) + static_cast<int>(q)});
      ++small_idx;
    }
    // Phase 2: large pieces into residual capacities, in sender order. The
    // merge of capacity prefix sums (X) and piece-size prefix sums (Y) is
    // realised by walking receivers and pieces simultaneously.
    std::vector<std::int64_t> residual(static_cast<std::size_t>(p_prime));
    for (std::int64_t q = 0; q < p_prime; ++q) {
      const std::int64_t quota =
          chunk_begin(mg, p_prime, q + 1) - chunk_begin(mg, p_prime, q);
      residual[static_cast<std::size_t>(q)] =
          std::max<std::int64_t>(0, quota - small_load[static_cast<std::size_t>(q)]);
    }
    std::int64_t q = 0;
    for (const auto& pc : pieces) {
      if (pc.size <= small_limit) continue;
      std::int64_t remaining = pc.size;
      std::int64_t piece_off = 0;
      while (remaining > 0) {
        PMPS_CHECK_MSG(q < p_prime, "capacity accounting broke");
        const std::int64_t take =
            std::min(remaining, residual[static_cast<std::size_t>(q)]);
        if (take > 0) {
          assigns.push_back(detail::FragmentAssign{
              pc.group, piece_off, take,
              my_group * static_cast<int>(p_prime) + static_cast<int>(q)});
          residual[static_cast<std::size_t>(q)] -= take;
          remaining -= take;
          piece_off += take;
        }
        if (residual[static_cast<std::size_t>(q)] == 0 && remaining > 0) ++q;
      }
    }
  }
  comm.charge(comm.machine().compare_cost_n(
      static_cast<std::int64_t>(pieces.size() + assigns.size())));

  // Reply the assignments to the senders (only fragments of *their* pieces).
  coll::SendPlan<detail::FragmentAssign> reply_out;
  {
    // Each member replies for the pieces whose descriptor it held; we know
    // which ones: sender/r == my rank-within-group (same mapping as above).
    const int my_within = group.rank();
    std::size_t ai = 0;
    // Walk pieces twice in the same order as assignment generation: smalls
    // then larges.
    std::vector<const PieceDesc*> order;
    for (const auto& pc : pieces)
      if (pc.size <= small_limit) order.push_back(&pc);
    for (const auto& pc : pieces)
      if (pc.size > small_limit) order.push_back(&pc);
    for (const PieceDesc* pc : order) {
      const int holder_within =
          std::min<int>(pc->sender / r, static_cast<int>(p_prime) - 1);
      const bool mine = holder_within == my_within;
      if (mine) reply_out.begin_piece(pc->sender);
      std::int64_t covered = 0;
      while (covered < pc->size) {
        PMPS_CHECK(ai < assigns.size());
        if (mine) reply_out.push_back(assigns[ai]);
        covered += assigns[ai].len;
        ++ai;
      }
      PMPS_CHECK(covered == pc->size);
    }
    PMPS_CHECK(ai == assigns.size());
  }
  auto replies = coll::sparse_exchange(comm, reply_out);

  // Ship the data: each assigned fragment is one placement, sliced out of
  // the local partition content at materialisation time.
  const auto loc = detail::local_offsets(piece_sizes);
  std::vector<Placement> out;
  for (const auto& f : replies.parts.flat()) {
    out.push_back(Placement{
        f.dest, loc[static_cast<std::size_t>(f.group)] + f.piece_offset,
        f.len});
  }
  return out;
}

// ---------------------------------------------------------------------------
// advanced randomized (Appendix A)
// ---------------------------------------------------------------------------

namespace detail {

struct Delegation {
  std::int32_t origin;        ///< comm rank owning the data
  std::int32_t group;
  std::int64_t piece_offset;  ///< offset of the fragment within the piece
  std::int64_t size;
};

struct RangeReply {
  std::int32_t group;
  std::int64_t piece_offset;
  std::int64_t size;
  std::int64_t position;  ///< start position in the group's stream
};

}  // namespace detail

/// kAdvancedRandomized (Appendix A, Theorem 4): pieces above the fragment
/// threshold are chopped and delegated to pseudorandomly chosen proxies so
/// that whp no receiver sees more than O(r) messages, without the barrier
/// structure of the deterministic scheme.
inline std::vector<Placement> place_advanced(
    Comm& comm, const std::vector<std::int64_t>& piece_sizes,
    std::uint64_t seed) {
  using detail::Delegation;
  using detail::RangeReply;
  const int p = comm.size();
  const int r = static_cast<int>(piece_sizes.size());
  PMPS_CHECK(r >= 1 && p % r == 0);
  const std::int64_t p_prime = p / r;

  const auto m = coll::allreduce_add(comm, piece_sizes);
  std::int64_t n_total = 0;
  for (auto v : m) n_total += v;

  // Fragment size limit s = a·n/(rp) with a = Θ(√(r / ln rp)) (Lemma 6).
  const double ln_rp = std::log(std::max<double>(
      static_cast<double>(r) * static_cast<double>(p), 2.0));
  const double a_tune = std::max(
      1.0, 0.5 * (std::sqrt(1.0 + static_cast<double>(r) / ln_rp) - 1.0));
  const std::int64_t s = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             a_tune * static_cast<double>(n_total) /
             (static_cast<double>(r) * static_cast<double>(p))));

  // Chop pieces: fragments of exactly size s are "large" (delegated); the
  // remainder (< s) stays home.
  struct LocalFrag {
    std::int32_t group;
    std::int64_t piece_offset;
    std::int64_t size;
    bool large;
  };
  std::vector<LocalFrag> frags;
  std::vector<std::int64_t> my_large_count(1, 0);
  for (int g = 0; g < r; ++g) {
    const std::int64_t sz = piece_sizes[static_cast<std::size_t>(g)];
    std::int64_t off = 0;
    while (sz - off >= s && sz > s) {  // only pieces exceeding s are chopped
      frags.push_back(LocalFrag{g, off, s, true});
      my_large_count[0] += 1;
      off += s;
    }
    if (sz - off > 0)
      frags.push_back(LocalFrag{g, off, sz - off, false});
  }

  // Enumerate large fragments globally and delegate via a Feistel PRP.
  const std::int64_t my_first_large =
      coll::exscan_add(comm, my_large_count)[0];
  const std::int64_t total_large =
      coll::allreduce_add(comm, my_large_count)[0];
  prng::FeistelPermutation perm(
      static_cast<std::uint64_t>(std::max<std::int64_t>(total_large, 1)),
      seed ^ 0xde1e6a7eULL);

  coll::SendPlan<Delegation> delegate_out;
  {
    std::int64_t idx = my_first_large;
    for (const auto& f : frags) {
      if (!f.large) continue;
      const int delegate = static_cast<int>(
          perm(static_cast<std::uint64_t>(idx)) % static_cast<std::uint64_t>(p));
      delegate_out.begin_piece(delegate);
      delegate_out.push_back(
          Delegation{comm.rank(), f.group, f.piece_offset, f.size});
      ++idx;
    }
  }
  auto delegated = coll::sparse_exchange(comm, delegate_out);

  // Per-group contribution of this PE: its own small fragments plus the
  // delegated large fragments it now administers. (The paper additionally
  // shuffles the local order; sizes are what matters for the prefix sum.)
  std::vector<std::int64_t> contrib(static_cast<std::size_t>(r), 0);
  for (const auto& f : frags)
    if (!f.large) contrib[static_cast<std::size_t>(f.group)] += f.size;
  for (const auto& d : delegated.parts.flat())
    contrib[static_cast<std::size_t>(d.group)] += d.size;

  auto positions = coll::exscan_add(comm, contrib);

  // Assign position ranges: first own small fragments, then delegated ones;
  // notify origins of their ranges.
  std::vector<RangeReply> my_small_ranges;
  coll::SendPlan<RangeReply> reply_out;
  {
    std::vector<std::int64_t> cursor = positions;
    for (const auto& f : frags) {
      if (f.large) continue;
      my_small_ranges.push_back(RangeReply{
          f.group, f.piece_offset, f.size,
          cursor[static_cast<std::size_t>(f.group)]});
      cursor[static_cast<std::size_t>(f.group)] += f.size;
    }
    for (const auto& d : delegated.parts.flat()) {
      reply_out.begin_piece(d.origin);
      reply_out.push_back(RangeReply{d.group, d.piece_offset, d.size,
                                     cursor[static_cast<std::size_t>(d.group)]});
      cursor[static_cast<std::size_t>(d.group)] += d.size;
    }
  }
  auto range_replies = coll::sparse_exchange(comm, reply_out);

  // Ship data: own small fragments plus replied large fragments.
  const auto loc = detail::local_offsets(piece_sizes);
  std::vector<Placement> out;
  auto emit = [&](const RangeReply& rr) {
    detail::emit_piece(
        loc[static_cast<std::size_t>(rr.group)] + rr.piece_offset, rr.size,
        rr.group, rr.position, m[static_cast<std::size_t>(rr.group)], p_prime,
        out);
  };
  for (const auto& rr : my_small_ranges) emit(rr);
  for (const auto& rr : range_replies.parts.flat()) emit(rr);

  return out;
}

// ---------------------------------------------------------------------------
// dispatcher & materialisers
// ---------------------------------------------------------------------------

/// Runs the chosen algorithm's planning communication and returns the
/// outgoing data messages as placements in send order (collective; every
/// PE must call it). Element-type-independent: all four algorithms'
/// control plane only ever looks at piece *sizes*.
inline std::vector<Placement> place_delivery(
    Comm& comm, const std::vector<std::int64_t>& piece_sizes, Algo algo,
    std::uint64_t seed) {
  switch (algo) {
    case Algo::kSimple:
      return place_simple(comm, piece_sizes, false, seed);
    case Algo::kRandomized:
      return place_simple(comm, piece_sizes, true, seed);
    case Algo::kDeterministic:
      return place_deterministic(comm, piece_sizes);
    case Algo::kAdvancedRandomized:
      return place_advanced(comm, piece_sizes, seed);
  }
  PMPS_CHECK(false);
  return {};
}

/// Materialises placements from an in-memory partition: `data` holds r
/// consecutive pieces of sizes `piece_sizes` (piece g destined for group
/// g). Returns the outgoing messages as one flat SendPlan — a flat element
/// buffer plus (dest, offset) piece descriptors, the send-side mirror of
/// FlatParts. Pieces are written straight into the flat buffer, so
/// planning costs O(1) allocations instead of one heap vector per piece
/// (docs/DESIGN.md §9).
template <typename T>
coll::SendPlan<T> plan_delivery(
    Comm& comm, std::span<const T> data,
    const std::vector<std::int64_t>& piece_sizes, Algo algo,
    std::uint64_t seed) {
  std::int64_t sum = 0;
  for (auto v : piece_sizes) sum += v;
  PMPS_CHECK(sum == static_cast<std::int64_t>(data.size()));
  coll::SendPlan<T> out;
  for (const auto& pl : place_delivery(comm, piece_sizes, algo, seed)) {
    out.add(pl.dest, data.subspan(static_cast<std::size_t>(pl.offset),
                                  static_cast<std::size_t>(pl.len)));
  }
  return out;
}

/// Materialises placements from a *spilled* partition: the store's content
/// (runs concatenated) is the r consecutive pieces. Each placement is read
/// back one block at a time into the plan's flat buffer, so the host never
/// holds the partition AND the plan at once — the peak is the plan plus
/// one block. Identical placements sliced in identical order make the plan
/// byte-identical to plan_delivery over take_all().
template <Sortable T>
coll::SendPlan<T> plan_delivery_from_store(
    Comm& comm, em::RunStore<T>& store,
    const std::vector<std::int64_t>& piece_sizes, Algo algo,
    std::uint64_t seed) {
  std::int64_t sum = 0;
  for (auto v : piece_sizes) sum += v;
  PMPS_CHECK(sum == store.total());
  coll::SendPlan<T> out;
  std::vector<T> buf = store.acquire_buffer();
  for (const auto& pl : place_delivery(comm, piece_sizes, algo, seed)) {
    out.begin_piece(pl.dest);
    for (std::int64_t off = 0; off < pl.len;
         off += store.elems_per_block()) {
      const std::int64_t len = std::min(store.elems_per_block(), pl.len - off);
      std::span<T> chunk(buf.data(), static_cast<std::size_t>(len));
      store.read_range(pl.offset + off, chunk);
      out.append(chunk);
    }
  }
  store.release_buffer(std::move(buf));
  return out;
}

/// Common entry: plan + ship with coll::sparse_exchange. Returns the
/// received runs as one FlatParts buffer — part i is a contiguous fragment
/// of some sender's piece (if the sender's data was sorted, each run is
/// sorted); take_flat() hands the concatenation over without a copy.
template <typename T>
coll::FlatParts<T> deliver(Comm& comm, std::span<const T> data,
                           const std::vector<std::int64_t>& piece_sizes,
                           Algo algo, std::uint64_t seed = 1) {
  return coll::sparse_exchange(comm,
                               plan_delivery(comm, data, piece_sizes, algo,
                                             seed))
      .parts;
}

/// Spill-mode entry: identical planning and message sequence to deliver(),
/// but each received piece is handed to `sink(src_rank, span)` in receive
/// order instead of being assembled into one FlatParts buffer. With
/// em::run_sink the pieces land directly in run blocks on disk; the
/// sorters' out-of-core paths (docs/EM.md) go through here.
template <typename T, typename Sink>
void deliver_into(Comm& comm, std::span<const T> data,
                  const std::vector<std::int64_t>& piece_sizes, Algo algo,
                  std::uint64_t seed, Sink&& sink) {
  coll::sparse_exchange_into(
      comm, plan_delivery(comm, data, piece_sizes, algo, seed),
      std::forward<Sink>(sink));
}

/// Spill-to-spill delivery: the outgoing partition lives in `source` (read
/// back block-wise for the plan), the received pieces land in `sink`.
/// Same messages, same virtual time as the in-memory deliver().
template <Sortable T, typename Sink>
void deliver_store_into(Comm& comm, em::RunStore<T>& source,
                        const std::vector<std::int64_t>& piece_sizes,
                        Algo algo, std::uint64_t seed, Sink&& sink) {
  coll::sparse_exchange_into(
      comm, plan_delivery_from_store(comm, source, piece_sizes, algo, seed),
      std::forward<Sink>(sink));
}

/// Delivery for sorters that consume the received runs *concatenated*
/// (AMS, GV): returns the concatenation, landing the pieces in run blocks
/// first whenever `source` exceeds the budget — in that case `source` is
/// released before the read-back, bounding the phase's peak. Both branches
/// exchange identical messages and return identical bytes.
template <typename T>
std::vector<T> deliver_flat(Comm& comm, std::vector<T>& source,
                            const std::vector<std::int64_t>& piece_sizes,
                            Algo algo, std::uint64_t seed,
                            const em::MemoryBudget& budget) {
  const std::span<const T> data(source.data(), source.size());
  if (budget.should_spill(static_cast<std::int64_t>(data.size_bytes()))) {
    em::RunStore<T> store(budget);
    deliver_into(comm, data, piece_sizes, algo, seed, em::run_sink(store));
    std::vector<T>().swap(source);
    return store.take_all();
  }
  return std::move(deliver(comm, data, piece_sizes, algo, seed)).take_flat();
}

}  // namespace pmps::delivery
