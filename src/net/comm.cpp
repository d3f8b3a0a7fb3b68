#include "net/comm.hpp"

#include <algorithm>
#include <cstring>

#include "common/math.hpp"

namespace pmps::net {

namespace {

struct SplitEntry {
  int color;
  int key;
  int parent_rank;
  int global_pe;
};

}  // namespace

Comm::Comm(Engine* engine, int pe)
    : engine_(engine),
      ctx_(&engine->pe_context(pe)),
      // All p world communicators alias the engine's one member vector —
      // a per-PE copy would be Θ(p²) bytes across the machine (4 GB at
      // p = 2^15).
      members_(engine->world_members()),
      rank_(pe),
      // The engine's job namespace: 1 standalone, a per-job odd id under a
      // SortService. Every sub-communicator id chains off this root, so
      // concurrent jobs' mailbox keys and rendezvous cells never collide.
      comm_id_(engine->world_comm_id()) {}

Comm::Comm(Engine* engine, PeContext* ctx,
           std::shared_ptr<const std::vector<int>> members, int rank,
           std::uint64_t comm_id)
    : engine_(engine),
      ctx_(ctx),
      members_(std::move(members)),
      rank_(rank),
      comm_id_(comm_id) {}

double Comm::charge_send(int dest_rank, std::size_t bytes) {
  PMPS_CHECK(dest_rank >= 0 && dest_rank < size());
  const int dest_pe = member(dest_rank);
  return engine_->charge_send(
      *ctx_, machine().level_between(ctx_->pe, dest_pe), dest_pe, bytes);
}

void Comm::charge_recv(int src_rank, std::size_t bytes, double arrival) {
  const int src_pe = member(src_rank);
  engine_->charge_recv(*ctx_, machine().level_between(ctx_->pe, src_pe),
                       bytes, arrival);
}

void Comm::send_bytes(int dest_rank, std::uint64_t tag,
                      std::span<const std::byte> payload) {
  Message msg;
  msg.comm_id = comm_id_;
  msg.tag = tag;
  msg.src_pe = ctx_->pe;
  msg.arrival = charge_send(dest_rank, payload.size_bytes());
  const int dest_pe = member(dest_rank);
  msg.payload = engine_->buffer_pool(dest_pe).acquire(payload.size_bytes());
  msg.payload.assign(payload.begin(), payload.end());
  engine_->deposit_message(dest_pe, std::move(msg));
}

Message Comm::recv_bytes(int src_rank, std::uint64_t tag) {
  PMPS_CHECK(src_rank >= 0 && src_rank < size());
  Message m = engine_->retrieve_message(
      *ctx_, MsgKey{comm_id_, tag, member(src_rank)});
  charge_recv(src_rank, m.payload.size(), m.arrival);
  return m;
}

void Comm::release_payload(Message&& m) {
  // We are the destination: the buffer goes back to the shard the sender
  // acquired it from (buffers never migrate between shards).
  engine_->buffer_pool(ctx_->pe).release(std::move(m.payload));
}

Comm Comm::split(int color, int key) {
  // Communicator construction is treated as precomputation (§7.1): run the
  // exchange in free mode (not charged to virtual time).
  FreeModeGuard free_guard(*ctx_);

  const std::uint64_t gtag = next_tag_block();
  const std::uint64_t btag = next_tag_block();
  const int p = size();

  // Binomial-tree gather of (color, key, rank) to rank 0.
  std::vector<SplitEntry> table;
  table.push_back({color, key, rank_, ctx_->pe});
  for (int step = 1; step < p; step <<= 1) {
    if ((rank_ & step) != 0) {
      send<SplitEntry>(rank_ - step, gtag + static_cast<std::uint64_t>(rank_),
                       std::span<const SplitEntry>(table));
      break;
    }
    if (rank_ + step < p) {
      auto part = recv<SplitEntry>(
          rank_ + step, gtag + static_cast<std::uint64_t>(rank_ + step));
      table.insert(table.end(), part.begin(), part.end());
    }
  }

  // Binomial-tree broadcast of the full table from rank 0.
  const std::uint64_t top = next_pow2(static_cast<std::uint64_t>(p));
  const std::uint64_t lowbit =
      rank_ == 0 ? top : static_cast<std::uint64_t>(rank_ & -rank_);
  if (rank_ != 0) {
    table = recv<SplitEntry>(rank_ - static_cast<int>(lowbit),
                             btag + static_cast<std::uint64_t>(rank_));
  }
  for (std::uint64_t m = lowbit >> 1; m >= 1; m >>= 1) {
    const int child = rank_ + static_cast<int>(m);
    if (child < p) {
      send<SplitEntry>(child, btag + static_cast<std::uint64_t>(child),
                       std::span<const SplitEntry>(table));
    }
    if (m == 1) break;
  }

  // Build the member list for our color, ordered by (key, parent rank).
  std::vector<SplitEntry> mine;
  for (const auto& e : table)
    if (e.color == color) mine.push_back(e);
  std::sort(mine.begin(), mine.end(), [](const auto& a, const auto& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.parent_rank < b.parent_rank;
  });

  auto members = std::make_shared<std::vector<int>>();
  members->reserve(mine.size());
  int new_rank = -1;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    members->push_back(mine[i].global_pe);
    if (mine[i].global_pe == ctx_->pe) new_rank = static_cast<int>(i);
  }
  PMPS_CHECK_MSG(new_rank >= 0, "calling PE must be in its own color group");

  const std::uint64_t child_id =
      mix64(comm_id_ * 0x9e3779b97f4a7c15ULL + btag + 0x51ed2701ULL +
            static_cast<std::uint64_t>(color + 1) * 0x100000001b3ULL);

  return Comm(engine_, ctx_, std::move(members), new_rank, child_id);
}

Comm Comm::split_strided(int first, int stride, int count) {
  PMPS_CHECK(first >= 0 && stride >= 1 && count >= 1);
  PMPS_CHECK(static_cast<std::int64_t>(first) +
                 static_cast<std::int64_t>(count - 1) * stride <
             size());
  const int offset = rank_ - first;
  PMPS_CHECK_MSG(offset >= 0 && offset % stride == 0 &&
                     offset / stride < count,
                 "calling PE must be in its own slice");

  const std::uint64_t tag = next_tag_block();
  auto members = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k)
    (*members)[static_cast<std::size_t>(k)] = member(first + k * stride);

  const std::uint64_t child_id =
      mix64(comm_id_ * 0x9e3779b97f4a7c15ULL + tag + 0x2545f4914f6cdd1dULL +
            static_cast<std::uint64_t>(first + 1) * 0x100000001b3ULL +
            static_cast<std::uint64_t>(stride) * 0xc2b2ae3d27d4eb4fULL);
  return Comm(engine_, ctx_, std::move(members), offset / stride, child_id);
}

Comm Comm::split_consecutive(int groups) {
  PMPS_CHECK(groups >= 1 && size() % groups == 0);
  const int group_size = size() / groups;
  return split_strided(rank_ - rank_ % group_size, 1, group_size);
}

}  // namespace pmps::net
