// Per-PE statistics: virtual clock accounting by algorithm phase, message
// and byte counters. The paper (§7.1) divides each level into four phases —
// splitter selection, bucket processing, data delivery, local sorting —
// separated by barriers and accumulated over recursion levels; we account
// virtual time the same way so Figure 8 can be reproduced natively.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace pmps::net {

enum class Phase : int {
  kOther = 0,
  kSplitterSelection = 1,
  kBucketProcessing = 2,
  kDataDelivery = 3,
  kLocalSort = 4,
};
inline constexpr int kNumPhases = 5;

std::string_view phase_name(Phase p);

/// Reliability-layer counters (all zero under the clean model and under a
/// lossy model that never dropped anything). Written only by the sending PE
/// — simulate_reliable_send resolves the whole exchange at the send site —
/// so they need no synchronisation, like every other CommStats field.
struct FaultTotals {
  std::int64_t retransmits = 0;  ///< extra data transmissions performed
  std::int64_t data_drops = 0;   ///< data transmission attempts lost
  std::int64_t ack_drops = 0;    ///< acks lost (the data had arrived)
  std::int64_t dup_data = 0;     ///< duplicate copies suppressed at the dest
  std::int64_t dup_acks = 0;     ///< duplicate / out-of-order acks ignored

  bool any() const {
    return retransmits || data_drops || ack_drops || dup_data || dup_acks;
  }
  FaultTotals& operator+=(const FaultTotals& o) {
    retransmits += o.retransmits;
    data_drops += o.data_drops;
    ack_drops += o.ack_drops;
    dup_data += o.dup_data;
    dup_acks += o.dup_acks;
    return *this;
  }
  friend bool operator==(const FaultTotals&, const FaultTotals&) = default;
};

struct CommStats {
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  FaultTotals faults;  ///< reliability-layer counters (see FaultTotals)
  std::array<double, kNumPhases> phase_time{};  // virtual seconds
  std::array<std::int64_t, kNumPhases> phase_messages_sent{};

  double total_phase_time() const {
    double s = 0;
    for (double t : phase_time) s += t;
    return s;
  }
};

/// Host-side resource accounting of the engine itself — memory the
/// *simulator* (not the simulated machine) used. Stack fields are zero on
/// the thread backend and on single-PE inline runs (no fiber pool); the
/// fast-forward counters are zero when a NetworkModel is installed. None of
/// these affect virtual time.
struct EngineStats {
  std::int64_t peak_stack_bytes = 0;      ///< peak resident fiber stack bytes
  std::int64_t current_stack_bytes = 0;   ///< resident fiber stack bytes now
  std::int64_t stack_bytes_reserved = 0;  ///< mapped (virtual) stack bytes
  std::int64_t stacks = 0;                ///< pooled stacks ever created
  std::int64_t stack_acquires = 0;  ///< lifetime acquires (reuse ⇒ ≫ stacks)
  std::int64_t stack_reclaims = 0;  ///< madvise(MADV_DONTNEED) calls
  std::int64_t stack_reclaimed_bytes = 0;  ///< stack bytes returned to kernel
  int mailbox_shards = 0;  ///< slab/pool shards (1 on the thread backend)
  std::int64_t mailbox_node_high_water = 0;  ///< max per-shard node peak
  std::int64_t mailbox_nodes_total_high_water = 0;  ///< summed shard peaks
  /// Replayed collectives — barriers, bcasts, short allreduces, exscans
  /// and bulk exchanges' closing barriers (last run).
  std::int64_t collective_fast_forwards = 0;
  std::int64_t bulk_exchanges = 0;  ///< bulk-path sparse exchanges (last run)
};

/// Aggregate over all PEs after a run: max virtual finish time, per-phase
/// maxima (the bottleneck PE per phase), message-count extremes.
struct RunReport {
  double wall_time = 0;  ///< max over PEs of final virtual clock
  std::array<double, kNumPhases> phase_max{};
  std::array<std::int64_t, kNumPhases> phase_max_messages_sent{};
  std::int64_t max_messages_received = 0;  ///< max over PEs
  std::int64_t max_messages_sent = 0;
  std::int64_t total_bytes_sent = 0;
  FaultTotals faults;  ///< summed over PEs (all zero on a clean run)
  EngineStats engine;  ///< host-side simulator resource accounting

  double phase(Phase p) const { return phase_max[static_cast<int>(p)]; }
  std::int64_t phase_messages(Phase p) const {
    return phase_max_messages_sent[static_cast<int>(p)];
  }
};

}  // namespace pmps::net
