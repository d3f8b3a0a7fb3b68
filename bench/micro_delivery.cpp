// Send-path microbench: host-time runs/sec of a delivery-shaped sparse
// exchange at p ∈ {256, 1024, 4096}, flat SendPlan path vs the PR-4 send
// path (kept here, verbatim in structure, as the "before" baseline — the
// library API itself is SendPlan-only now).
//
// The baseline (namespace legacy) materialised one heap vector per
// outgoing piece (OutMessage), two fresh Θ(p) count vectors per exchange
// and per-round receive vectors in the Bruck counts exchange and the
// termination barrier, and sends one mailbox message per piece. The library path
// writes pieces into one contiguous plan buffer and, on this clean
// machine, takes the bulk sparse exchange: no messages at all, each
// receiver reading its pieces in place from the senders' plans
// (docs/DESIGN.md §14). Both variants charge identical messages, which
// --check asserts the strong way: their virtual times and payload
// checksums must match exactly, and the library path must be faster at
// every p ≥ 1024.
//
// Results land in BENCH_micro_delivery.json — the send path's entry in the
// perf trajectory next to BENCH_micro_engine / BENCH_micro_collectives.

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "harness/tables.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"

using namespace pmps;

namespace {

using bench::now_sec;

/// Delivery-shaped traffic: many small pieces per PE — the fragment shape
/// the deterministic/advanced planners emit, and the regime where the
/// per-piece heap vector of the PR-4 path costs the most relative to the
/// payload itself.
constexpr int kFanout = 64;
constexpr std::int64_t kWordsPerPiece = 8;

/// Deterministic digest of everything received (summed across PEs; the
/// commutative sum makes it schedule-independent).
std::atomic<std::uint64_t> g_checksum{0};

// ---------------------------------------------------------------------------
// The PR-4 send path (the "before" numbers): one heap vector per piece,
// fresh count vectors and allocating Bruck/barrier rounds per exchange.
// Identical message structure to the flat version — only the host-side
// data shapes differ.
// ---------------------------------------------------------------------------
namespace legacy {

struct OutMessage {
  int dest_rank;
  std::vector<std::int64_t> data;
};

void barrier(net::Comm& comm) {
  const int p = comm.size();
  if (p == 1) return;
  const std::uint64_t tag = comm.next_tag_block();
  const std::byte token{0};
  for (int round = 0, step = 1; step < p; ++round, step <<= 1) {
    const int dest = (comm.rank() + step) % p;
    const int src = (comm.rank() - step % p + p) % p;
    comm.send<std::byte>(dest, tag + static_cast<std::uint64_t>(round),
                         std::span<const std::byte>(&token, 1));
    (void)comm.recv<std::byte>(src, tag + static_cast<std::uint64_t>(round));
  }
}

std::vector<std::int64_t> alltoall_counts(
    net::Comm& comm, const std::vector<std::int64_t>& send) {
  const int p = comm.size();
  if (p == 1) return send;
  const int me = comm.rank();
  const std::uint64_t tag = comm.next_tag_block();

  std::vector<std::int32_t> tmp(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j)
    tmp[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(
        send[static_cast<std::size_t>((me + j) % p)]);

  std::vector<std::int32_t> block;
  for (int k = 0, step = 1; step < p; ++k, step <<= 1) {
    block.clear();
    for (int j = 0; j < p; ++j)
      if ((j & step) != 0) block.push_back(tmp[static_cast<std::size_t>(j)]);
    const int to = (me + step) % p;
    const int from = (me - step + p) % p;
    comm.send<std::int32_t>(to, tag + static_cast<std::uint64_t>(k),
                            std::span<const std::int32_t>(block));
    auto in =
        comm.recv<std::int32_t>(from, tag + static_cast<std::uint64_t>(k));
    std::size_t idx = 0;
    for (int j = 0; j < p; ++j)
      if ((j & step) != 0) tmp[static_cast<std::size_t>(j)] = in[idx++];
  }

  std::vector<std::int64_t> recv(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j)
    recv[static_cast<std::size_t>((me - j + p) % p)] =
        tmp[static_cast<std::size_t>(j)];
  return recv;
}

template <typename Sink>
void sparse_exchange_into(net::Comm& comm,
                          const std::vector<OutMessage>& outgoing,
                          Sink&& sink) {
  using T = std::int64_t;
  const int p = comm.size();
  const std::uint64_t tag = comm.next_tag_block();

  std::vector<std::int64_t> in_count(static_cast<std::size_t>(p), 0);
  {
    net::FreeModeGuard free_guard(comm.ctx());
    std::vector<std::int64_t> out_count(static_cast<std::size_t>(p), 0);
    for (const auto& m : outgoing)
      out_count[static_cast<std::size_t>(m.dest_rank)] += 1;
    in_count = alltoall_counts(comm, out_count);
  }

  std::vector<std::int64_t> seq_per_dest(static_cast<std::size_t>(p), 0);
  for (const auto& m : outgoing) {
    const auto k = static_cast<std::uint64_t>(
        seq_per_dest[static_cast<std::size_t>(m.dest_rank)]++);
    comm.send<T>(m.dest_rank, tag + k, std::span<const T>(m.data));
  }

  for (int src = 0; src < p; ++src) {
    for (std::int64_t k = 0; k < in_count[static_cast<std::size_t>(src)];
         ++k) {
      net::Message m =
          comm.recv_bytes(src, tag + static_cast<std::uint64_t>(k));
      PMPS_CHECK(m.payload.size() % sizeof(T) == 0);
      sink(src,
           std::span<const T>(reinterpret_cast<const T*>(m.payload.data()),
                              m.payload.size() / sizeof(T)));
      comm.release_payload(std::move(m));
    }
  }

  barrier(comm);
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Measured programs. Destinations and payloads are identical between the
// two variants; each consumes its result into g_checksum.
// ---------------------------------------------------------------------------

int piece_dest(int rank, int j, int p) { return (rank + 1 + j * 13) % p; }

std::int64_t piece_word(int rank, int j, std::int64_t w) {
  return rank * 131071 + j * 257 + w;
}

void consume(int src, std::span<const std::int64_t> piece) {
  std::uint64_t acc = static_cast<std::uint64_t>(src);
  for (auto v : piece) acc += static_cast<std::uint64_t>(v);
  g_checksum.fetch_add(acc, std::memory_order_relaxed);
}

void exchange_flat(net::Comm& comm) {
  const int p = comm.size();
  coll::SendPlan<std::int64_t> plan;
  plan.reserve(kFanout * kWordsPerPiece, kFanout);
  for (int j = 0; j < kFanout && j < p - 1; ++j) {
    plan.begin_piece(piece_dest(comm.rank(), j, p));
    for (std::int64_t w = 0; w < kWordsPerPiece; ++w)
      plan.push_back(piece_word(comm.rank(), j, w));
  }
  coll::sparse_exchange_into<std::int64_t>(comm, plan, consume);
}

void exchange_legacy(net::Comm& comm) {
  const int p = comm.size();
  std::vector<legacy::OutMessage> out;
  for (int j = 0; j < kFanout && j < p - 1; ++j) {
    legacy::OutMessage m;
    m.dest_rank = piece_dest(comm.rank(), j, p);
    m.data.reserve(static_cast<std::size_t>(kWordsPerPiece));
    for (std::int64_t w = 0; w < kWordsPerPiece; ++w)
      m.data.push_back(piece_word(comm.rank(), j, w));
    out.push_back(std::move(m));
  }
  legacy::sparse_exchange_into(comm, out, consume);
}

/// Best-of-N: the fastest single run's duration. Scheduling noise on a
/// busy host only ever *slows* a run, so the minimum is the stable
/// estimator — means flapped the A/B comparison on loaded CI runners.
double best_run_seconds(net::Engine& engine, void (*program)(net::Comm&),
                        int runs) {
  double best = -1;
  for (int i = 0; i < runs; ++i) {
    const double t0 = now_sec();
    engine.run(program);
    const double dt = now_sec() - t0;
    if (best < 0 || dt < best) best = dt;
  }
  return best;
}

/// One extra run capturing (virtual wall time, payload checksum) — the
/// message-sequence-equivalence fingerprint --check compares.
std::pair<double, std::uint64_t> fingerprint(net::Engine& engine,
                                             void (*program)(net::Comm&)) {
  g_checksum.store(0, std::memory_order_relaxed);
  engine.run(program);
  return {engine.report().wall_time,
          g_checksum.load(std::memory_order_relaxed)};
}

std::string fmt(double v) { return harness::format_double(v, 1); }

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::Flags::parse(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--check") check = true;

  const std::vector<int> ps{256, 1024, 4096};

  std::printf(
      "Send-path microbench: host-time runs/sec of a sparse exchange "
      "(%d pieces x %lld words per PE),\nflat SendPlan path vs the PR-4 "
      "per-piece-vector path (identical message sequence)\n\n",
      kFanout, static_cast<long long>(kWordsPerPiece));

  struct Row {
    int p;
    double legacy_rps = 0, flat_rps = 0, speedup = 0;
    double legacy_wall = 0, flat_wall = 0;
    std::uint64_t legacy_sum = 0, flat_sum = 0;
  };
  std::vector<Row> rows;
  harness::Table table({"p", "PR-4 send path [runs/s]", "SendPlan [runs/s]",
                        "speedup", "virtual time identical"});

  for (int p : ps) {
    const int runs_per_pass = p >= 4096 ? 3 : (p >= 1024 ? 8 : 20);
    net::Engine engine(p, net::MachineParams::supermuc_like(), flags.seed);
    Row row{.p = p};
    // Warm up both variants once (fiber pool, pools, scratch, allocator),
    // then two interleaved best-of passes per variant so slow drift on the
    // host hits both sides alike.
    engine.run(exchange_legacy);
    engine.run(exchange_flat);
    double legacy_best = -1, flat_best = -1;
    for (int pass = 0; pass < 2; ++pass) {
      const double lb = best_run_seconds(engine, exchange_legacy,
                                         runs_per_pass);
      const double fb = best_run_seconds(engine, exchange_flat,
                                         runs_per_pass);
      if (legacy_best < 0 || lb < legacy_best) legacy_best = lb;
      if (flat_best < 0 || fb < flat_best) flat_best = fb;
    }
    row.legacy_rps = legacy_best > 0 ? 1.0 / legacy_best : 0;
    row.flat_rps = flat_best > 0 ? 1.0 / flat_best : 0;
    if (row.legacy_rps > 0) row.speedup = row.flat_rps / row.legacy_rps;
    std::tie(row.legacy_wall, row.legacy_sum) =
        fingerprint(engine, exchange_legacy);
    std::tie(row.flat_wall, row.flat_sum) = fingerprint(engine, exchange_flat);
    rows.push_back(row);
    const bool same =
        row.legacy_wall == row.flat_wall && row.legacy_sum == row.flat_sum;
    table.add_row({std::to_string(p), fmt(row.legacy_rps), fmt(row.flat_rps),
                   fmt(row.speedup) + "x", same ? "yes" : "NO"});
  }
  flags.csv ? table.print_csv() : table.print();

  if (FILE* f = std::fopen("BENCH_micro_delivery.json", "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_delivery\",\n"
                 "  \"fanout\": %d,\n  \"words_per_piece\": %lld,\n"
                 "  \"rows\": [\n",
                 kFanout, static_cast<long long>(kWordsPerPiece));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"p\": %d, \"pr4_runs_per_sec\": %.2f, "
                   "\"flat_runs_per_sec\": %.2f, \"speedup\": %.2f, "
                   "\"virtual_time_identical\": %s}%s\n",
                   r.p, r.legacy_rps, r.flat_rps, r.speedup,
                   r.legacy_wall == r.flat_wall && r.legacy_sum == r.flat_sum
                       ? "true"
                       : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_micro_delivery.json\n");
  }

  if (check) {
    bool ok = true;
    for (const Row& r : rows) {
      if (r.flat_rps <= 0) {
        std::printf("check: FAIL — flat exchange at p=%d did not complete\n",
                    r.p);
        ok = false;
      }
      if (r.legacy_wall != r.flat_wall || r.legacy_sum != r.flat_sum) {
        std::printf(
            "check: FAIL — p=%d message sequences diverge (virtual time "
            "%.9g vs %.9g, checksum %llu vs %llu)\n",
            r.p, r.legacy_wall, r.flat_wall,
            static_cast<unsigned long long>(r.legacy_sum),
            static_cast<unsigned long long>(r.flat_sum));
        ok = false;
      }
      if (r.p >= 1024 && r.flat_rps <= r.legacy_rps) {
        std::printf(
            "check: FAIL — SendPlan path at p=%d is %.2f runs/s, not faster "
            "than the PR-4 send path (%.2f runs/s)\n",
            r.p, r.flat_rps, r.legacy_rps);
        ok = false;
      }
    }
    if (ok)
      std::printf(
          "check: OK (identical virtual times/checksums; SendPlan path "
          "faster at every p >= 1024)\n");
    return ok ? 0 : 1;
  }
  return 0;
}
