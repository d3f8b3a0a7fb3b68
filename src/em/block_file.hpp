// BlockFile: fixed-size-block temporary storage for spilled runs.
//
// Storage is an anonymous temporary file (std::tmpfile — unlinked on
// creation, reclaimed by the OS even on abnormal exit) addressed in
// fixed-size block *slots*: slot k starts at byte offset k·block_bytes.
// The file is created lazily on the first append, so a BlockFile that is
// never written costs no file descriptor.
//
// Sharing: one BlockFile may back every RunStore of an engine run
// (em::MemoryBudget::shared_file) so that a budgeted sort at p PEs holds
// ONE descriptor instead of p — the bulk-synchronous engine has all PEs in
// the spilling phase at once, and per-PE tmpfiles die at p beyond
// RLIMIT_NOFILE. The class is therefore thread-safe: slot *ranges* are
// allocated with one atomic fetch-add (append reserves all slots of a
// write up front, so a write's bytes are always contiguous even when PE
// fibers on different worker threads interleave their appends), lazy file
// creation takes a mutex once, and all I/O is positional (pread/pwrite) —
// no shared file cursor, no locking on the data path.
//
// Fat elements: a single append may exceed block_bytes (a 100-byte
// Record100 with a smaller block size). append() then reserves
// ceil(size / block_bytes) consecutive slots; read() may likewise start at
// a byte offset inside a slot and run past its end — legal exactly because
// every append's slots are contiguous. The owner (RunStore) knows every
// block's true length from its run metadata, so no per-block size header
// is stored.
//
// I/O is counted into the SpillStats passed per call (stores sharing a
// file can keep separate counters) — that accounting is what
// RunResult::spill and sortbench's em.bytes_written report as bytes spilled.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>

#include "common/check.hpp"
#include "em/io.hpp"
#include "em/memory_budget.hpp"

namespace pmps::em {

class BlockFile {
 public:
  explicit BlockFile(std::int64_t block_bytes) : block_bytes_(block_bytes) {
    PMPS_CHECK(block_bytes_ > 0);
  }

  ~BlockFile() {
    if (file_ != nullptr) std::fclose(file_);
  }

  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  std::int64_t block_bytes() const { return block_bytes_; }

  /// Number of block slots reserved so far.
  std::int64_t blocks() const {
    return next_slot_.load(std::memory_order_relaxed);
  }

  /// Slots one append of `bytes` reserves: ceil(bytes / block_bytes), at
  /// least 1 (the fat-element case — see the header comment).
  std::int64_t slots_for(std::int64_t bytes) const {
    PMPS_CHECK(bytes >= 0);
    return bytes <= block_bytes_ ? 1
                                 : (bytes + block_bytes_ - 1) / block_bytes_;
  }

  /// Writes `data` into freshly reserved consecutive slots and returns the
  /// first slot's index. Thread-safe; `data` may exceed block_bytes.
  std::int64_t append(std::span<const std::byte> data,
                      SpillStats* stats = nullptr) {
    const auto size = static_cast<std::int64_t>(data.size());
    const std::int64_t first =
        next_slot_.fetch_add(slots_for(size), std::memory_order_relaxed);
    if (!data.empty()) {
      ensure_open();
      write_at(first * block_bytes_, data);
    }
    if (stats != nullptr) stats->count_write(size);
    return first;
  }

  /// Reads `out.size()` bytes starting `byte_off` bytes into slot `slot`.
  /// The range may run past the slot's end when it was written by one
  /// multi-slot append (contiguity is guaranteed per append, not globally).
  void read(std::int64_t slot, std::int64_t byte_off, std::span<std::byte> out,
            SpillStats* stats = nullptr) {
    PMPS_CHECK(slot >= 0 && slot < blocks() && byte_off >= 0);
    if (out.empty()) return;
    read_at(slot * block_bytes_ + byte_off, out);
    if (stats != nullptr)
      stats->count_read(static_cast<std::int64_t>(out.size()));
  }

 private:
  void ensure_open() {
    if (fd_.load(std::memory_order_acquire) >= 0) return;
    std::lock_guard lock(open_mu_);
    if (fd_.load(std::memory_order_relaxed) >= 0) return;
    file_ = std::tmpfile();
    PMPS_CHECK_MSG(file_ != nullptr, "cannot create spill file");
    fd_.store(::fileno(file_), std::memory_order_release);
  }

  // em/io.hpp's full-transfer loops handle short transfers and EINTR.
  void write_at(std::int64_t off, std::span<const std::byte> data) {
    pwrite_full(fd_.load(std::memory_order_acquire), off, data);
  }

  void read_at(std::int64_t off, std::span<std::byte> out) {
    const int fd = fd_.load(std::memory_order_acquire);
    PMPS_CHECK_MSG(fd >= 0, "spill read from a file never written");
    pread_full(fd, off, out);
  }

  std::int64_t block_bytes_;
  std::mutex open_mu_;            ///< guards lazy creation only
  std::FILE* file_ = nullptr;     ///< anonymous (pre-unlinked); owns the fd
  std::atomic<int> fd_{-1};
  std::atomic<std::int64_t> next_slot_{0};
};

}  // namespace pmps::em
