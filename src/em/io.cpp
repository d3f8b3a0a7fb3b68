// Implementation of em/io.hpp: full-transfer positional I/O with EINTR
// retry and the chunk-limit test shim.

#include "em/io.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>

#include "common/check.hpp"

namespace pmps::em {

namespace {

std::atomic<std::int64_t> g_io_chunk_limit{0};

std::size_t capped(std::size_t left) {
  const std::int64_t cap = g_io_chunk_limit.load(std::memory_order_relaxed);
  return cap > 0 ? std::min(left, static_cast<std::size_t>(cap)) : left;
}

}  // namespace

void set_io_chunk_limit_for_testing(std::int64_t bytes) {
  g_io_chunk_limit.store(bytes, std::memory_order_relaxed);
}

void pread_full(int fd, std::int64_t off, std::span<std::byte> out) {
  auto* p = out.data();
  auto left = out.size();
  while (left > 0) {
    const ::ssize_t got =
        ::pread(fd, p, capped(left), static_cast<::off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    PMPS_CHECK_MSG(got > 0, "spill read failed");
    p += got;
    off += got;
    left -= static_cast<std::size_t>(got);
  }
}

void pwrite_full(int fd, std::int64_t off, std::span<const std::byte> data) {
  const auto* p = data.data();
  auto left = data.size();
  while (left > 0) {
    const ::ssize_t wrote =
        ::pwrite(fd, p, capped(left), static_cast<::off_t>(off));
    if (wrote < 0 && errno == EINTR) continue;
    PMPS_CHECK_MSG(wrote > 0, "spill write failed");
    p += wrote;
    off += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace pmps::em
