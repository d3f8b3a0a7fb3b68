// Low-level positional file I/O for the spill path.
//
// Full-transfer wrappers over pread/pwrite: they loop on short transfers (a
// single syscall is never assumed to move all bytes) and retry EINTR,
// aborting only on real errors or EOF-inside-a-read. BlockFile does all of
// its I/O through these, so the hardening is in exactly one place.
//
// A process-global test shim caps the bytes per syscall, so unit tests can
// force the short-transfer loops to run without a device that actually
// shears writes (tests/test_em.cpp). It never changes *what* is read or
// written.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pmps::em {

/// Reads exactly out.size() bytes at byte offset `off`. Aborts on error or
/// premature EOF.
void pread_full(int fd, std::int64_t off, std::span<std::byte> out);

/// Writes exactly data.size() bytes at byte offset `off`.
void pwrite_full(int fd, std::int64_t off, std::span<const std::byte> data);

/// Test shim: while > 0, every raw pread/pwrite syscall transfers at most
/// this many bytes, exercising the short-transfer loops. 0 disables.
void set_io_chunk_limit_for_testing(std::int64_t bytes);

}  // namespace pmps::em
