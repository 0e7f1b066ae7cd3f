// RAII wrapper over POSIX file descriptors with reliability helpers.
//
// The microbenchmarks (Fig 2) and dedup's pipeline_out (Listing 7) perform
// real system calls through this class; nothing here is transactional —
// that is the point: these are the operations that cannot run inside a
// speculative transaction and must be deferred or made irrevocable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace adtm::io {

class PosixFile {
 public:
  PosixFile() = default;
  ~PosixFile();

  PosixFile(PosixFile&& other) noexcept;
  PosixFile& operator=(PosixFile&& other) noexcept;
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  // Open an existing file for reading. Throws std::system_error.
  static PosixFile open_read(const std::string& path);

  // Open (creating if needed) for appending.
  static PosixFile open_append(const std::string& path);

  // Create/truncate for writing.
  static PosixFile create(const std::string& path);

  // Open (creating if needed) for reading and writing without truncation.
  static PosixFile open_rw(const std::string& path);

  bool is_open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  // Write the entire span, retrying on partial writes and EINTR — the
  // reliability loop of the paper's pipeline_out (Listing 7).
  void write_fully(std::span<const std::byte> data);
  void write_fully(const void* data, std::size_t len);

  // One write attempt: returns the bytes accepted (possibly short),
  // retrying only EINTR/EAGAIN internally. Callers that must survive
  // mid-buffer failures (WAL group commit) loop over this so a retry
  // resumes where the last attempt stopped instead of re-writing — and
  // duplicating — the prefix.
  std::size_t write_some(const void* data, std::size_t len);

  // Positional full write (used by the async I/O engine: appends reserve
  // their offset under the pool lock, then write at it).
  void pwrite_fully(const void* data, std::size_t len, std::uint64_t offset);

  // Read up to len bytes; returns bytes read (0 at EOF).
  std::size_t read_some(void* out, std::size_t len);

  // Read exactly len bytes or throw (premature EOF is an error).
  void read_fully(void* out, std::size_t len);

  std::size_t pread_some(void* out, std::size_t len, std::uint64_t offset);

  // Current size via fstat.
  std::uint64_t size() const;

  // Seek to end, returning the offset (the microbench's "read the file
  // length" step).
  std::uint64_t seek_end();

  void seek_set(std::uint64_t offset);

  // Set the file's length (ftruncate): cut a tail, or extend with zeros.
  void truncate(std::uint64_t length);

  // Flush to stable storage (fsync).
  void sync();

  void close();

 private:
  explicit PosixFile(int fd) noexcept : fd_(fd) {}
  int fd_ = -1;
};

// fsync the directory containing `path` (durability of the *entry*: a
// file creation, rename, or truncation is not crash-safe until the
// directory — and for truncation also the file itself — has been synced).
// Throws std::system_error on failure.
void fsync_parent_dir(const std::string& path);

// rename(2), throwing std::system_error on failure. The new name is not
// durable until the directory is fsynced (fsync_parent_dir).
void rename_file(const std::string& from, const std::string& to);

// Open `path` read-only and fsync it (truncation/size-metadata barrier
// for files the caller does not hold open for writing).
void fsync_path(const std::string& path);

// Read a whole file into a string (test/bench convenience).
std::string read_file(const std::string& path);

// Write a whole buffer to a path, truncating.
void write_file(const std::string& path, std::span<const std::byte> data);
void write_file(const std::string& path, const std::string& data);

}  // namespace adtm::io
