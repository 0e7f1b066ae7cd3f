#include "io/posix_file.hpp"

#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <thread>
#include <utility>

#include "faultsim/faultsim.hpp"

namespace adtm::io {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int open_or_throw(const std::string& path, int flags, mode_t mode = 0644) {
  const int fd = ::open(path.c_str(), flags, mode);
  if (fd < 0) throw_errno("open");
  return fd;
}

// Fault-injection gate: every data-path syscall below consults the global
// engine first. One relaxed load when nothing is armed.
faultsim::Fault consult(faultsim::Op op, int fd) {
  if (!faultsim::active()) return faultsim::Fault::none();
  return faultsim::engine().on_syscall(op, fd);
}

}  // namespace

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

PosixFile::PosixFile(PosixFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

PosixFile& PosixFile::operator=(PosixFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

PosixFile PosixFile::open_read(const std::string& path) {
  return PosixFile(open_or_throw(path, O_RDONLY));
}

PosixFile PosixFile::open_append(const std::string& path) {
  return PosixFile(open_or_throw(path, O_WRONLY | O_CREAT | O_APPEND));
}

PosixFile PosixFile::create(const std::string& path) {
  return PosixFile(open_or_throw(path, O_WRONLY | O_CREAT | O_TRUNC));
}

PosixFile PosixFile::open_rw(const std::string& path) {
  return PosixFile(open_or_throw(path, O_RDWR | O_CREAT));
}

void PosixFile::write_fully(std::span<const std::byte> data) {
  write_fully(data.data(), data.size());
}

std::size_t PosixFile::write_some(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  for (;;) {
    std::size_t ask = len;
    ssize_t rv;
    const faultsim::Fault f = consult(faultsim::Op::Write, fd_);
    switch (f.kind) {
      case faultsim::FaultKind::Errno:
        errno = f.err;
        rv = -1;
        break;
      case faultsim::FaultKind::Crash: {
        // Crash point: persist a prefix so the file gets a torn tail,
        // then abandon — the caller's in-memory state is lost exactly as
        // a real crash between write and fsync would lose it.
        const std::size_t persist = std::min(len, f.max_bytes);
        if (persist > 0) (void)!::write(fd_, p, persist);
        throw faultsim::SimulatedCrash("write");
      }
      case faultsim::FaultKind::ShortWrite:
        ask = std::max<std::size_t>(std::min(ask, f.max_bytes), 1);
        [[fallthrough]];
      case faultsim::FaultKind::None:
        rv = ::write(fd_, p, ask);
        break;
      default:
        rv = ::write(fd_, p, ask);
        break;
    }
    if (rv < 0) {
      if (errno == EINTR) continue;  // transient
      if (errno == EAGAIN) {
        // Non-blocking descriptor with a full buffer: let the consumer
        // run (essential on machines with fewer cores than threads).
        std::this_thread::yield();
        continue;
      }
      throw_errno("write");  // fatal
    }
    return static_cast<std::size_t>(rv);
  }
}

void PosixFile::write_fully(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    sent += write_some(p + sent, len - sent);
  }
}

void PosixFile::pwrite_fully(const void* data, std::size_t len,
                             std::uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    std::size_t ask = len - sent;
    ssize_t rv;
    const faultsim::Fault f = consult(faultsim::Op::Pwrite, fd_);
    switch (f.kind) {
      case faultsim::FaultKind::Errno:
        errno = f.err;
        rv = -1;
        break;
      case faultsim::FaultKind::Crash: {
        const std::size_t persist = std::min(len - sent, f.max_bytes);
        if (persist > 0) {
          (void)!::pwrite(fd_, p + sent, persist,
                          static_cast<off_t>(offset + sent));
        }
        throw faultsim::SimulatedCrash("pwrite");
      }
      case faultsim::FaultKind::ShortWrite:
        ask = std::max<std::size_t>(std::min(ask, f.max_bytes), 1);
        [[fallthrough]];
      default:
        rv = ::pwrite(fd_, p + sent, ask, static_cast<off_t>(offset + sent));
        break;
    }
    if (rv < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {
        std::this_thread::yield();
        continue;
      }
      throw_errno("pwrite");
    }
    sent += static_cast<std::size_t>(rv);
  }
}

std::size_t PosixFile::read_some(void* out, std::size_t len) {
  for (;;) {
    std::size_t ask = len;
    ssize_t rv;
    const faultsim::Fault f = consult(faultsim::Op::Read, fd_);
    switch (f.kind) {
      case faultsim::FaultKind::Errno:
        errno = f.err;
        rv = -1;
        break;
      case faultsim::FaultKind::Crash:
        throw faultsim::SimulatedCrash("read");
      case faultsim::FaultKind::ShortWrite:
        ask = std::max<std::size_t>(std::min(ask, f.max_bytes), 1);
        [[fallthrough]];
      default:
        rv = ::read(fd_, out, ask);
        break;
    }
    if (rv < 0) {
      if (errno == EINTR) continue;  // transient, same as the write paths
      throw_errno("read");
    }
    return static_cast<std::size_t>(rv);
  }
}

void PosixFile::read_fully(void* out, std::size_t len) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < len) {
    const std::size_t rv = read_some(p + got, len - got);
    if (rv == 0) {
      throw std::system_error(EIO, std::generic_category(),
                              "read_fully: premature EOF");
    }
    got += rv;
  }
}

std::size_t PosixFile::pread_some(void* out, std::size_t len,
                                  std::uint64_t offset) {
  for (;;) {
    std::size_t ask = len;
    ssize_t rv;
    const faultsim::Fault f = consult(faultsim::Op::Pread, fd_);
    switch (f.kind) {
      case faultsim::FaultKind::Errno:
        errno = f.err;
        rv = -1;
        break;
      case faultsim::FaultKind::Crash:
        throw faultsim::SimulatedCrash("pread");
      case faultsim::FaultKind::ShortWrite:
        ask = std::max<std::size_t>(std::min(ask, f.max_bytes), 1);
        [[fallthrough]];
      default:
        rv = ::pread(fd_, out, ask, static_cast<off_t>(offset));
        break;
    }
    if (rv < 0) {
      if (errno == EINTR) continue;  // transient, same as the write paths
      throw_errno("pread");
    }
    return static_cast<std::size_t>(rv);
  }
}

std::uint64_t PosixFile::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw_errno("fstat");
  return static_cast<std::uint64_t>(st.st_size);
}

std::uint64_t PosixFile::seek_end() {
  const off_t off = ::lseek(fd_, 0, SEEK_END);
  if (off < 0) throw_errno("lseek");
  return static_cast<std::uint64_t>(off);
}

void PosixFile::seek_set(std::uint64_t offset) {
  if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    throw_errno("lseek");
  }
}

void PosixFile::truncate(std::uint64_t length) {
  while (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
    if (errno != EINTR) throw_errno("ftruncate");
  }
}

void PosixFile::sync() {
  for (;;) {
    const faultsim::Fault f = consult(faultsim::Op::Fsync, fd_);
    if (f.kind == faultsim::FaultKind::Errno) {
      if (f.err == EINTR) continue;  // interrupted fsync: retry
      throw std::system_error(f.err, std::generic_category(), "fsync");
    }
    if (f.kind == faultsim::FaultKind::Crash) {
      throw faultsim::SimulatedCrash("fsync");
    }
    if (::fsync(fd_) != 0) throw_errno("fsync");
    return;
  }
}

void PosixFile::close() {
  if (fd_ >= 0) {
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0) throw_errno("close");
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("open dir");
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    // Some filesystems refuse fsync on directories (EINVAL): the barrier
    // is unavailable rather than failed, and there is nothing to retry.
    if (errno == EINVAL) break;
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "fsync dir");
  }
  ::close(fd);
}

void rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) throw_errno("rename");
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("open");
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "fsync");
  }
  ::close(fd);
}

std::string read_file(const std::string& path) {
  PosixFile f = PosixFile::open_read(path);
  std::string out;
  char buf[64 * 1024];
  for (;;) {
    const std::size_t n = f.read_some(buf, sizeof(buf));
    if (n == 0) break;
    out.append(buf, n);
  }
  return out;
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  PosixFile f = PosixFile::create(path);
  f.write_fully(data);
}

void write_file(const std::string& path, const std::string& data) {
  PosixFile f = PosixFile::create(path);
  f.write_fully(data.data(), data.size());
}

}  // namespace adtm::io
