#include "fdpool/async_io.hpp"

#include <fcntl.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "common/stats.hpp"
#include "faultsim/faultsim.hpp"
#include "io/posix_file.hpp"
#include "io/temp_dir.hpp"

namespace adtm::fdpool {
namespace {

using namespace std::chrono_literals;

class AsyncIOTest : public ::testing::Test {
 protected:
  void TearDown() override { faultsim::engine().disarm(); }

  io::TempDir dir_{"adtm-aio"};
};

TEST_F(AsyncIOTest, SingleWriteLands) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("a"));
  AsyncIOEngine engine;
  engine.submit_write(f.fd(), 0, "hello");
  engine.drain();
  EXPECT_EQ(io::read_file(dir_.file("a")), "hello");
  EXPECT_EQ(engine.completed(), 1u);
  EXPECT_EQ(engine.failed(), 0u);
}

TEST_F(AsyncIOTest, PositionalWritesDoNotOverlap) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("b"));
  AsyncIOEngine engine(2);
  // Reserve offsets 0,5,10,... and write out of submission order.
  for (int i = 9; i >= 0; --i) {
    std::string chunk = std::to_string(i) + "...;";
    chunk.resize(5, '.');
    engine.submit_write(f.fd(), static_cast<std::uint64_t>(i) * 5,
                        std::move(chunk));
  }
  engine.drain();
  const std::string data = io::read_file(dir_.file("b"));
  ASSERT_EQ(data.size(), 50u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(data.substr(static_cast<std::size_t>(i) * 5, 1),
              std::to_string(i));
  }
}

TEST_F(AsyncIOTest, CompletionCallbackRunsWithoutError) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("c"));
  AsyncIOEngine engine;
  std::atomic<int> called{0};
  std::atomic<bool> had_error{false};
  engine.submit_write(f.fd(), 0, "x", [&](std::error_code ec) {
    called.fetch_add(1);
    if (ec) had_error.store(true);
  });
  engine.drain();
  EXPECT_EQ(called.load(), 1);
  EXPECT_FALSE(had_error.load());
}

TEST_F(AsyncIOTest, ManyWritesAllComplete) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("d"));
  AsyncIOEngine engine(3);
  constexpr int kWrites = 500;
  std::atomic<int> done{0};
  for (int i = 0; i < kWrites; ++i) {
    engine.submit_write(f.fd(), static_cast<std::uint64_t>(i), "z",
                        [&](std::error_code) { done.fetch_add(1); });
  }
  engine.drain();
  EXPECT_EQ(done.load(), kWrites);
  EXPECT_EQ(engine.completed(), static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(f.size(), static_cast<std::uint64_t>(kWrites));
}

TEST_F(AsyncIOTest, DestructorDrainsGracefully) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("e"));
  {
    AsyncIOEngine engine;
    for (int i = 0; i < 50; ++i) {
      engine.submit_write(f.fd(), static_cast<std::uint64_t>(i), "q");
    }
    // No explicit drain: the destructor must not lose queued work or hang.
  }
  EXPECT_EQ(f.size(), 50u);
}

// A permanently failing write (read-only descriptor -> EBADF) must be
// reported to the completion callback, not dropped on the worker thread.
TEST_F(AsyncIOTest, PermanentErrorPropagatesToCallback) {
  io::write_file(dir_.file("ro"), std::string("seed"));
  io::PosixFile f = io::PosixFile::open_read(dir_.file("ro"));
  AsyncIOEngine engine;
  std::atomic<int> called{0};
  std::error_code seen;
  engine.submit_write(f.fd(), 0, "nope", [&](std::error_code ec) {
    seen = ec;
    called.fetch_add(1);
  });
  engine.drain();  // must not hang on the failed request
  EXPECT_EQ(called.load(), 1);
  EXPECT_TRUE(static_cast<bool>(seen));
  EXPECT_EQ(seen.value(), EBADF);
  EXPECT_EQ(engine.failed(), 1u);
  EXPECT_EQ(engine.completed(), 1u);
}

// Injected transient faults (EINTR) are retried by the worker and the
// write still lands, with a clean error_code.
TEST_F(AsyncIOTest, TransientInjectedFaultsAreRetried) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("t"));
  AsyncIOEngine engine;
  faultsim::engine().arm({.op = faultsim::Op::Pwrite,
                          .fault = faultsim::Fault::error(EINTR),
                          .skip = 0,
                          .count = 3,
                          .fd = f.fd()});
  std::error_code seen = std::make_error_code(std::errc::io_error);
  engine.submit_write(f.fd(), 0, "retry-me",
                      [&](std::error_code ec) { seen = ec; });
  engine.drain();
  EXPECT_FALSE(static_cast<bool>(seen));
  EXPECT_EQ(io::read_file(dir_.file("t")), "retry-me");
  EXPECT_EQ(faultsim::engine().injected(faultsim::Op::Pwrite), 3u);
  EXPECT_EQ(engine.failed(), 0u);
}

// An unlimited injected error exhausts the bounded retry budget and then
// escalates to the callback — the engine never hangs.
TEST_F(AsyncIOTest, ExhaustedRetriesEscalateToCallback) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("x"));
  AsyncIOEngine engine;
  faultsim::engine().arm({.op = faultsim::Op::Pwrite,
                          .fault = faultsim::Fault::error(ENOSPC),
                          .skip = 0,
                          .count = 0,  // forever
                          .fd = f.fd()});
  std::error_code seen;
  engine.submit_write(f.fd(), 0, "doomed",
                      [&](std::error_code ec) { seen = ec; });
  engine.drain();
  EXPECT_EQ(seen.value(), ENOSPC);
  EXPECT_EQ(engine.failed(), 1u);
}

// A completion callback that parks its worker until release(): with one
// worker and the plug in flight, every further submission stays queued,
// so the test controls the queue depth exactly.
struct Plug {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> plugged{false};

  AsyncIOEngine::Completion callback() {
    return [this](std::error_code) {
      plugged.store(true);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] { return released; });
    };
  }
  void await_plugged() {
    while (!plugged.load()) std::this_thread::yield();
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu);
      released = true;
    }
    cv.notify_all();
  }
};

// The bounded submission queue: a full queue parks the submitter, and a
// throwing completion callback does not kill its worker.
class QueueTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCapacity = 4;

  void SetUp() override { stats().reset(); }

  io::TempDir dir_{"adtm-aio-q"};
};

TEST_F(QueueTest, BlockPolicyBackpressuresTheSubmitter) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("a"));
  Plug plug;
  std::atomic<bool> submitted{false};
  {
    AsyncIOEngine engine(1, kCapacity);
    ASSERT_TRUE(engine.submit_write(f.fd(), 0, "p", plug.callback()));
    plug.await_plugged();
    for (std::size_t i = 0; i < kCapacity; ++i) {
      ASSERT_TRUE(engine.submit_write(f.fd(), 0, "fill"));
    }
    EXPECT_EQ(engine.depth(), kCapacity);

    std::thread blocked([&] {
      EXPECT_TRUE(engine.submit_write(f.fd(), 0, "blocked"));
      submitted.store(true);
    });
    std::this_thread::sleep_for(30ms);
    EXPECT_FALSE(submitted.load());  // full queue: submitter is parked
    plug.release();
    blocked.join();
    EXPECT_TRUE(submitted.load());
    engine.drain();
    EXPECT_EQ(engine.completed(), kCapacity + 2);
  }
  EXPECT_GE(stats().total(Counter::QueueBlockWaits), 1u);
  EXPECT_EQ(stats().total(Counter::QueueSheds), 0u);
}

TEST_F(QueueTest, ThrowingCompletionCallbackDoesNotKillWorker) {
  io::PosixFile f = io::PosixFile::open_rw(dir_.file("g"));
  AsyncIOEngine engine(1, kCapacity);
  engine.submit_write(f.fd(), 0, "boom", [](std::error_code) {
    throw std::runtime_error("completion callback misbehaves");
  });
  engine.drain();
  EXPECT_EQ(engine.callback_errors(), 1u);
  EXPECT_GE(stats().total(Counter::IoCallbackErrors), 1u);
  // The worker survived: it still services new submissions.
  std::atomic<bool> ran{false};
  engine.submit_write(f.fd(), 4, "next",
                      [&](std::error_code ec) { ran.store(!ec); });
  engine.drain();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(engine.completed(), 2u);
}

}  // namespace
}  // namespace adtm::fdpool
