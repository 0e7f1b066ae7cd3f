// Watchdog: stall detection over the activity table and wait-graph report.
#include "liveness/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "defer/txlock.hpp"
#include "liveness/wait_graph.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"

namespace adtm {
namespace {

using namespace std::chrono_literals;

liveness::WatchdogOptions tight_options() {
  liveness::WatchdogOptions opts;           // env/defaults...
  opts.stall_budget_ns = 1'000'000;         // ...but flag after 1 ms
  opts.interval_ns = 5'000'000;             // and sample every 5 ms
  opts.sink = nullptr;
  return opts;
}

TEST(Watchdog, DefaultOptionsComeFromEnv) {
  liveness::WatchdogOptions opts;
  EXPECT_EQ(opts.stall_budget_ns, 2000ull * 1000000);
  EXPECT_EQ(opts.interval_ns, 200ull * 1000000);
  EXPECT_TRUE(static_cast<bool>(opts.sink));
}

TEST(Watchdog, QuietWhenNothingIsStalled) {
  liveness::Watchdog wd;
  wd.configure(tight_options());
  EXPECT_EQ(wd.scan_once(), "");
  EXPECT_EQ(wd.stall_reports(), 0u);
}

TEST(Watchdog, ScanNamesParkedWaiterAndStalledLock) {
  stm::init(stm::Config{});
  stats().reset();
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> go_release{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true);
    while (!go_release.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    lock.acquire();
    lock.release();
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(100ms);  // waiter parks well past the budget
  liveness::Watchdog wd;
  wd.configure(tight_options());
  const std::string report = wd.scan_once();
  ASSERT_NE(report, "");
  // The stalled thread's park state and the lock it waits on are named.
  EXPECT_NE(report.find("retry-wait"), std::string::npos) << report;
  EXPECT_NE(report.find("TxLock::acquire"), std::string::npos) << report;
  EXPECT_NE(report.find("wait graph"), std::string::npos) << report;
  EXPECT_NE(report.find("owner"), std::string::npos) << report;
  go_release.store(true);
  holder.join();
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  // With everyone unblocked the same scan goes quiet again.
  EXPECT_EQ(wd.scan_once(), "");
}

TEST(Watchdog, TracedStallReportCarriesLockStatsAndEvents) {
  stm::init(stm::Config{});
  obs::clear();
  obs::enable();
  TxLock lock;
  lock.acquire();  // one finished hold: the lock has a stats line
  lock.release();
  std::atomic<bool> held{false};
  std::atomic<bool> go_release{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true);
    while (!go_release.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();
  std::thread waiter([&] {
    lock.acquire();
    lock.release();
  });
  std::this_thread::sleep_for(100ms);  // waiter parks well past the budget
  liveness::Watchdog wd;
  wd.configure(tight_options());
  const std::string report = wd.scan_once();
  go_release.store(true);
  holder.join();
  waiter.join();
  obs::disable();
  obs::clear();
  EXPECT_NE(report.find("lock stats (0 dropped):"), std::string::npos)
      << report;
  EXPECT_NE(report.find(": 0 waits"), std::string::npos) << report;
  EXPECT_NE(report.find(" 1 holds"), std::string::npos) << report;
  EXPECT_NE(report.find("lock-park"), std::string::npos) << report;
}

TEST(Watchdog, BackgroundThreadReportsThroughSink) {
  stm::init(stm::Config{});
  stats().reset();
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> go_release{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true);
    while (!go_release.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();
  std::thread waiter([&] {
    lock.acquire();
    lock.release();
  });

  std::mutex mu;
  std::string captured;
  liveness::WatchdogOptions opts = tight_options();
  opts.sink = [&](const std::string& report) {
    std::lock_guard<std::mutex> lk(mu);
    captured = report;
  };
  liveness::Watchdog wd;
  wd.start(std::move(opts));
  EXPECT_TRUE(wd.running());
  // Wait for the sampler to flag the parked waiter.
  for (int i = 0; i < 500 && wd.stall_reports() == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(wd.stall_reports(), 1u);
  wd.stop();
  EXPECT_FALSE(wd.running());
  EXPECT_NE(wd.last_report(), "");
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_NE(captured.find("TxLock::acquire"), std::string::npos)
        << captured;
  }
  EXPECT_GE(stats().total(Counter::WatchdogStalls), 1u);
  go_release.store(true);
  holder.join();
  waiter.join();
}

TEST(Watchdog, StopIsIdempotentAndRestartable) {
  liveness::Watchdog wd;
  wd.stop();  // never started: no-op
  wd.start(tight_options());
  EXPECT_TRUE(wd.running());
  wd.stop();
  wd.stop();
  EXPECT_FALSE(wd.running());
  wd.start(tight_options());
  EXPECT_TRUE(wd.running());
  wd.stop();
}

}  // namespace
}  // namespace adtm
