// Observability layer: gate semantics, event collection, Chrome trace
// schema, ring-drop accounting, and the run summary.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/runtime_config.hpp"
#include "common/stats.hpp"
#include "defer/txlock.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"
#include "support/json.hpp"

namespace adtm {
namespace {

// Every test leaves tracing off and the buffers empty, whatever happens.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = "tl2";
    stm::init(cfg);
    obs::disable();
    obs::clear();
  }
  void TearDown() override {
    obs::disable();
    obs::clear();
    configure(runtime_config_from_env());
  }
};

TEST_F(ObsTraceTest, DisabledGateCollectsNothing) {
  ASSERT_FALSE(obs::enabled());
  obs::emit(obs::EventType::TxBegin);
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  obs::drain();
  EXPECT_EQ(obs::collected_count(), 0u);
  EXPECT_EQ(obs::dropped_count(), 0u);
  EXPECT_EQ(obs::summary().events, 0u);
}

TEST_F(ObsTraceTest, EnableIsIdempotentAndCollects) {
  obs::enable();
  obs::enable();
  ASSERT_TRUE(obs::enabled());
  stm::tvar<int> x{0};
  for (int i = 0; i < 10; ++i) {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  }
  obs::drain();
  // At least begin + commit per transaction.
  EXPECT_GE(obs::collected_count(), 20u);
}

TEST_F(ObsTraceTest, ChromeTraceJsonIsSchemaValid) {
  obs::enable();
  stm::tvar<int> x{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
      }
    });
  }
  for (auto& w : workers) w.join();
  // One explicit abort so the trace carries a structured cause.
  stm::atomic([&](stm::Tx& tx) {
    x.get(tx);
    stm::cancel(tx);
  });
  obs::disable();

  const test::Json doc = test::json_parse(obs::chrome_trace_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_GE(events.size(), 800u);  // 2x200 tx, >= 2 events each, + metadata

  bool saw_metadata = false, saw_instant = false, saw_duration = false,
       saw_explicit_abort = false;
  for (const test::Json& e : events) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e.at("name").is_string());
    ASSERT_TRUE(e.at("ph").is_string());
    ASSERT_TRUE(e.at("pid").is_number());
    ASSERT_TRUE(e.at("tid").is_number());
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    ASSERT_TRUE(e.at("ts").is_number());
    if (ph == "i") saw_instant = true;
    if (ph == "X") {
      saw_duration = true;
      ASSERT_TRUE(e.at("dur").is_number());
      EXPECT_GE(e.at("dur").number, 0.0);
    }
    if (e.at("name").str == "tx-abort") {
      const test::Json& args = e.at("args");
      ASSERT_TRUE(args.at("cause").is_string());
      if (args.at("cause").str == "explicit") saw_explicit_abort = true;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_duration);   // commits render as complete events
  EXPECT_TRUE(saw_explicit_abort);
}

TEST_F(ObsTraceTest, WriteChromeTraceProducesLoadableFile) {
  obs::enable();
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  obs::disable();
  const std::string path = ::testing::TempDir() + "adtm_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NO_THROW(test::json_parse(buf.str()));
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, RingOverflowIsCountedButSummaryStaysExact) {
  // A deliberately tiny ring must overflow under a burst; drops are
  // counted, and the abort taxonomy — aggregated at emit, not at drain —
  // still accounts for every event.
  RuntimeConfig rc = runtime_config();
  rc.trace_ring_capacity = 64;
  configure(rc);
  obs::enable();
  constexpr std::uint64_t kBurst = 200000;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    obs::emit(obs::EventType::TxAbort, obs::AbortCause::Capacity, 3);
  }
  obs::disable();
  EXPECT_GT(obs::dropped_count(), 0u);
  const obs::RunSummary s = obs::summary();
  ASSERT_EQ(s.algos.size(), 1u);
  EXPECT_EQ(s.algos[0].algo, "HTMSim");
  EXPECT_EQ(
      s.algos[0].aborts[static_cast<std::size_t>(obs::AbortCause::Capacity)],
      kBurst);
  EXPECT_EQ(s.algos[0].total_aborts, kBurst);
}

TEST_F(ObsTraceTest, SummaryJsonIsSchemaValid) {
  obs::enable();
  stm::tvar<int> x{0};
  for (int i = 0; i < 50; ++i) {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  }
  obs::disable();
  const test::Json doc = test::json_parse(obs::summary_json());
  EXPECT_EQ(doc.at("schema").str, "adtm-obs-summary/v3");
  ASSERT_TRUE(doc.at("algos").is_object());
  const test::Json& tl2 = doc.at("algos").at("TL2");
  EXPECT_GE(tl2.at("commits").number, 50.0);
  ASSERT_TRUE(tl2.at("aborts").is_object());
  EXPECT_TRUE(tl2.at("aborts").has("conflict-validation"));
  EXPECT_TRUE(tl2.at("tx_ns").at("p50").is_number());
  EXPECT_TRUE(tl2.at("commit_ns").at("p99").is_number());
  // The counters object carries one entry per stats() counter, named by
  // counter_name(), valued as the delta over the traced window.
  ASSERT_TRUE(doc.at("counters").is_object());
  EXPECT_EQ(doc.at("counters").object.size(),
            static_cast<std::size_t>(Counter::kCount));
  EXPECT_GE(doc.at("counters").at("tx_commit").number, 50.0);
  EXPECT_TRUE(doc.at("counters").has("deferred_ops"));
  EXPECT_TRUE(doc.at("counters").has("faults_injected"));
  // One traced acquire/release: one lock entry with one hold.
  ASSERT_TRUE(doc.at("locks").is_object());
  EXPECT_EQ(doc.at("locks").at("dropped").number, 0.0);
  EXPECT_TRUE(doc.at("locks").at("entries").array.empty());
  obs::enable();
  TxLock lock;
  lock.acquire();
  lock.release();
  obs::disable();
  const test::Json after = test::json_parse(obs::summary_json());
  const auto& entries = after.at("locks").at("entries").array;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].at("holds").number, 1.0);
  EXPECT_EQ(entries[0].at("waits").number, 0.0);
  EXPECT_TRUE(entries[0].at("hold_ns").at("p99").is_number());
}

TEST_F(ObsTraceTest, SummaryIsExactAcrossThreadIdReuse) {
  // Each thread's aggregates live in its own block; summary() sums the
  // blocks. Three waves of threads reuse the same thread ids, and a
  // reader sums throughout: no count may be lost or go backwards.
  obs::enable();
  constexpr int kWaves = 3;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kTx = 300;
  auto tl2 = [](const obs::RunSummary& s) {
    for (const obs::AlgoSummary& a : s.algos) {
      if (a.algo == "TL2") return a.commits;
    }
    return std::uint64_t{0};
  };
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_commits = 0, last_epilogues = 0;
    while (!done.load()) {
      const obs::RunSummary s = obs::summary();
      EXPECT_GE(tl2(s), last_commits);
      EXPECT_GE(s.epilogues, last_epilogues);
      last_commits = tl2(s);
      last_epilogues = s.epilogues;
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        stm::tvar<std::uint64_t> mine{0};
        for (std::uint64_t i = 0; i < kTx; ++i) {
          stm::atomic([&](stm::Tx& tx) {
            mine.set(tx, mine.get(tx) + 1);
            tx.on_commit([] {});
          });
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  done.store(true);
  reader.join();
  obs::disable();
  const obs::RunSummary s = obs::summary();
  EXPECT_EQ(tl2(s), kWaves * kThreads * kTx);
  EXPECT_EQ(s.epilogues, kWaves * kThreads * kTx);
}

TEST_F(ObsTraceTest, SummaryCountersAreWindowDeltas) {
  stm::tvar<int> x{0};
  // Commits before enable() must not leak into the window.
  for (int i = 0; i < 10; ++i) {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  }
  obs::enable();
  for (int i = 0; i < 7; ++i) {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  }
  auto delta_of = [](const obs::RunSummary& s, const char* name) {
    for (const auto& [n, d] : s.counters) {
      if (n == name) return d;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  const std::uint64_t commits = delta_of(obs::summary(), "tx_commit");
  EXPECT_GE(commits, 7u);
  EXPECT_LT(commits, 17u);  // the 10 pre-enable commits are excluded
  // clear() re-baselines: the same counter reads zero afterwards.
  obs::clear();
  EXPECT_EQ(delta_of(obs::summary(), "tx_commit"), 0u);
  obs::disable();
}

TEST_F(ObsTraceTest, RecentTailRendersNewestLast) {
  obs::enable();
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  stm::atomic([&](stm::Tx& tx) {
    x.get(tx);
    stm::cancel(tx);
  });
  obs::disable();
  const std::string tail = obs::recent_tail(8);
  ASSERT_FALSE(tail.empty());
  // The cancel is the most recent transaction event: its abort line must
  // appear after the earlier commit line.
  const auto commit_pos = tail.find("tx-commit");
  const auto abort_pos = tail.rfind("tx-abort");
  ASSERT_NE(abort_pos, std::string::npos) << tail;
  ASSERT_NE(commit_pos, std::string::npos) << tail;
  EXPECT_LT(commit_pos, abort_pos) << tail;
  EXPECT_NE(tail.find("explicit"), std::string::npos) << tail;
}

TEST_F(ObsTraceTest, ClearResetsEverything) {
  obs::enable();
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  TxLock lock;
  lock.acquire();
  lock.release();
  // A full lock table: some locks are dropped.
  std::vector<std::unique_ptr<int>> more(obs::kLockEntries + 1);
  for (auto& p : more) {
    p = std::make_unique<int>(0);
    obs::lock_hold_begin(p.get());
    obs::lock_hold_end(p.get());
  }
  obs::disable();
  obs::drain();
  EXPECT_GT(obs::collected_count(), 0u);
  EXPECT_GT(obs::summary().epilogues, 0u);
  EXPECT_FALSE(obs::summary().locks.empty());
  EXPECT_GT(obs::summary().locks_dropped, 0u);
  obs::clear();
  EXPECT_EQ(obs::collected_count(), 0u);
  EXPECT_EQ(obs::dropped_count(), 0u);
  EXPECT_EQ(obs::summary().events, 0u);
  EXPECT_TRUE(obs::summary().algos.empty());
  EXPECT_EQ(obs::summary().epilogues, 0u);
  EXPECT_TRUE(obs::summary().locks.empty());
  EXPECT_EQ(obs::summary().locks_dropped, 0u);
}

}  // namespace
}  // namespace adtm
