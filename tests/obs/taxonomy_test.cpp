// Abort-cause taxonomy exactness: seeded scenarios whose abort cause is
// known by construction must be classified exactly — right cause, right
// count, right algorithm bucket.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "liveness/contention.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

std::uint64_t aborts(const obs::RunSummary& s, const std::string& algo,
                     obs::AbortCause cause) {
  for (const obs::AlgoSummary& a : s.algos) {
    if (a.algo == algo) {
      return a.aborts[static_cast<std::size_t>(cause)];
    }
  }
  return 0;
}

std::uint64_t commits(const obs::RunSummary& s, const std::string& algo) {
  for (const obs::AlgoSummary& a : s.algos) {
    if (a.algo == algo) return a.commits;
  }
  return 0;
}

// One way a transaction runs: under a backend's own mode (speculative,
// or CGL for a direct-mode backend), or escalated to serial mode by a
// become_irrevocable() at the top of the body (speculative backends).
struct Path {
  std::string backend;  // display name, also the summary's algo label
  bool serial = false;

  // Serial-mode runs restart once before the body proper.
  std::uint64_t restarts() const { return serial ? 1 : 0; }
  bool direct() const {
    return serial || stm::find_backend(backend)->algo == stm::Algo::CGL;
  }
  void enter(stm::Tx& tx) const {
    if (serial) stm::become_irrevocable(tx);
  }
};

std::vector<Path> all_paths() {
  std::vector<Path> paths;
  for (const std::string& name : test::all_backend_names()) {
    paths.push_back({name, false});
    if (stm::find_backend(name)->algo != stm::Algo::CGL) {
      paths.push_back({name, true});
    }
  }
  return paths;
}

std::string label(const Path& p) {
  return p.backend + (p.serial ? "/serial" : "");
}

// Exact stats() deltas of one transaction (the fixture resets stats).
void expect_counters(std::uint64_t starts, std::uint64_t commits,
                     std::uint64_t explicit_aborts, std::uint64_t retries,
                     std::uint64_t timeouts) {
  EXPECT_EQ(stats().total(Counter::TxStart), starts);
  EXPECT_EQ(stats().total(Counter::TxCommit), commits);
  EXPECT_EQ(stats().total(Counter::TxAbortExplicit), explicit_aborts);
  EXPECT_EQ(stats().total(Counter::TxRetry), retries);
  EXPECT_EQ(stats().total(Counter::RetryTimeouts), timeouts);
}

class AbortTaxonomyTest : public ::testing::Test {
 protected:
  void init(const std::string& backend, bool quiescence = true) {
    stm::Config cfg;
    cfg.backend = backend;
    // The seeded-conflict tests commit from a rival thread while the main
    // transaction is still open; with quiescence the rival would wait for
    // it (and the main thread is joining the rival). Irrelevant to abort
    // classification, so those tests turn it off.
    cfg.quiescence = quiescence;
    stm::init(cfg);
    stats().reset();
    obs::clear();
    obs::enable();
  }
  void TearDown() override {
    obs::disable();
    obs::clear();
    stm::init(stm::Config{});
  }
};

TEST_F(AbortTaxonomyTest, CancelIsExactlyOneExplicitAbort) {
  for (const Path& p : all_paths()) {
    SCOPED_TRACE(label(p));
    init(p.backend);
    stm::tvar<int> x{0};
    stm::atomic([&](stm::Tx& tx) {
      p.enter(tx);
      x.get(tx);
      stm::cancel(tx);
    });
    obs::disable();
    expect_counters(1 + p.restarts(), 0, 1, 0, 0);
    const obs::RunSummary s = obs::summary();
    EXPECT_EQ(aborts(s, p.backend, obs::AbortCause::Explicit), 1u);
    EXPECT_EQ(aborts(s, p.backend, obs::AbortCause::SerialRestart),
              p.restarts());
    EXPECT_EQ(commits(s, p.backend), 0u);
    ASSERT_EQ(s.algos.size(), 1u);
    EXPECT_EQ(s.algos[0].total_aborts, 1u + p.restarts());
  }
}

TEST_F(AbortTaxonomyTest, CommitTimeInvalidationIsConflictValidation) {
  // Attempt 1: read x, let a rival commit a new x, write y — TL2's
  // commit-time read validation must fail with ConflictValidation (not
  // lock-busy: the rival is long gone by then). Attempt 2 commits.
  init("tl2", /*quiescence=*/false);
  stm::tvar<long> x{0};
  stm::tvar<long> y{0};
  int attempts = 0;
  stm::atomic([&](stm::Tx& tx) {
    const long seen = x.get(tx);
    if (++attempts == 1) {
      std::thread rival([&] {
        stm::atomic([&](stm::Tx& rtx) { x.set(rtx, seen + 1); });
      });
      rival.join();
    }
    y.set(tx, seen + 1);
  });
  obs::disable();
  EXPECT_EQ(attempts, 2);
  const obs::RunSummary s = obs::summary();
  EXPECT_EQ(aborts(s, "TL2", obs::AbortCause::ConflictValidation), 1u);
  EXPECT_EQ(commits(s, "TL2"), 2u);  // the rival and the final attempt
  ASSERT_EQ(s.algos.size(), 1u);
  EXPECT_EQ(s.algos[0].total_aborts, 1u);
}

TEST_F(AbortTaxonomyTest, NorecValueValidationHasItsOwnCause) {
  // The same seeded conflict under NOrec fails value-based validation:
  // the taxonomy distinguishes it from TL2's timestamp validation.
  init("norec", /*quiescence=*/false);
  stm::tvar<long> x{0};
  stm::tvar<long> y{0};
  int attempts = 0;
  stm::atomic([&](stm::Tx& tx) {
    const long seen = x.get(tx);
    if (++attempts == 1) {
      std::thread rival([&] {
        stm::atomic([&](stm::Tx& rtx) { x.set(rtx, seen + 1); });
      });
      rival.join();
    }
    y.set(tx, seen + 1);
  });
  obs::disable();
  EXPECT_EQ(attempts, 2);
  const obs::RunSummary s = obs::summary();
  EXPECT_EQ(aborts(s, "NOrec", obs::AbortCause::ConflictNorecValue), 1u);
  EXPECT_EQ(aborts(s, "NOrec", obs::AbortCause::ConflictValidation), 0u);
  EXPECT_EQ(commits(s, "NOrec"), 2u);
}

TEST_F(AbortTaxonomyTest, HtmFootprintOverflowIsCapacity) {
  stm::Config cfg;
  cfg.backend = "htmsim";
  cfg.htm_capacity = 4;  // tiny budget: the write set below must overflow
  stm::init(cfg);
  obs::clear();
  obs::enable();

  constexpr int kVars = 32;
  std::vector<std::unique_ptr<stm::tvar<long>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<stm::tvar<long>>(0));
  }
  stm::atomic([&](stm::Tx& tx) {
    for (auto& v : vars) v->set(tx, 1);
  });
  obs::disable();

  const obs::RunSummary s = obs::summary();
  // Every hardware attempt dies on capacity; the serial fallback commits.
  EXPECT_GE(aborts(s, "HTMSim", obs::AbortCause::Capacity), 1u);
  EXPECT_GE(commits(s, "HTMSim"), 1u);
  EXPECT_EQ(vars[kVars - 1]->load_direct(), 1);
}

TEST_F(AbortTaxonomyTest, RetryDeadlineExpiryIsTimeout) {
  for (const Path& p : all_paths()) {
    SCOPED_TRACE(label(p));
    init(p.backend);
    stm::tvar<bool> flag{false};
    const Deadline deadline = Deadline::at(now_ns() + 20'000'000ull);  // 20 ms
    EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                   p.enter(tx);
                   if (!flag.get(tx)) stm::retry(tx, deadline);
                 }),
                 stm::RetryTimeout);
    obs::disable();
    // Speculative and CGL attempts park once until the deadline; a
    // serial attempt has no read set to park on and re-executes after
    // each backoff, so every execution after the restart is one retry.
    const std::uint64_t starts = stats().total(Counter::TxStart);
    if (p.serial) {
      EXPECT_GE(starts, 2u);
    } else {
      EXPECT_EQ(starts, 1u);
    }
    expect_counters(starts, 0, 0, starts - p.restarts(), 1);
    const obs::RunSummary s = obs::summary();
    EXPECT_EQ(aborts(s, p.backend, obs::AbortCause::Timeout), 1u);
    EXPECT_EQ(aborts(s, p.backend, obs::AbortCause::SerialRestart),
              p.restarts());
    EXPECT_EQ(commits(s, p.backend), 0u);
  }
}

TEST_F(AbortTaxonomyTest, UserExceptionIsClassifiedAsException) {
  struct Boom {};
  for (const Path& p : all_paths()) {
    SCOPED_TRACE(label(p));
    init(p.backend);
    stm::tvar<int> x{0};
    EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                   p.enter(tx);
                   x.set(tx, 1);
                   throw Boom{};
                 }),
                 Boom);
    obs::disable();
    // A speculative throw rolls the write back; a direct-mode throw
    // commits at the throw point with its effects retained.
    const std::uint64_t committed = p.direct() ? 1 : 0;
    expect_counters(1 + p.restarts(), committed, 0, 0, 0);
    const obs::RunSummary s = obs::summary();
    EXPECT_EQ(aborts(s, p.backend, obs::AbortCause::Exception),
              1 - committed);
    EXPECT_EQ(commits(s, p.backend), committed);
    EXPECT_EQ(x.load_direct(), static_cast<int>(committed));
  }
}

TEST_F(AbortTaxonomyTest, SerialCommitAtThrowEndsTheAbortStreak) {
  // The seeded conflict of CommitTimeInvalidationIsConflictValidation
  // starts an abort streak on attempt 1. Attempt 2 calls
  // become_irrevocable, and its serial re-execution throws. The throw
  // commits with its effects retained, and that commit must end the
  // streak like any other — or this thread's next transaction starts
  // nearer to escalating again.
  init("tl2", /*quiescence=*/false);
  stm::tvar<long> x{0};
  stm::tvar<long> y{0};
  int attempts = 0;
  struct Boom {};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 const long seen = x.get(tx);
                 if (++attempts == 1) {
                   std::thread rival([&] {
                     stm::atomic([&](stm::Tx& rtx) { x.set(rtx, seen + 1); });
                   });
                   rival.join();
                 }
                 y.set(tx, seen + 1);
                 if (attempts >= 2) {
                   stm::become_irrevocable(tx);
                   throw Boom{};
                 }
               }),
               Boom);
  obs::disable();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(y.load_direct(), 2);  // the serial attempt's write stays
  EXPECT_EQ(stats().total(Counter::TxCommit), 2u);  // the rival's and ours
  const obs::RunSummary s = obs::summary();
  EXPECT_EQ(aborts(s, "TL2", obs::AbortCause::ConflictValidation), 1u);
  EXPECT_EQ(aborts(s, "TL2", obs::AbortCause::SerialRestart), 1u);
  EXPECT_EQ(aborts(s, "TL2", obs::AbortCause::Exception), 0u);
  EXPECT_EQ(commits(s, "TL2"), 2u);
  EXPECT_EQ(liveness::contention().consecutive_aborts(thread_id()), 0u);
}

}  // namespace
}  // namespace adtm
