// Quickstart: transactions, transaction-friendly locks, atomic deferral,
// and tracing in ~120 lines.
//
//   ./quickstart
//
// Demonstrates the core API: stm::atomic / stm::tvar for transactions,
// Deferrable + atomic_defer for moving a slow operation out of a
// transaction while keeping it atomic, the subscribe convention that
// makes other transactions wait out an in-flight deferred operation, and
// the observability layer (Chrome trace + abort-cause summary).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "adtm.hpp"

using namespace adtm;  // NOLINT: example brevity

// A deferrable object: an account whose audit record is written by a slow
// operation we do not want inside the transaction.
class Account : public Deferrable {
 public:
  long balance(stm::Tx& tx) const {
    subscribe(tx);  // wait out any in-flight deferred op on this account
    return balance_.get(tx);
  }
  void deposit(stm::Tx& tx, long amount) {
    subscribe(tx);
    balance_.set(tx, balance_.get(tx) + amount);
  }
  long balance_raw() const { return balance_.load_direct(); }

 private:
  stm::tvar<long> balance_{0};
};

int main() {
  // Pick a TM algorithm (TL2 software TM here; Eager, HTMSim, and the CGL
  // baseline are one enum away).
  stm::Config cfg;
  cfg.backend = "tl2";
  stm::init(cfg);

  Account checking, savings;

  // 1. A plain transaction: atomic transfer between two accounts.
  //    Subscribe both accounts up front: a contended subscribe waits by
  //    retrying, and a retry is only legal before the transaction's first
  //    write. Once subscribed, deposit's own subscribe is a reentrant
  //    no-op, so the ordering below is safe.
  stm::atomic([&](stm::Tx& tx) {
    checking.subscribe(tx);
    savings.subscribe(tx);
    checking.deposit(tx, 1000);
    savings.deposit(tx, 500);
  });
  std::printf("after deposits: checking=%ld savings=%ld\n",
              checking.balance_raw(), savings.balance_raw());

  // 2. Atomic deferral: move a slow audit write out of the transaction.
  //    The audit appears atomic with the transfer — a concurrent reader of
  //    `checking` waits (via subscribe) until the audit completes.
  stm::atomic([&](stm::Tx& tx) {
    // Same rule as above: take both accounts' locks before writing, so the
    // atomic_defer's acquire of `checking` below is reentrant and cannot
    // block after the write set is non-empty.
    checking.subscribe(tx);
    savings.subscribe(tx);
    checking.deposit(tx, -200);
    savings.deposit(tx, 200);
    atomic_defer(
        tx,
        [&checking] {
          // Runs after commit, holding checking's implicit lock. Simulate
          // a slow irrevocable operation (e.g. writing an audit log).
          // Captures are named, never a blanket [&]: the epilogue outlives
          // the registering scope (txsafety's ref-capture-into-defer check).
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          std::printf("audit: moved 200 checking->savings (balance %ld)\n",
                      checking.balance_raw());
        },
        checking);
  });

  // 3. The concurrent view: this transaction subscribed, so it could only
  //    read the account after the deferred audit finished.
  const long seen =
      stm::atomic([&](stm::Tx& tx) { return checking.balance(tx); });
  std::printf("reader saw checking=%ld (after the audit, never between)\n",
              seen);

  // 4. Condition synchronization with retry: wait until a flag is set.
  stm::tvar<bool> flag{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stm::atomic([&](stm::Tx& tx) { flag.set(tx, true); });
  });
  stm::atomic([&](stm::Tx& tx) {
    if (!flag.get(tx)) stm::retry(tx);  // blocks until the setter commits
  });
  setter.join();
  std::printf("retry() woke after the flag was set\n");

  // 5. Observability: turn on tracing (equivalently: run with ADTM_TRACE=1,
  //    plus ADTM_TRACE_OUT=path for an automatic trace file at exit), do
  //    some contended work, and render what happened.
  {
    RuntimeConfig rc = runtime_config();
    rc.trace = true;
    configure(rc);

    // Contended increments produce real conflict aborts; a cancel()
    // records an Explicit abort — both land in the structured taxonomy.
    stm::tvar<long> counter{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 2000; ++i) {
          stm::atomic([&](stm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
        }
      });
    }
    for (auto& w : workers) w.join();
    stm::atomic([&](stm::Tx& tx) {
      counter.get(tx);
      stm::cancel(tx);  // discards the attempt; records an Explicit abort
    });

    if (obs::write_chrome_trace("quickstart_trace.json")) {
      std::printf(
          "wrote quickstart_trace.json (load in Perfetto or "
          "chrome://tracing)\n");
    }
    std::printf("run summary:\n%s\n", obs::summary_json().c_str());
  }

  return 0;
}
