// txsafety analyzer: whole-repo model (files + functions + call graph)
// and the check implementations.
//
// Check catalog (canonical name → what it enforces):
//   irrevocable-call-in-tx  no irrevocable operation (I/O, syscalls,
//                           blocking sync, stdio/iostream, async submit)
//                           reachable from transactional code, transitively
//                           through the cross-TU call graph, unless routed
//                           through atomic_defer or become_irrevocable
//   defer-ordering          ordered-TxLock deferral registration (TxLogger
//                           ::log, durable_write, TxLock::acquire, ...)
//                           must precede the transaction's first tvar
//                           write in the same region (the PR-6 crashmat
//                           lesson: a contended acquire retries, and a
//                           retry after a direct-mode write is illegal)
//   epilogue-purity         deferred lambdas / commit epilogues must not
//                           re-enter stm::atomic, register new deferrals,
//                           or use the transactional handle
//   ref-capture-into-defer  no [&] and no by-reference capture of locals
//                           declared inside the transactional region in
//                           lambdas handed to atomic_defer
//   raw-tvar-access         load_direct/store_direct outside init/ctor//
//                           dtor/_direct-suffixed/gate-serialized contexts
//                           without a tmsan::ScopedRawIgnore or allow
//   tx-region               no sleeps or OS mutexes lexically inside
//                           stm::atomic bodies
//   env-config              ADTM_* environment variables only read through
//                           common/env.cpp
//   move-in-tx-body         no std::move, inside an stm::atomic lambda, of
//                           a variable declared outside it (a re-executed
//                           body would move it again)
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "lexer.hpp"
#include "parse.hpp"

namespace txsafety {

struct Finding {
  std::string check;
  std::string path;
  int line = 0;
  std::string message;
  std::vector<std::string> chain;  // call chain, outermost first
  std::string ctx;                 // fingerprint context (function/region)

  std::string fingerprint() const { return check + "|" + path + "|" + ctx; }
};

struct Corpus {
  std::vector<SourceFile> files;
  std::vector<Fn> fns;
  std::unordered_map<std::string, std::vector<int>> fns_by_name;

  void add(SourceFile f);
  void index();  // build fns + fns_by_name after all files are added
};

struct CheckInfo {
  const char* name;
  const char* what;
};

// A transactional region: the body of a lambda passed to stm::atomic /
// atomic_nested, or the body of a function taking stm::Tx&.
struct TxRegion {
  int file = -1;
  std::size_t begin = 0, end = 0;
  std::string tx;    // name of the Tx& handle in this region
  std::string desc;  // for messages / fingerprints
  int line = 0;
  int fn = -1;  // index into Corpus::fns, -1 for a lambda region
};

class Analyzer {
 public:
  explicit Analyzer(Corpus corpus);

  static const std::vector<CheckInfo>& checks();
  static bool is_check(const std::string& name);

  // Run one check. `scoped` applies the check's default path scope (used
  // for repo-wide runs; explicit CLI paths pass scoped=false).
  std::vector<Finding> run(const std::string& name, bool scoped);

  const Corpus& corpus() const { return corpus_; }

 private:
  // --- shared infrastructure -------------------------------------------
  bool in_scope(const std::string& check, const std::string& path) const;
  static bool machinery(const std::string& path);
  std::vector<TxRegion> tx_regions(const std::string& check,
                                   bool scoped) const;
  // Sub-ranges of [begin, end) that are post-commit code (lambdas passed
  // to atomic_defer / on_commit / on_abort).
  std::vector<std::pair<std::size_t, std::size_t>> epilogue_ranges(
      const SourceFile& f, std::size_t begin, std::size_t end) const;
  std::vector<int> resolve(const CallSite& cs) const;
  int enclosing_fn(int file, std::size_t tok) const;

  // --- irrevocable-call-in-tx ------------------------------------------
  struct Sink {
    std::size_t tok = 0;
    int line = 0;
    std::string label;
  };
  std::vector<Sink> scan_sinks(
      const SourceFile& f, std::size_t begin, std::size_t end,
      const std::vector<std::pair<std::size_t, std::size_t>>& excluded,
      std::size_t* waived_at) const;
  struct SinkSummary {
    bool has = false;
    std::string label;
    std::vector<std::string> chain;  // "Cls::fn (path:line)" hops
  };
  SinkSummary sink_summary(int fn);
  void check_irrevocable(std::vector<Finding>& out, bool scoped);

  // --- defer-ordering ---------------------------------------------------
  struct DoEvent {
    std::size_t tok = 0;
    int line = 0;
    bool write = false;  // else: ordered registration / blocking wait
    std::string what;
    std::vector<std::string> chain;
  };
  std::vector<DoEvent> scan_do_events(const SourceFile& f, std::size_t begin,
                                      std::size_t end, const std::string& tx,
                                      bool transitive);
  struct DoSummary {
    int write_line = -1, reg_line = -1;
    std::string wwhat, rwhat;
    // True when the first registration precedes the first write inside the
    // callee: one call is then internally well-ordered, and only the
    // *second* call's registration can land after a write.
    bool reg_first = false;
  };
  DoSummary do_summary(int fn);
  void check_defer_ordering(std::vector<Finding>& out, bool scoped);

  // --- the rest ---------------------------------------------------------
  void check_epilogue_purity(std::vector<Finding>& out, bool scoped);
  void check_ref_capture(std::vector<Finding>& out, bool scoped);
  void check_raw_tvar(std::vector<Finding>& out, bool scoped);
  bool raw_context_allowed(int fn_idx, std::map<int, int>& state);
  void check_tx_region(std::vector<Finding>& out, bool scoped);
  void check_env_config(std::vector<Finding>& out, bool scoped);
  void check_move_in_tx(std::vector<Finding>& out, bool scoped);

  Corpus corpus_;
  std::unordered_map<int, SinkSummary> sink_memo_;
  std::unordered_map<int, int> sink_state_;  // 0 none, 1 in-flight, 2 done
  std::unordered_map<int, DoSummary> do_memo_;
  std::unordered_map<int, int> do_state_;
  // name -> fn indices that call it (for raw-tvar reverse reachability)
  std::unordered_map<std::string, std::vector<int>> callers_of_;
  bool callers_built_ = false;
  void build_callers();
};

}  // namespace txsafety
