#include "analyzer.hpp"

#include <algorithm>
#include <initializer_list>

namespace txsafety {

namespace {

bool is_p(const Token& t, const char* s) {
  return t.kind == Token::Kind::Punct && t.text == s;
}
bool is_id(const Token& t) { return t.kind == Token::Kind::Ident; }
bool id_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::Ident && t.text == s;
}

bool has_prefix(const std::string& s, const char* p) {
  const std::size_t n = std::char_traits<char>::length(p);
  return s.size() >= n && s.compare(0, n, p) == 0;
}

bool under_any(const std::string& path,
               std::initializer_list<const char*> dirs) {
  for (const char* d : dirs)
    if (has_prefix(path, d)) return true;
  return false;
}

bool name_in(const std::string& s, std::initializer_list<const char*> names) {
  for (const char* n : names)
    if (s == n) return true;
  return false;
}

// Inclusive skip ranges, matching collect_calls.
std::size_t skip_to(
    const std::vector<std::pair<std::size_t, std::size_t>>& excl,
    std::size_t i) {
  for (const auto& r : excl)
    if (i >= r.first && i <= r.second) return r.second;
  return 0;
}

// Base identifier of a receiver chain: `a->b[i].name(...)` -> "a".
std::string receiver_base(const SourceFile& f, std::size_t call_tok) {
  std::string base;
  std::size_t k = call_tok;
  while (k >= 2 && (is_p(f.toks[k - 1], ".") || is_p(f.toks[k - 1], "->") ||
                    is_p(f.toks[k - 1], "::"))) {
    std::size_t j = k - 2;
    while ((is_p(f.toks[j], "]") || is_p(f.toks[j], ")")) &&
           f.match[j] >= 0 && static_cast<std::size_t>(f.match[j]) < j &&
           f.match[j] > 0)
      j = static_cast<std::size_t>(f.match[j]) - 1;
    if (!is_id(f.toks[j])) break;
    base = f.toks[j].text;
    k = j;
    if (k < 2) break;
  }
  return base;
}

// True when the call's first argument is exactly the identifier `tx`.
bool first_arg_is(const SourceFile& f, std::size_t call_tok,
                  const std::string& tx) {
  if (tx.empty()) return false;
  const auto args = split_args(f, call_tok + 1);
  if (args.empty() || args[0].first >= args[0].second) return false;
  return id_is(f.toks[args[0].first], tx.c_str());
}

std::string qname(const Fn& fn) {
  return fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
}

}  // namespace

void Corpus::add(SourceFile f) { files.push_back(std::move(f)); }

void Corpus::index() {
  fns.clear();
  fns_by_name.clear();
  for (std::size_t i = 0; i < files.size(); ++i)
    for (auto& fn : extract_functions(files[i], static_cast<int>(i)))
      fns.push_back(std::move(fn));
  for (std::size_t i = 0; i < fns.size(); ++i)
    fns_by_name[fns[i].name].push_back(static_cast<int>(i));
}

Analyzer::Analyzer(Corpus corpus) : corpus_(std::move(corpus)) {}

const std::vector<CheckInfo>& Analyzer::checks() {
  static const std::vector<CheckInfo> kChecks = {
      {"irrevocable-call-in-tx",
       "no irrevocable operation reachable from transactional code unless "
       "deferred (atomic_defer) or waived (become_irrevocable)"},
      {"defer-ordering",
       "ordered deferral registrations must precede the transaction's "
       "first tvar write in the same region"},
      {"epilogue-purity",
       "deferred lambdas must not re-enter stm::atomic, register new "
       "deferrals, or use the transactional handle"},
      {"ref-capture-into-defer",
       "no [&] and no by-reference capture of region-local variables in "
       "lambdas passed to atomic_defer"},
      {"raw-tvar-access",
       "load_direct/store_direct only in init/teardown, *_direct helpers, "
       "or under tmsan::ScopedRawIgnore"},
      {"tx-region",
       "no sleeps or OS mutexes lexically inside stm::atomic bodies"},
      {"move-in-tx-body",
       "no std::move, inside an stm::atomic body, of a variable declared "
       "outside it"},
      {"env-config",
       "ADTM_* env vars only read through common/env.cpp"},
  };
  return kChecks;
}

bool Analyzer::is_check(const std::string& name) {
  for (const auto& c : checks())
    if (name == c.name) return true;
  return false;
}

bool Analyzer::in_scope(const std::string& check,
                        const std::string& path) const {
  if (path.find("tests/analysis/fixtures/") != std::string::npos) return false;
  if (check == "env-config" || check == "raw-tvar-access")
    return under_any(path, {"src/", "examples/"});
  return under_any(path, {"src/", "bench/", "examples/"});
}

bool Analyzer::machinery(const std::string& path) {
  if (under_any(path, {"src/stm/", "src/tmsan/", "src/liveness/", "src/obs/",
                       "src/health/", "src/common/", "src/faultsim/",
                       "src/fdpool/"}))
    return true;
  return name_in(path,
                 {"src/adtm.hpp", "src/defer/atomic_defer.hpp",
                  "src/defer/atomic_defer.cpp", "src/defer/txlock.hpp",
                  "src/defer/txlock.cpp", "src/defer/txcondvar.hpp",
                  "src/defer/txcondvar.cpp", "src/defer/failure_policy.hpp",
                  "src/defer/failure_policy.cpp", "src/defer/deferrable.hpp"});
}

std::vector<TxRegion> Analyzer::tx_regions(const std::string& check,
                                           bool scoped) const {
  std::vector<TxRegion> out;
  for (std::size_t fi = 0; fi < corpus_.files.size(); ++fi) {
    const SourceFile& f = corpus_.files[fi];
    if (scoped && !in_scope(check, f.path)) continue;
    if (scoped && machinery(f.path)) continue;

    // Bodies of functions taking stm::Tx& (skipped for the legacy tx-region
    // check, which by definition covers only stm::atomic bodies).
    if (check != "tx-region") {
      for (std::size_t k = 0; k < corpus_.fns.size(); ++k) {
        const Fn& fn = corpus_.fns[k];
        if (fn.file != static_cast<int>(fi) || fn.tx_param.empty() ||
            fn.body_open == 0)
          continue;
        TxRegion r;
        r.file = static_cast<int>(fi);
        r.begin = fn.body_open + 1;
        r.end = fn.body_close;
        r.tx = fn.tx_param;
        r.desc = qname(fn);
        r.line = fn.line;
        r.fn = static_cast<int>(k);
        out.push_back(std::move(r));
      }
    }

    // Bodies of lambdas passed to stm::atomic / atomic_nested.
    const auto& T = f.toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if (!is_id(T[i]) ||
          !(T[i].text == "atomic" || T[i].text == "atomic_nested"))
        continue;
      if (!is_p(T[i + 1], "(")) continue;
      if (i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"))) continue;
      const auto args = split_args(f, i + 1);
      for (const auto& a : args) {
        std::size_t bo = 0, bc = 0;
        if (!arg_is_lambda(f, a.first, a.second, bo, bc)) continue;
        TxRegion r;
        r.file = static_cast<int>(fi);
        r.begin = bo + 1;
        r.end = bc;
        r.tx = lambda_first_param(f, bo);
        if (r.tx.empty() && !args.empty() &&
            args[0].second == args[0].first + 1 && is_id(T[args[0].first]))
          r.tx = T[args[0].first].text;  // atomic_nested(tx, [&]{...})
        r.desc = "stm::atomic at line " + std::to_string(T[i].line);
        r.line = T[i].line;
        out.push_back(std::move(r));
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> Analyzer::epilogue_ranges(
    const SourceFile& f, std::size_t begin, std::size_t end) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto& T = f.toks;
  for (std::size_t i = begin; i < end && i + 1 < T.size(); ++i) {
    if (!is_id(T[i]) || !is_p(T[i + 1], "(")) continue;
    const bool recv =
        i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"));
    std::size_t argidx = static_cast<std::size_t>(-1);
    if (T[i].text == "atomic_defer" && !recv)
      argidx = 1;
    else if ((T[i].text == "on_commit" || T[i].text == "on_abort") && recv)
      argidx = 0;
    if (argidx == static_cast<std::size_t>(-1)) continue;
    const auto args = split_args(f, i + 1);
    if (args.size() <= argidx) continue;
    std::size_t bo = 0, bc = 0;
    if (arg_is_lambda(f, args[argidx].first, args[argidx].second, bo, bc))
      out.emplace_back(args[argidx].first, bc);
  }
  return out;
}

std::vector<int> Analyzer::resolve(const CallSite& cs) const {
  auto it = corpus_.fns_by_name.find(cs.name);
  if (it == corpus_.fns_by_name.end()) return {};
  std::vector<int> cand;
  for (int k : it->second) {
    const Fn& fn = corpus_.fns[k];
    // Generous arity window: comma counts overcount at both ends when
    // template arguments are involved.
    const bool arity_ok = cs.argc + 1 >= fn.min_args &&
                          (fn.max_args < 0 || cs.argc <= fn.max_args + 2);
    if (arity_ok) cand.push_back(k);
  }
  if (cand.empty()) return {};
  if (!cs.qual.empty() && cs.qual != "::") {
    std::string last = cs.qual;
    const auto pos = last.rfind("::");
    if (pos != std::string::npos) last = last.substr(pos + 2);
    std::vector<int> filt;
    for (int k : cand)
      if (corpus_.fns[k].cls == last) filt.push_back(k);
    if (!filt.empty()) cand = std::move(filt);
  }
  // A same-class overload set is fine to traverse as a unit; candidates
  // spread over distinct classes are ambiguous -> unresolved (documented
  // false-negative edge).
  for (int k : cand)
    if (corpus_.fns[k].cls != corpus_.fns[cand[0]].cls) return {};
  return cand;
}

int Analyzer::enclosing_fn(int file, std::size_t tok) const {
  int best = -1;
  for (std::size_t k = 0; k < corpus_.fns.size(); ++k) {
    const Fn& fn = corpus_.fns[k];
    if (fn.file != file || fn.body_open == 0 || tok <= fn.body_open ||
        tok >= fn.body_close)
      continue;
    if (best < 0 || fn.body_open > corpus_.fns[best].body_open)
      best = static_cast<int>(k);
  }
  return best;
}

// ---------------------------------------------------------------------------
// irrevocable-call-in-tx
// ---------------------------------------------------------------------------

std::vector<Analyzer::Sink> Analyzer::scan_sinks(
    const SourceFile& f, std::size_t begin, std::size_t end,
    const std::vector<std::pair<std::size_t, std::size_t>>& excluded,
    std::size_t* waived_at) const {
  std::vector<Sink> out;
  *waived_at = 0;
  const auto& T = f.toks;
  for (std::size_t i = begin; i < end && i + 1 < T.size(); ++i) {
    if (const std::size_t to = skip_to(excluded, i)) {
      i = to;
      continue;
    }
    const Token& t = T[i];
    if (!is_id(t)) continue;
    const bool call = is_p(T[i + 1], "(");
    const bool recv =
        i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"));
    const bool colon_prev = i > 0 && is_p(T[i - 1], "::");
    const bool qual_global = colon_prev && (i < 2 || !is_id(T[i - 2]));
    const bool qual_std = colon_prev && i >= 2 && id_is(T[i - 2], "std");
    auto add = [&](const char* label) {
      // An allow annotation on the sink line waives the sink itself, and
      // with it every transactional caller that reaches it transitively.
      if (f.allowed(t.line, "irrevocable-call-in-tx")) return;
      out.push_back(Sink{i, t.line, label});
    };

    if (call && !recv && t.text == "become_irrevocable") {
      *waived_at = i;
      return out;
    }
    if (call && recv) {
      if (name_in(t.text, {"lock", "unlock", "try_lock", "try_lock_for",
                           "lock_shared", "unlock_shared"})) {
        add("blocking mutex operation");
        continue;
      }
      if (name_in(t.text, {"submit", "submit_write"})) {
        add("async I/O submit");
        continue;
      }
    }
    if (call && name_in(t.text, {"sleep_for", "sleep_until", "usleep",
                                 "nanosleep"})) {
      add("sleep");
      continue;
    }
    if (call && !recv) {
      if (qual_global &&
          name_in(t.text, {"write", "pwrite", "pread", "read", "open",
                           "openat", "close", "lseek", "fsync", "fdatasync",
                           "ftruncate", "unlink", "rename"})) {
        add("POSIX I/O syscall");
        continue;
      }
      if ((!colon_prev || qual_global || qual_std) &&
          name_in(t.text, {"fsync", "fdatasync", "ftruncate", "truncate",
                           "unlink", "rename", "system", "fork", "msync"})) {
        add("POSIX I/O syscall");
        continue;
      }
      if ((!colon_prev || qual_global || qual_std) &&
          name_in(t.text, {"printf", "fprintf", "puts", "fputs", "fwrite",
                           "fflush", "putchar", "perror"})) {
        add("stdio output");
        continue;
      }
    }
    if (!call) {
      if (colon_prev && name_in(t.text, {"cout", "cerr", "clog"})) {
        add("iostream output");
        continue;
      }
      if (name_in(t.text, {"lock_guard", "unique_lock", "scoped_lock",
                           "shared_lock", "condition_variable",
                           "condition_variable_any"})) {
        add("blocking sync primitive");
        continue;
      }
      if (colon_prev && i >= 2 && id_is(T[i - 2], "std") &&
          name_in(t.text,
                  {"mutex", "shared_mutex", "recursive_mutex",
                   "timed_mutex"})) {
        add("OS mutex");
        continue;
      }
    }
  }
  return out;
}

Analyzer::SinkSummary Analyzer::sink_summary(int fn_idx) {
  const int st = sink_state_[fn_idx];
  if (st == 2) return sink_memo_[fn_idx];
  if (st == 1) return SinkSummary{};  // cycle: optimistic
  sink_state_[fn_idx] = 1;

  SinkSummary s;
  const Fn& fn = corpus_.fns[fn_idx];
  if (fn.body_open != 0) {
    const SourceFile& f = corpus_.files[fn.file];
    const auto excl = epilogue_ranges(f, fn.body_open + 1, fn.body_close);
    std::size_t waived = 0;
    for (const Sink& sk :
         scan_sinks(f, fn.body_open + 1, fn.body_close, excl, &waived)) {
      if (f.allowed(sk.line, "irrevocable-call-in-tx")) continue;
      s.has = true;
      s.label = sk.label;
      s.chain.push_back(qname(fn) + " hits " + sk.label + " at " + f.path +
                        ":" + std::to_string(sk.line));
      break;
    }
    if (!s.has) {
      const std::size_t end = waived != 0 ? waived : fn.body_close;
      for (const CallSite& cs :
           collect_calls(f, fn.body_open + 1, end, excl)) {
        for (int callee : resolve(cs)) {
          if (callee == fn_idx) continue;
          if (machinery(corpus_.files[corpus_.fns[callee].file].path))
            continue;
          const SinkSummary sub = sink_summary(callee);
          if (sub.has) {
            s.has = true;
            s.label = sub.label;
            s.chain.push_back(qname(fn) + " calls " +
                              qname(corpus_.fns[callee]) + " at " + f.path +
                              ":" + std::to_string(cs.line));
            s.chain.insert(s.chain.end(), sub.chain.begin(), sub.chain.end());
            break;
          }
        }
        if (s.has) break;
      }
    }
  }
  sink_state_[fn_idx] = 2;
  sink_memo_[fn_idx] = s;
  return s;
}

void Analyzer::check_irrevocable(std::vector<Finding>& out, bool scoped) {
  for (const TxRegion& r : tx_regions("irrevocable-call-in-tx", scoped)) {
    const SourceFile& f = corpus_.files[r.file];
    const auto excl = epilogue_ranges(f, r.begin, r.end);
    std::size_t waived = 0;
    for (const Sink& sk : scan_sinks(f, r.begin, r.end, excl, &waived)) {
      Finding fd;
      fd.check = "irrevocable-call-in-tx";
      fd.path = f.path;
      fd.line = sk.line;
      fd.message = std::string(sk.label) + " inside transactional region '" +
                   r.desc + "'; defer it with atomic_defer or use "
                   "become_irrevocable";
      fd.ctx = r.desc;
      out.push_back(std::move(fd));
    }
    const std::size_t end = waived != 0 ? waived : r.end;
    for (const CallSite& cs : collect_calls(f, r.begin, end, excl)) {
      for (int callee : resolve(cs)) {
        if (machinery(corpus_.files[corpus_.fns[callee].file].path)) continue;
        if (r.fn >= 0 && callee == r.fn) continue;
        const SinkSummary sub = sink_summary(callee);
        if (sub.has) {
          Finding fd;
          fd.check = "irrevocable-call-in-tx";
          fd.path = f.path;
          fd.line = cs.line;
          fd.message = "call to '" + cs.name + "' reaches " + sub.label +
                       " inside transactional region '" + r.desc +
                       "'; defer it with atomic_defer";
          fd.chain = sub.chain;
          fd.ctx = r.desc;
          out.push_back(std::move(fd));
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// defer-ordering
// ---------------------------------------------------------------------------

std::vector<Analyzer::DoEvent> Analyzer::scan_do_events(
    const SourceFile& f, std::size_t begin, std::size_t end,
    const std::string& tx, bool transitive) {
  std::vector<DoEvent> out;
  const auto excl = epilogue_ranges(f, begin, end);
  const auto& T = f.toks;
  std::vector<std::size_t> handled;
  // Objects whose TxLock this region has already subscribed/acquired:
  // TxLock::acquire is reentrant for the owning transaction, so a later
  // registration on a pre-subscribed object cannot block (and cannot
  // retry). Tracked by base identifier — a lexical heuristic.
  std::vector<std::pair<std::string, std::size_t>> presub;
  auto presubbed = [&](const std::string& base, std::size_t before) {
    if (base.empty()) return false;
    for (const auto& p : presub)
      if (p.first == base && p.second < before) return true;
    return false;
  };
  auto arg_base = [&](std::size_t b, std::size_t e) {
    std::string last;
    for (std::size_t k = b; k < e; ++k)
      if (is_id(T[k])) last = T[k].text;
    return last;
  };
  for (std::size_t i = begin; i < end && i + 1 < T.size(); ++i) {
    if (const std::size_t to = skip_to(excl, i)) {
      i = to;
      continue;
    }
    const Token& t = T[i];
    if (!is_id(t) || !is_p(T[i + 1], "(")) continue;
    const bool recv =
        i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"));

    // Ordered registrations / blocking waits: must come before any write.
    if (t.text == "atomic_defer" && !recv) {
      const auto args = split_args(f, i + 1);
      // Two-argument atomic_defer is the "pass nil" form: no TxLocks, no
      // retry risk. Three or more arguments (and a non-empty lock list)
      // acquire locks inside the transaction.
      bool locks = args.size() >= 3;
      if (locks && args.size() == 3 && args[2].second == args[2].first + 2 &&
          is_p(T[args[2].first], "{") && is_p(T[args[2].first + 1], "}"))
        locks = false;  // atomic_defer(tx, fn, {})
      if (locks) {
        bool all_presub = true;
        for (std::size_t a = 2; a < args.size(); ++a)
          if (!presubbed(arg_base(args[a].first, args[a].second), i))
            all_presub = false;
        if (!all_presub)
          out.push_back(DoEvent{i, t.line, false,
                                "atomic_defer with TxLocks", {}});
      }
      handled.push_back(i);
      continue;
    }
    if (recv && t.text == "log" && first_arg_is(f, i, tx)) {
      if (!presubbed(receiver_base(f, i), i))
        out.push_back(DoEvent{
            i, t.line, false,
            "ordered deferred log ('" + receiver_base(f, i) + ".log')", {}});
      handled.push_back(i);
      continue;
    }
    if ((t.text == "durable_write" || t.text == "wait_durable") &&
        first_arg_is(f, i, tx)) {
      const auto args = split_args(f, i + 1);
      bool all_presub = args.size() > 1;
      for (std::size_t a = 1; a < args.size(); ++a)
        if (!presubbed(arg_base(args[a].first, args[a].second), i))
          all_presub = false;
      if (!all_presub)
        out.push_back(
            DoEvent{i, t.line, false, "'" + t.text + "' registration", {}});
      handled.push_back(i);
      continue;
    }
    if ((t.text == "acquire" || t.text == "subscribe") &&
        first_arg_is(f, i, tx)) {
      std::string base = receiver_base(f, i);
      if (base.empty()) base = "this";
      if (!presubbed(base, i))
        out.push_back(DoEvent{i, t.line, false,
                              "TxLock " + t.text + " (blocks via retry when "
                              "contended)", {}});
      presub.emplace_back(base, i);
      handled.push_back(i);
      continue;
    }

    // Tvar writes.
    if (recv && t.text == "store_direct") {
      out.push_back(DoEvent{i, t.line, true,
                            "raw store ('" + receiver_base(f, i) +
                                ".store_direct')", {}});
      handled.push_back(i);
      continue;
    }
    if (recv &&
        name_in(t.text, {"set", "put", "del", "insert", "erase", "remove",
                         "push", "push_back", "pop", "store", "append",
                         "clear", "add", "incr", "write"}) &&
        first_arg_is(f, i, tx)) {
      out.push_back(DoEvent{i, t.line, true,
                            "tvar write ('" + receiver_base(f, i) + "." +
                                t.text + "')", {}});
      handled.push_back(i);
      continue;
    }
  }

  if (transitive) {
    for (const CallSite& cs : collect_calls(f, begin, end, excl)) {
      if (std::find(handled.begin(), handled.end(), cs.tok) != handled.end())
        continue;
      for (int callee : resolve(cs)) {
        if (machinery(corpus_.files[corpus_.fns[callee].file].path)) continue;
        const DoSummary ds = do_summary(callee);
        const Fn& cfn = corpus_.fns[callee];
        auto wevent = [&] {
          out.push_back(DoEvent{cs.tok, cs.line, true,
                                "call to '" + qname(cfn) + "' which writes",
                                {qname(cfn) + ": " + ds.wwhat + " at " +
                                 corpus_.files[cfn.file].path + ":" +
                                 std::to_string(ds.write_line)}});
        };
        auto revent = [&] {
          out.push_back(DoEvent{cs.tok, cs.line, false,
                                "call to '" + qname(cfn) +
                                    "' which registers an ordered deferral",
                                {qname(cfn) + ": " + ds.rwhat + " at " +
                                 corpus_.files[cfn.file].path + ":" +
                                 std::to_string(ds.reg_line)}});
        };
        // A callee that registers on its receiver is harmless when that
        // object's TxLock was subscribed earlier in this region (reentrant
        // acquire — cannot block, cannot retry).
        const bool reg_suppressed =
            ds.reg_line >= 0 && presubbed(receiver_base(f, cs.tok), cs.tok);
        // Emit in the callee's own internal order (stable_sort keeps it).
        if (ds.reg_first) {
          if (ds.reg_line >= 0 && !reg_suppressed) revent();
          if (ds.write_line >= 0) wevent();
        } else {
          if (ds.write_line >= 0) wevent();
          if (ds.reg_line >= 0 && !reg_suppressed) revent();
        }
        if (ds.write_line >= 0 || ds.reg_line >= 0) break;
      }
    }
  }
  std::stable_sort(
      out.begin(), out.end(),
      [](const DoEvent& a, const DoEvent& b) { return a.tok < b.tok; });
  return out;
}

Analyzer::DoSummary Analyzer::do_summary(int fn_idx) {
  const int st = do_state_[fn_idx];
  if (st == 2) return do_memo_[fn_idx];
  if (st == 1) return DoSummary{};
  do_state_[fn_idx] = 1;

  DoSummary s;
  const Fn& fn = corpus_.fns[fn_idx];
  if (fn.body_open != 0) {
    const SourceFile& f = corpus_.files[fn.file];
    for (const DoEvent& ev : scan_do_events(f, fn.body_open + 1,
                                            fn.body_close, fn.tx_param,
                                            /*transitive=*/true)) {
      if (ev.write && s.write_line < 0) {
        s.write_line = ev.line;
        s.wwhat = ev.what;
      }
      if (!ev.write && s.reg_line < 0) {
        s.reg_line = ev.line;
        s.rwhat = ev.what;
        s.reg_first = s.write_line < 0;
      }
    }
  }
  do_state_[fn_idx] = 2;
  do_memo_[fn_idx] = s;
  return s;
}

void Analyzer::check_defer_ordering(std::vector<Finding>& out, bool scoped) {
  for (const TxRegion& r : tx_regions("defer-ordering", scoped)) {
    const SourceFile& f = corpus_.files[r.file];
    const auto events =
        scan_do_events(f, r.begin, r.end, r.tx, /*transitive=*/true);
    const DoEvent* first_write = nullptr;
    for (const DoEvent& ev : events) {
      if (ev.write) {
        if (first_write == nullptr) first_write = &ev;
        continue;
      }
      if (first_write == nullptr) continue;
      Finding fd;
      fd.check = "defer-ordering";
      fd.path = f.path;
      fd.line = ev.line;
      fd.message =
          ev.what + " after the transaction's first tvar write (" +
          first_write->what + " at line " +
          std::to_string(first_write->line) + ") in region '" + r.desc +
          "'; a contended registration retries, which is illegal after a "
          "write under direct-update modes — register deferrals first";
      fd.chain = ev.chain;
      if (!first_write->chain.empty())
        fd.chain.insert(fd.chain.end(), first_write->chain.begin(),
                        first_write->chain.end());
      fd.ctx = r.desc;
      out.push_back(std::move(fd));
    }
  }
}

// ---------------------------------------------------------------------------
// epilogue-purity
// ---------------------------------------------------------------------------

void Analyzer::check_epilogue_purity(std::vector<Finding>& out, bool scoped) {
  for (const TxRegion& r : tx_regions("epilogue-purity", scoped)) {
    const SourceFile& f = corpus_.files[r.file];
    const auto& T = f.toks;
    for (const auto& ep : epilogue_ranges(f, r.begin, r.end)) {
      // ep.first is the lambda's '['; find the body.
      std::size_t cc = 0, bo = 0, bc = 0;
      if (!lambda_at(f, ep.first, cc, bo, bc)) continue;
      auto flag = [&](std::size_t i, const std::string& msg) {
        Finding fd;
        fd.check = "epilogue-purity";
        fd.path = f.path;
        fd.line = T[i].line;
        fd.message = msg + " in deferred epilogue of region '" + r.desc +
                     "' (epilogues run post-commit and must not touch the "
                     "STM runtime)";
        fd.ctx = r.desc;
        out.push_back(std::move(fd));
      };
      // Capturing the transactional handle is wrong even before use.
      if (!r.tx.empty()) {
        for (std::size_t i = ep.first + 1; i < cc; ++i)
          if (id_is(T[i], r.tx.c_str()))
            flag(i, "captures transactional handle '" + r.tx + "'");
      }
      for (std::size_t i = bo + 1; i < bc; ++i) {
        if (!is_id(T[i])) continue;
        const bool call = is_p(T[i + 1], "(");
        const bool recv =
            i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"));
        if (!r.tx.empty() && id_is(T[i], r.tx.c_str())) {
          flag(i, "uses transactional handle '" + r.tx + "'");
          continue;
        }
        if (call && !recv &&
            (T[i].text == "atomic" || T[i].text == "atomic_nested")) {
          // Only when actually passing a lambda (i.e. running a
          // transaction), to dodge unrelated names.
          const auto args = split_args(f, i + 1);
          std::size_t lbo = 0, lbc = 0;
          bool is_txn = false;
          for (const auto& a : args)
            if (arg_is_lambda(f, a.first, a.second, lbo, lbc)) is_txn = true;
          if (is_txn) flag(i, "re-enters stm::atomic");
          continue;
        }
        if (call && !recv && T[i].text == "atomic_defer") {
          flag(i, "registers a new deferral");
          continue;
        }
        if (call && !recv && T[i].text == "retry") {
          flag(i, "calls stm::retry");
          continue;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ref-capture-into-defer
// ---------------------------------------------------------------------------

void Analyzer::check_ref_capture(std::vector<Finding>& out, bool scoped) {
  const auto regions = tx_regions("ref-capture-into-defer", scoped);
  for (std::size_t fi = 0; fi < corpus_.files.size(); ++fi) {
    const SourceFile& f = corpus_.files[fi];
    if (scoped &&
        (!in_scope("ref-capture-into-defer", f.path) || machinery(f.path)))
      continue;
    const auto& T = f.toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if (!id_is(T[i], "atomic_defer") || !is_p(T[i + 1], "(")) continue;
      if (i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"))) continue;
      const auto args = split_args(f, i + 1);
      if (args.size() < 2) continue;
      std::size_t cc = 0, bo = 0, bc = 0;
      if (!is_p(T[args[1].first], "[") ||
          !lambda_at(f, args[1].first, cc, bo, bc))
        continue;
      // Innermost enclosing transactional region, for scope tracking.
      const TxRegion* reg = nullptr;
      for (const auto& r : regions) {
        if (r.file != static_cast<int>(fi) || i < r.begin || i > r.end)
          continue;
        if (reg == nullptr || r.begin > reg->begin) reg = &r;
      }
      auto flag = [&](std::size_t at, const std::string& msg) {
        Finding fd;
        fd.check = "ref-capture-into-defer";
        fd.path = f.path;
        fd.line = T[at].line;
        fd.message = msg;
        fd.ctx = reg != nullptr ? reg->desc : std::string("atomic_defer");
        out.push_back(std::move(fd));
      };
      // Walk the capture list [args[1].first+1, cc).
      const auto caps = split_args(f, args[1].first);
      for (const auto& cap : caps) {
        if (cap.first >= cap.second) continue;
        const std::size_t b = cap.first;
        if (is_p(T[b], "&")) {
          if (cap.second == b + 1) {
            flag(b,
                 "blanket [&] capture in atomic_defer lambda; the epilogue "
                 "runs post-commit — capture by value (or move) instead");
            continue;
          }
          if (is_id(T[b + 1])) {
            const std::string name = T[b + 1].text;
            // Init-capture `&x = expr` aliases expr; plain `&x` aliases x.
            // Either way, a region-local is dead wrong to alias if the
            // region can retry (the epilogue sees the last attempt's
            // frame, but earlier attempts' effects were rolled back).
            if (reg != nullptr && declared_in(f, name, reg->begin, i))
              flag(b + 1,
                   "captures region-local '" + name +
                       "' by reference in atomic_defer lambda; locals "
                       "declared inside the transaction are re-created on "
                       "retry — capture by value (or move) instead");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// raw-tvar-access
// ---------------------------------------------------------------------------

void Analyzer::build_callers() {
  if (callers_built_) return;
  callers_built_ = true;
  for (std::size_t k = 0; k < corpus_.fns.size(); ++k) {
    const Fn& fn = corpus_.fns[k];
    if (fn.body_open == 0) continue;
    const SourceFile& f = corpus_.files[fn.file];
    for (const CallSite& cs :
         collect_calls(f, fn.body_open + 1, fn.body_close, {}))
      callers_of_[cs.name].push_back(static_cast<int>(k));
  }
}

bool Analyzer::raw_context_allowed(int fn_idx, std::map<int, int>& state) {
  auto it = state.find(fn_idx);
  if (it != state.end()) return it->second != 0;
  const Fn& fn = corpus_.fns[fn_idx];
  if (fn.ctor_dtor || fn.name == "main" ||
      (fn.name.size() > 7 &&
       fn.name.compare(fn.name.size() - 7, 7, "_direct") == 0)) {
    state[fn_idx] = 1;
    return true;
  }
  // Optimistic for cycles: recursion through an allowed entry point stays
  // allowed.
  state[fn_idx] = 1;
  build_callers();
  const auto cit = callers_of_.find(fn.name);
  bool ok = cit != callers_of_.end() && !cit->second.empty();
  if (ok) {
    for (int caller : cit->second) {
      if (caller == fn_idx) continue;
      if (!raw_context_allowed(caller, state)) {
        ok = false;
        break;
      }
    }
  }
  state[fn_idx] = ok ? 1 : 0;
  return ok;
}

void Analyzer::check_raw_tvar(std::vector<Finding>& out, bool scoped) {
  std::map<int, int> state;
  for (std::size_t fi = 0; fi < corpus_.files.size(); ++fi) {
    const SourceFile& f = corpus_.files[fi];
    if (scoped &&
        (!in_scope("raw-tvar-access", f.path) || machinery(f.path)))
      continue;
    const auto& T = f.toks;
    // Bodies of lambdas handed to stm::atomic / atomic_nested in this
    // file, for the load-outside-tx exemption below.
    std::vector<std::pair<std::size_t, std::size_t>> atomic_bodies;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if (!is_id(T[i]) ||
          !(T[i].text == "atomic" || T[i].text == "atomic_nested"))
        continue;
      if (!is_p(T[i + 1], "(")) continue;
      if (i > 0 && (is_p(T[i - 1], ".") || is_p(T[i - 1], "->"))) continue;
      for (const auto& a : split_args(f, i + 1)) {
        std::size_t bo = 0, bc = 0;
        if (arg_is_lambda(f, a.first, a.second, bo, bc))
          atomic_bodies.emplace_back(bo, bc);
      }
    }
    for (std::size_t i = 1; i + 1 < T.size(); ++i) {
      if (!is_id(T[i]) ||
          !(T[i].text == "load_direct" || T[i].text == "store_direct"))
        continue;
      if (!is_p(T[i + 1], "(")) continue;
      if (!is_p(T[i - 1], ".") && !is_p(T[i - 1], "->")) continue;
      const int enc = enclosing_fn(static_cast<int>(fi), i);
      if (T[i].text == "load_direct") {
        // A raw *load* in code with no transactional context is a point
        // snapshot (monitoring loops, post-join asserts); tmsan owns that
        // race class dynamically. Raw *stores* stay strict everywhere.
        const bool in_tx_fn =
            enc >= 0 && !corpus_.fns[enc].tx_param.empty();
        bool in_atomic = false;
        for (const auto& b : atomic_bodies)
          if (i > b.first && i < b.second) {
            in_atomic = true;
            break;
          }
        if (!in_tx_fn && !in_atomic) continue;
      }
      if (enc >= 0 && raw_context_allowed(enc, state)) continue;
      if (enc >= 0) {
        const Fn& fn = corpus_.fns[enc];
        // tx.alloc init idiom: raw-initialising an object created by this
        // transaction is safe (nobody else can see it yet).
        const std::string base = receiver_base(f, i);
        bool alloc_init = false;
        if (!base.empty() && !fn.tx_param.empty()) {
          for (std::size_t j = fn.body_open + 1; j + 1 < i; ++j) {
            if (!id_is(T[j], base.c_str()) || !is_p(T[j + 1], "=")) continue;
            for (std::size_t k = j + 2; k < i && !is_p(T[k], ";"); ++k)
              if (id_is(T[k], "alloc") || id_is(T[k], "tx_alloc"))
                alloc_init = true;
            if (alloc_init) break;
          }
        }
        if (alloc_init) continue;
        // tmsan::ScopedRawIgnore in scope before the access.
        bool ignored = false;
        for (std::size_t j = fn.body_open + 1; j < i; ++j)
          if (id_is(T[j], "ScopedRawIgnore")) ignored = true;
        if (ignored) continue;
      }
      Finding fd;
      fd.check = "raw-tvar-access";
      fd.path = f.path;
      fd.line = T[i].line;
      fd.message =
          "raw tvar access '" + T[i].text + "' outside an init/teardown or "
          "*_direct context; use get/set(tx) inside a transaction, add "
          "tmsan::ScopedRawIgnore for gate-serialized phases, or rename "
          "the accessor with a _direct suffix";
      fd.ctx = enc >= 0 ? qname(corpus_.fns[enc]) : f.path;
      out.push_back(std::move(fd));
    }
  }
}

// ---------------------------------------------------------------------------
// lexical checks
// ---------------------------------------------------------------------------

void Analyzer::check_tx_region(std::vector<Finding>& out, bool scoped) {
  for (const TxRegion& r : tx_regions("tx-region", scoped)) {
    const SourceFile& f = corpus_.files[r.file];
    const auto excl = epilogue_ranges(f, r.begin, r.end);
    const auto& T = f.toks;
    for (std::size_t i = r.begin; i < r.end && i + 1 < T.size(); ++i) {
      if (const std::size_t to = skip_to(excl, i)) {
        i = to;
        continue;
      }
      if (!is_id(T[i])) continue;
      const char* what = nullptr;
      if (T[i].text == "sleep_for" || T[i].text == "sleep_until")
        what = "thread sleep";
      else if (T[i].text == "mutex" && i > 0 && is_p(T[i - 1], "::") &&
               i >= 2 && id_is(T[i - 2], "std"))
        what = "std::mutex";
      else if ((T[i].text == "lock_guard" || T[i].text == "unique_lock") &&
               is_p(T[i + 1], "<"))
        what = "OS lock wrapper";
      if (what == nullptr) continue;
      Finding fd;
      fd.check = "tx-region";
      fd.path = f.path;
      fd.line = T[i].line;
      fd.message = std::string(what) +
                   " lexically inside an stm::atomic body; transactions "
                   "must not block on OS primitives (defer the operation "
                   "or restructure)";
      fd.ctx = r.desc;
      out.push_back(std::move(fd));
    }
  }
}

// ---------------------------------------------------------------------------
// move-in-tx-body
// ---------------------------------------------------------------------------

void Analyzer::check_move_in_tx(std::vector<Finding>& out, bool scoped) {
  for (const TxRegion& r : tx_regions("move-in-tx-body", scoped)) {
    // A function taking Tx& gets fresh parameters on every call; only a
    // lambda body re-executes against the same enclosing variables.
    if (r.fn >= 0) continue;
    const SourceFile& f = corpus_.files[r.file];
    const auto& T = f.toks;
    // Deferred lambda bodies run once, after commit. Their capture lists
    // are evaluated by every attempt and stay in scope.
    std::vector<std::pair<std::size_t, std::size_t>> once;
    for (const auto& ep : epilogue_ranges(f, r.begin, r.end)) {
      std::size_t cc = 0, bo = 0, bc = 0;
      if (lambda_at(f, ep.first, cc, bo, bc) && bc > bo)
        once.emplace_back(bo, bc);
    }
    for (std::size_t i = r.begin; i + 4 < r.end; ++i) {
      if (const std::size_t to = skip_to(once, i)) {
        i = to;
        continue;
      }
      if (!id_is(T[i], "std") || !is_p(T[i + 1], "::") ||
          !id_is(T[i + 2], "move") || !is_p(T[i + 3], "(") ||
          !is_id(T[i + 4]))
        continue;
      // The base identifier of the moved expression: `x`, `x.field`,
      // `this->member_`.
      const std::string& name = T[i + 4].text;
      if (declared_in(f, name, r.begin - 1, i)) continue;
      Finding fd;
      fd.check = "move-in-tx-body";
      fd.path = f.path;
      fd.line = T[i].line;
      fd.message = "std::move of '" + name +
                   "', declared outside this stm::atomic body; a "
                   "re-executed body moves it again and sees the moved-from "
                   "value — copy it per attempt, or move it after the "
                   "transaction";
      fd.ctx = r.desc;
      out.push_back(std::move(fd));
    }
  }
}

void Analyzer::check_env_config(std::vector<Finding>& out, bool scoped) {
  for (std::size_t fi = 0; fi < corpus_.files.size(); ++fi) {
    const SourceFile& f = corpus_.files[fi];
    if (scoped && !in_scope("env-config", f.path)) continue;
    if (name_in(f.path, {"src/common/env.cpp", "src/common/runtime_config.cpp"}))
      continue;
    const auto& T = f.toks;
    for (std::size_t i = 0; i + 2 < T.size(); ++i) {
      if (!id_is(T[i], "getenv") || !is_p(T[i + 1], "(")) continue;
      const Token& arg = T[i + 2];
      if (arg.kind != Token::Kind::String ||
          arg.text.compare(0, 5, "ADTM_") != 0)
        continue;
      Finding fd;
      fd.check = "env-config";
      fd.path = f.path;
      fd.line = T[i].line;
      fd.message = "direct getenv(\"" + arg.text +
                   "\"); route ADTM_* configuration through common/env.cpp "
                   "so defaults and validation stay in one place";
      fd.ctx = arg.text;
      out.push_back(std::move(fd));
    }
  }
}

// ---------------------------------------------------------------------------

std::vector<Finding> Analyzer::run(const std::string& name, bool scoped) {
  std::vector<Finding> out;
  if (name == "irrevocable-call-in-tx")
    check_irrevocable(out, scoped);
  else if (name == "defer-ordering")
    check_defer_ordering(out, scoped);
  else if (name == "epilogue-purity")
    check_epilogue_purity(out, scoped);
  else if (name == "ref-capture-into-defer")
    check_ref_capture(out, scoped);
  else if (name == "raw-tvar-access")
    check_raw_tvar(out, scoped);
  else if (name == "tx-region")
    check_tx_region(out, scoped);
  else if (name == "env-config")
    check_env_config(out, scoped);
  else if (name == "move-in-tx-body")
    check_move_in_tx(out, scoped);

  // Comment suppressions: the check's name, or "all".
  std::unordered_map<std::string, const SourceFile*> by_path;
  for (const auto& f : corpus_.files) by_path[f.path] = &f;
  std::vector<Finding> kept;
  for (auto& fd : out) {
    const auto it = by_path.find(fd.path);
    if (it != by_path.end()) {
      const SourceFile& f = *it->second;
      if (f.allowed(fd.line, name) || f.allowed(fd.line, "all")) continue;
    }
    kept.push_back(std::move(fd));
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.message < b.message;
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.path == b.path && a.line == b.line &&
                                  a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace txsafety
