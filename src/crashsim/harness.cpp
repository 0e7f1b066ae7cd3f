#include "crashsim/harness.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <system_error>

#include "crashsim/oracle.hpp"
#include "stm/backend.hpp"
#include "io/posix_file.hpp"
#include "kvcache/recoverable.hpp"
#include "wal/crc32.hpp"
#include "wal/wal.hpp"

namespace adtm::crashsim {
namespace {

// Torn-setup arm: a fixed 13-byte prefix of a group-commit batch is
// always mid-record (header is 8 bytes, payloads are longer than 5), so
// a phase that needs a torn tail to recover is guaranteed one.
constexpr std::size_t kSetupTornBytes = 13;

bool is_recovery_point(const std::string& point) {
  return point.rfind("wal.recover.", 0) == 0;
}

bool fires_once_per_process(const std::string& point) {
  return point == "wal.open.post_create" || is_recovery_point(point);
}

struct ArmSpec {
  std::string point;
  faultsim::CrashArm arm;
};

PhaseResult launch_phase(int phase, const WorkloadOptions& options,
                         const ArmSpec* arm, bool skip_truncate_sync) {
  PhaseResult result;
  result.phase = phase;

  // The child writes nothing to stdio, but flush inherited buffers
  // anyway so a future printf in the workload cannot double-print.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    result.outcome = ChildOutcome::Error;
    return result;
  }
  if (pid == 0) {
    // Child. The parent is single-threaded at fork time, so taking the
    // registry mutex here is safe. Arm first, then run; never return.
    if (skip_truncate_sync) {
      wal::WriteAheadLog::testing_skip_truncate_sync(true);
    }
    if (arm != nullptr) {
      const faultsim::CrashPointId id = faultsim::find_crash_point(arm->point);
      if (id == faultsim::kNoCrashPoint) ::_exit(kChildBadPoint);
      faultsim::arm_crash_point(id, arm->arm);
    }
    run_child_workload(options);  // [[noreturn]]
  }

  // Parent: bounded wait — a wedged child (the bug class crashmat exists
  // to find) must fail the case, not hang CI.
  constexpr int kTimeoutMs = 120000;
  int waited_ms = 0;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) {
      result.outcome = ChildOutcome::Error;
      return result;
    }
    if (waited_ms >= kTimeoutMs) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      result.outcome = ChildOutcome::Timeout;
      result.wait_status = status;
      return result;
    }
    ::usleep(2000);
    waited_ms += 2;
  }

  result.wait_status = status;
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kChildOk) {
      result.outcome = ChildOutcome::Completed;
    } else if (code == faultsim::kCrashExitStatus) {
      result.outcome = ChildOutcome::Crashed;
    } else {
      result.outcome = ChildOutcome::Error;
    }
  } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    result.outcome = ChildOutcome::Crashed;  // CrashAction::Kill
  } else {
    result.outcome = ChildOutcome::Error;
  }
  return result;
}

std::size_t count_lines(const std::string& haystack,
                        const std::string& needle) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

}  // namespace

const char* outcome_name(ChildOutcome o) noexcept {
  switch (o) {
    case ChildOutcome::Crashed:
      return "crashed";
    case ChildOutcome::Completed:
      return "completed";
    case ChildOutcome::Error:
      return "error";
    case ChildOutcome::Timeout:
      return "timeout";
  }
  return "?";
}

std::string TortureCase::name() const {
  std::string n = point;
  n += '/';
  n += algo;
  switch (action) {
    case faultsim::CrashAction::Exit:
      break;
    case faultsim::CrashAction::Kill:
      n += "/kill";
      break;
    case faultsim::CrashAction::Throw:
      n += "/throw";
      break;
  }
  if (persist_bytes == faultsim::CrashArm::kPersistRandom) {
    n += "/torn";
  } else if (persist_bytes != faultsim::CrashArm::kPersistNone) {
    n += "/torn" + std::to_string(persist_bytes);
  }
  if (demo_dirsync_bug) n += "/dirsync-demo";
  return n;
}

std::vector<std::string> verify_dir(const std::string& dir, int phases,
                                    bool last_phase_may_tear_wal) {
  std::vector<std::string> v;
  const auto fail = [&v](std::string why) { v.push_back(std::move(why)); };

  std::vector<OracleLog> logs;
  logs.reserve(static_cast<std::size_t>(phases));
  for (int p = 1; p <= phases; ++p) {
    logs.push_back(parse_oracle(oracle_path(dir, p)));
  }

  // --- WAL: deterministic, idempotent, clean-after-truncate -----------
  const std::string wpath = wal_path(dir);
  const auto r1 = wal::WriteAheadLog::recover(wpath);
  const auto r2 = wal::WriteAheadLog::recover(wpath);
  if (r1.records != r2.records || r1.valid_bytes != r2.valid_bytes ||
      r1.clean != r2.clean) {
    fail("recovery scan is not deterministic across two passes");
  }
  if (!r1.clean && !last_phase_may_tear_wal) {
    fail("torn WAL tail although no phase could have torn it since the "
         "last completed recovery — a truncation was lost (missing "
         "durability barrier)");
  }
  const auto rt = wal::WriteAheadLog::recover_and_truncate(wpath);
  if (rt.records != r1.records) {
    fail("recover_and_truncate changed the recovered record set");
  }
  const auto r3 = wal::WriteAheadLog::recover(wpath);
  if (!r3.clean || r3.records != r1.records) {
    fail("recovery is not idempotent: a second pass after truncation "
         "disagrees or still sees a torn tail");
  }

  // --- LSN horizon: monotone across phases, no acked-durable loss -----
  std::uint64_t prev_recovered = 0;
  std::uint64_t max_acked_durable = 0;
  for (std::size_t k = 0; k < logs.size(); ++k) {
    const OracleLog& log = logs[k];
    if (log.has_recovery) {
      if (log.recovered_records < prev_recovered) {
        fail("phase " + std::to_string(k + 1) + " recovered " +
             std::to_string(log.recovered_records) +
             " records, fewer than an earlier phase (LSN regression)");
      }
      if (log.recovered_records < max_acked_durable) {
        fail("phase " + std::to_string(k + 1) + " recovered only " +
             std::to_string(log.recovered_records) +
             " records but LSN " + std::to_string(max_acked_durable) +
             " had been acked durable (lost acknowledged data)");
      }
      prev_recovered = std::max(prev_recovered, log.recovered_records);
    }
    max_acked_durable = std::max(max_acked_durable, log.max_durable);
  }
  if (r1.records.size() < max_acked_durable) {
    fail("final log holds " + std::to_string(r1.records.size()) +
         " records but LSN " + std::to_string(max_acked_durable) +
         " was acked durable (lost acknowledged data)");
  }

  // --- Content: every recovered record belongs to some transaction ----
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    const std::uint64_t lsn = i + 1;
    const std::string& payload = r1.records[i];
    bool matched = false;
    for (const OracleLog& log : logs) {
      const auto a = log.acked.find(lsn);
      if (a != log.acked.end() && a->second == payload) {
        matched = true;
        break;
      }
      const auto in = log.intents.find(lsn);
      if (in != log.intents.end() && in->second.count(payload) != 0) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      fail("recovered record at LSN " + std::to_string(lsn) +
           " matches no committed or intended append (invented data)");
    }
  }

  // --- Replay: decodable, no double-written ops -----------------------
  std::size_t duplicates = 0;
  std::size_t undecodable = 0;
  (void)kvcache::RecoverableCache::replay(r1.records, &duplicates,
                                          &undecodable);
  if (undecodable != 0) {
    fail(std::to_string(undecodable) +
         " recovered record(s) do not decode as cache ops");
  }
  if (duplicates != 0) {
    fail(std::to_string(duplicates) +
         " duplicate op id(s) in the log — a record was written twice");
  }

  // --- txlog: every acked diagnostic line is on disk, exactly once ----
  std::string diag;
  try {
    diag = io::read_file(diag_path(dir));
  } catch (const std::system_error&) {
    // missing file: only a violation if something was acked
  }
  for (const OracleLog& log : logs) {
    for (const std::string& tag : log.log_acks) {
      const std::size_t n = count_lines(diag, tag + "\n");
      if (n == 0) {
        fail("acked txlog line '" + tag + "' missing from diag log");
      } else if (n > 1) {
        fail("acked txlog line '" + tag + "' appears " + std::to_string(n) +
             " times");
      }
    }
  }

  // --- checkpoints: acked payloads present, in ack order --------------
  std::string ckpt;
  try {
    ckpt = io::read_file(ckpt_path(dir));
  } catch (const std::system_error&) {
  }
  std::size_t cursor = 0;
  for (const OracleLog& log : logs) {
    for (const std::string& payload : log.ckpt_acks) {
      const std::size_t pos = ckpt.find(payload, cursor);
      if (pos == std::string::npos) {
        fail("acked durable checkpoint '" + payload +
             "' missing (or out of order) in checkpoint file");
      } else {
        cursor = pos + payload.size();
      }
    }
  }

  // --- fdpool blocks: acked block contents intact ---------------------
  bool blocks_open = false;
  io::PosixFile blocks;
  try {
    blocks = io::PosixFile::open_read(blocks_path(dir));
    blocks_open = true;
  } catch (const std::system_error&) {
  }
  for (const OracleLog& log : logs) {
    for (const OracleLog::BlockAck& ack : log.block_acks) {
      if (!blocks_open) {
        fail("acked fdpool block at offset " + std::to_string(ack.offset) +
             " but block file is missing");
        continue;
      }
      std::string buf(ack.len, '\0');
      const std::size_t got = blocks.pread_some(buf.data(), buf.size(),
                                                ack.offset);
      if (got != ack.len || wal::crc32(buf) != ack.crc) {
        fail("acked fdpool block at offset " + std::to_string(ack.offset) +
             " is short or corrupt");
      }
    }
  }

  return v;
}

CaseResult run_case(const TortureCase& tc, const std::string& dir,
                    const WorkloadOptions& base) {
  CaseResult result;
  result.tc = tc;
  (void)::mkdir(dir.c_str(), 0755);

  const std::uint64_t effective_skip =
      fires_once_per_process(tc.point) ? 0 : tc.skip;

  // Phase 1 arm: the case's point — except for points inside the
  // recovery path, which cannot fire on a clean log; those get a WAL
  // torn-write setup crash so phase 2 has a tail to recover. The
  // dirsync demo needs the same torn setup.
  ArmSpec phase1;
  if (is_recovery_point(tc.point) || tc.demo_dirsync_bug) {
    phase1.point = "wal.commit.write";
    phase1.arm = faultsim::CrashArm{faultsim::CrashAction::Exit, tc.skip,
                                    kSetupTornBytes, tc.seed};
  } else {
    phase1.point = tc.point;
    phase1.arm = faultsim::CrashArm{tc.action, effective_skip,
                                    tc.persist_bytes, tc.seed};
  }

  // Phase 2 arm: always the case's point. For the dirsync demo the
  // crash fires before the first post-recovery write, squarely inside
  // the window where the truncation is volatile.
  ArmSpec phase2;
  phase2.point = tc.demo_dirsync_bug ? "wal.commit.write" : tc.point;
  phase2.arm = faultsim::CrashArm{
      tc.action, tc.demo_dirsync_bug ? 0 : effective_skip,
      tc.demo_dirsync_bug ? faultsim::CrashArm::kPersistNone
                          : tc.persist_bytes,
      tc.seed + 1};

  WorkloadOptions options = base;
  options.algo = tc.algo;
  options.dir = dir;
  options.seed = tc.seed;

  options.phase = 1;
  result.phases.push_back(launch_phase(1, options, &phase1, false));

  options.phase = 2;
  result.phases.push_back(
      launch_phase(2, options, &phase2, tc.demo_dirsync_bug));

  int phases = 2;
  if (!tc.demo_dirsync_bug) {
    // Phase 3: unarmed — recovery must succeed and the workload must
    // run to completion.
    options.phase = 3;
    result.phases.push_back(launch_phase(3, options, nullptr, false));
    phases = 3;
  }

  bool outcomes_ok = true;
  for (const PhaseResult& pr : result.phases) {
    const ChildOutcome expect = (pr.phase == 3) ? ChildOutcome::Completed
                                                : ChildOutcome::Crashed;
    if (pr.outcome != expect) {
      outcomes_ok = false;
      result.violations.push_back(
          "phase " + std::to_string(pr.phase) + " " +
          outcome_name(pr.outcome) + " (expected " + outcome_name(expect) +
          ", wait status " + std::to_string(pr.wait_status) + ")");
    }
  }

  // The final on-disk state can legitimately hold a torn WAL tail only
  // if the last phase could have torn it: a normal case ends with a
  // clean completed phase (no tear), the demo ends with a persist-none
  // crash (no tear either) — so any tear found is a real violation.
  const bool may_tear = false;
  auto wreckage = verify_dir(dir, phases, may_tear);
  result.violations.insert(result.violations.end(), wreckage.begin(),
                           wreckage.end());

  result.passed = outcomes_ok && result.violations.empty();
  result.summary = tc.name() + ": " +
                   (result.passed
                        ? "ok"
                        : (std::to_string(result.violations.size()) +
                           " violation(s)"));
  return result;
}

std::vector<TortureCase> quick_matrix(std::uint64_t seed) {
  std::vector<TortureCase> cases;
  std::uint64_t s = seed;
  for (const faultsim::CrashPointDesc& desc : faultsim::crash_points()) {
    TortureCase tc;
    tc.point = desc.name;
    tc.algo = "TL2";
    tc.skip = desc.subsystem == "txlog" ? 7 : (desc.subsystem == "wal" ? 2 : 1);
    tc.seed = ++s;
    cases.push_back(tc);
    if (desc.write_path) {
      TortureCase torn = tc;
      torn.persist_bytes = faultsim::CrashArm::kPersistRandom;
      torn.seed = ++s;
      cases.push_back(torn);
    }
  }
  for (const char* algo : {"Eager", "CGL", "HTMSim", "NOrec", "2PL"}) {
    TortureCase wal_torn;
    wal_torn.point = "wal.commit.write";
    wal_torn.algo = algo;
    wal_torn.persist_bytes = faultsim::CrashArm::kPersistRandom;
    wal_torn.seed = ++s;
    cases.push_back(wal_torn);
    TortureCase ckpt;
    ckpt.point = "durable.pre_fsync";
    ckpt.algo = algo;
    ckpt.skip = 1;
    ckpt.seed = ++s;
    cases.push_back(ckpt);
  }
  TortureCase kill;
  kill.point = "wal.commit.pre_fsync";
  kill.action = faultsim::CrashAction::Kill;
  kill.seed = ++s;
  cases.push_back(kill);
  return cases;
}

std::vector<TortureCase> full_matrix(std::uint64_t seed) {
  std::vector<TortureCase> cases;
  std::uint64_t s = seed * 7919;
  // Every backend in the table.
  std::vector<std::string> kAlgos;
  for (const stm::Backend& b : stm::backends()) kAlgos.emplace_back(b.name);
  for (const faultsim::CrashPointDesc& desc : faultsim::crash_points()) {
    for (const std::string& algo : kAlgos) {
      TortureCase tc;
      tc.point = desc.name;
      tc.algo = algo;
      tc.skip =
          desc.subsystem == "txlog" ? 7 : (desc.subsystem == "wal" ? 2 : 1);
      tc.seed = ++s;
      cases.push_back(tc);
      if (desc.write_path) {
        TortureCase torn = tc;
        torn.persist_bytes = faultsim::CrashArm::kPersistRandom;
        torn.seed = ++s;
        cases.push_back(torn);
        TortureCase killed = torn;
        killed.action = faultsim::CrashAction::Kill;
        killed.seed = ++s;
        cases.push_back(killed);
      }
    }
  }
  return cases;
}

}  // namespace adtm::crashsim
