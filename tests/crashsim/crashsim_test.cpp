// crashsim harness integration: run real fork/kill/recover cases through
// run_case and check the verifier's verdicts, plus shape checks on the
// case matrices that CI enumerates.
#include "crashsim/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "faultsim/crashpoint.hpp"
#include "io/temp_dir.hpp"
#include "stm/backend.hpp"

namespace adtm::crashsim {
namespace {

// A small workload keeps each forked phase around tens of milliseconds.
WorkloadOptions small_workload() {
  WorkloadOptions o;
  o.threads = 2;
  o.ops_per_thread = 32;
  return o;
}

std::string violations_text(const CaseResult& r) {
  std::string out;
  for (const auto& v : r.violations) out += v + "\n";
  for (const auto& p : r.phases) {
    out += "phase " + std::to_string(p.phase) + ": " +
           outcome_name(p.outcome) + "\n";
  }
  return out;
}

class CrashsimTest : public ::testing::Test {
 protected:
  io::TempDir dir_{"adtm-crashsim"};
};

TEST_F(CrashsimTest, WalCommitTornWriteSurvivesTorture) {
  TortureCase tc;
  tc.point = "wal.commit.write";
  tc.persist_bytes = faultsim::CrashArm::kPersistRandom;
  const CaseResult r = run_case(tc, dir_.file("case"), small_workload());
  EXPECT_TRUE(r.passed) << violations_text(r);
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].outcome, ChildOutcome::Crashed);
  EXPECT_EQ(r.phases[1].outcome, ChildOutcome::Crashed);
  EXPECT_EQ(r.phases[2].outcome, ChildOutcome::Completed);
}

TEST_F(CrashsimTest, RecoveryPathCrashSurvivesTorture) {
  // Phase 1 gets a torn-write setup arm so phase 2 actually enters the
  // truncation path where this point lives.
  TortureCase tc;
  tc.point = "wal.recover.post_truncate";
  const CaseResult r = run_case(tc, dir_.file("case"), small_workload());
  EXPECT_TRUE(r.passed) << violations_text(r);
}

TEST_F(CrashsimTest, SigkillFlavorSurvivesTorture) {
  TortureCase tc;
  tc.point = "durable.pre_fsync";
  tc.algo = "NOrec";
  tc.action = faultsim::CrashAction::Kill;
  // The checkpoint path reaches this point only twice in a 32-op
  // workload; a skip of 2 would let both through.
  tc.skip = 1;
  const CaseResult r = run_case(tc, dir_.file("case"), small_workload());
  EXPECT_TRUE(r.passed) << violations_text(r);
}

TEST_F(CrashsimTest, VerifyDirFlagsHandCorruptedWal) {
  // First produce a legitimate passing directory, then flip a byte in
  // the middle of the WAL: the re-run verifier must notice the damage
  // (recovered records no longer match any oracle, or the tail tears).
  TortureCase tc;
  tc.point = "wal.commit.write";
  const std::string dir = dir_.file("case");
  const CaseResult r = run_case(tc, dir, small_workload());
  ASSERT_TRUE(r.passed) << violations_text(r);
  EXPECT_TRUE(verify_dir(dir, 3, false).empty());

  const std::string wal = wal_path(dir);
  FILE* f = std::fopen(wal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(0x7f, f);
  std::fclose(f);
  EXPECT_FALSE(verify_dir(dir, 3, false).empty());
}

TEST_F(CrashsimTest, QuickMatrixCoversEveryRegisteredPoint) {
  const auto cases = quick_matrix(1);
  for (const auto& desc : faultsim::crash_points()) {
    const bool covered =
        std::any_of(cases.begin(), cases.end(), [&](const TortureCase& tc) {
          return tc.point == desc.name;
        });
    EXPECT_TRUE(covered) << "quick matrix misses " << desc.name;
  }
  // Every write-path point gets a torn variant.
  for (const auto& desc : faultsim::crash_points()) {
    if (!desc.write_path) continue;
    const bool torn =
        std::any_of(cases.begin(), cases.end(), [&](const TortureCase& tc) {
          return tc.point == desc.name &&
                 tc.persist_bytes == faultsim::CrashArm::kPersistRandom;
        });
    EXPECT_TRUE(torn) << "no torn variant for " << desc.name;
  }
}

TEST_F(CrashsimTest, FullMatrixCoversEveryPointUnderEveryAlgorithm) {
  const auto cases = full_matrix(1);
  for (const auto& desc : faultsim::crash_points()) {
    for (const stm::Backend& b : stm::backends()) {
      const std::string algo = b.name;
      const bool covered =
          std::any_of(cases.begin(), cases.end(), [&](const TortureCase& tc) {
            return tc.point == desc.name && tc.algo == algo;
          });
      EXPECT_TRUE(covered) << "full matrix misses " << desc.name << "/"
                           << algo;
    }
  }
  EXPECT_GT(cases.size(), quick_matrix(1).size());
}

}  // namespace
}  // namespace adtm::crashsim
