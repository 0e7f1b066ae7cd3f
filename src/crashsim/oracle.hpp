// Oracle side channel for the crashmat torture harness.
//
// The child streams a line-oriented commit oracle to a file as it runs;
// after the child is killed at a crash point, the parent replays the
// oracle against the recovered on-disk state. The protocol separates
// *intent* from *acknowledgement* so both directions of the durability
// contract are checkable:
//
//   I <lsn> <payload>   inside the appending transaction, after append()
//                       handed out <lsn>. Aborted re-executions emit
//                       again (possibly with a different lsn/payload), so
//                       intents over-approximate: a recovered record must
//                       match SOME intent or ack at its lsn, and a record
//                       matching none was invented by the log.
//   A <lsn> <payload>   after the appending transaction committed.
//   D <lsn>             after flush() returned: every record <= lsn was
//                       acked durable (fsync completed). A later recovery
//                       finding fewer records lost acknowledged data.
//   R <recs> <bytes> <clean>  this process's startup recovery completed
//                       (what the scan found on disk, pre-truncation).
//   L <tag>             txlog diagnostic line <tag> committed.
//   C <payload>         durable-buffer checkpoint acked (wait_durable).
//   B <off> <len> <crc> fdpool block write completed and fsynced.
//   W <ops>             workload ran to completion.
//
// Every line is emitted with one write(2) to an O_APPEND descriptor:
// atomic without a mutex, and therefore legal inside transaction bodies
// (no lock acquisition — the txsafety tx-region check stays clean).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace adtm::crashsim {

class OracleWriter {
 public:
  explicit OracleWriter(const std::string& path);
  ~OracleWriter();
  OracleWriter(const OracleWriter&) = delete;
  OracleWriter& operator=(const OracleWriter&) = delete;

  void intent(std::uint64_t lsn, const std::string& payload);
  void acked(std::uint64_t lsn, const std::string& payload);
  void durable(std::uint64_t lsn);
  void recovered(std::uint64_t records, std::uint64_t valid_bytes, bool clean);
  void logline(const std::string& tag);
  void checkpoint(const std::string& payload);
  void block(std::uint64_t offset, std::uint64_t len, std::uint32_t crc);
  void completed(std::uint64_t ops);

 private:
  void line(const std::string& s);
  int fd_ = -1;
};

// Parent-side view of one phase's oracle file.
struct OracleLog {
  std::map<std::uint64_t, std::set<std::string>> intents;
  std::map<std::uint64_t, std::string> acked;
  std::uint64_t max_durable = 0;
  bool has_recovery = false;
  std::uint64_t recovered_records = 0;
  std::uint64_t recovered_valid_bytes = 0;
  bool recovered_clean = true;
  std::vector<std::string> log_acks;
  std::vector<std::string> ckpt_acks;
  struct BlockAck {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
  };
  std::vector<BlockAck> block_acks;
  bool completed = false;
  std::uint64_t completed_ops = 0;
};

// A missing file parses as an empty log (the child died before its first
// event); a torn final line (no trailing newline) is dropped.
OracleLog parse_oracle(const std::string& path);

}  // namespace adtm::crashsim
