#include "kvcache/recoverable.hpp"

#include <utility>

#include "stm/api.hpp"

namespace adtm::kvcache {

std::string RecoverableCache::encode(const Op& op) {
  std::string out = op.id;
  out += '|';
  out += op.kind;
  out += '|';
  out += op.key;
  if (op.kind == 'S') {
    out += '|';
    out += op.value;
  }
  return out;
}

bool RecoverableCache::decode(const std::string& record, Op& out) {
  const std::size_t p1 = record.find('|');
  if (p1 == std::string::npos || p1 == 0) return false;
  const std::size_t p2 = record.find('|', p1 + 1);
  if (p2 != p1 + 2) return false;  // kind is exactly one char
  const char kind = record[p1 + 1];
  if (kind == 'S') {
    const std::size_t p3 = record.find('|', p2 + 1);
    if (p3 == std::string::npos || p3 == p2 + 1) return false;
    out.id = record.substr(0, p1);
    out.kind = 'S';
    out.key = record.substr(p2 + 1, p3 - p2 - 1);
    out.value = record.substr(p3 + 1);
    return true;
  }
  if (kind == 'D') {
    if (p2 + 1 >= record.size()) return false;
    out.id = record.substr(0, p1);
    out.kind = 'D';
    out.key = record.substr(p2 + 1);
    out.value.clear();
    return true;
  }
  return false;
}

std::map<std::string, std::string> RecoverableCache::replay(
    const std::vector<std::string>& records, std::size_t* duplicates,
    std::size_t* undecodable) {
  std::map<std::string, std::string> state;
  std::map<std::string, bool> seen_ids;
  std::size_t dups = 0;
  std::size_t bad = 0;
  for (const std::string& record : records) {
    Op op;
    if (!decode(record, op)) {
      ++bad;
      continue;
    }
    if (!seen_ids.emplace(op.id, true).second) {
      ++dups;
      continue;
    }
    if (op.kind == 'S') {
      state[op.key] = op.value;
    } else {
      state.erase(op.key);
    }
  }
  if (duplicates != nullptr) *duplicates = dups;
  if (undecodable != nullptr) *undecodable = bad;
  return state;
}

RecoverableCache::RecoverableCache(std::size_t capacity,
                                   const std::string& wal_path)
    : recovery_(wal::WriteAheadLog::recover(wal_path)),
      wal_(wal_path),
      cache_(capacity) {
  // Rebuild the cache from the valid prefix. Replaying the folded map
  // (rather than op-by-op) keeps recovery O(keys) transactions.
  for (const auto& [key, value] : replay(recovery_.records)) {
    stm::atomic([&](stm::Tx& tx) { cache_.set(tx, key, value); });
  }
}

wal::Lsn RecoverableCache::apply(stm::Tx& tx, const Op& op) {
  if (op.kind == 'S') {
    cache_.set(tx, op.key, op.value);
  } else {
    cache_.del(tx, op.key);
  }
  return wal_.append(tx, encode(op));
}

wal::Lsn RecoverableCache::set(const std::string& key, const std::string& value,
                               const std::string& op_id) {
  return stm::atomic([&](stm::Tx& tx) {
    return apply(tx, Op{op_id, 'S', key, value});
  });
}

wal::Lsn RecoverableCache::del(const std::string& key,
                               const std::string& op_id) {
  return stm::atomic([&](stm::Tx& tx) {
    return apply(tx, Op{op_id, 'D', key, std::string()});
  });
}

}  // namespace adtm::kvcache
