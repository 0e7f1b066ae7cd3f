// TxCache: a memcached-style in-memory cache on transactional memory.
//
// The paper's §5.1 discusses transactionalized memcached (Ruan et al.,
// ASPLOS 2014): critical sections guard a hash table plus an LRU list, and
// occasionally want to log diagnostics — which under plain TM forces
// irrevocability or drops the log line. This subsystem reproduces that
// shape: get/set/del/incr are single transactions over a chained hash
// table and an intrusive LRU list (gets are writers, as in memcached with
// its cache lock), and optional diagnostic logging rides on atomic_defer
// via TxLogger, so it never serializes the cache.
//
// Entries are immutable once published: updates replace the entry and
// reclaim the old one through a commit epilogue, which runs after
// quiescence — so a concurrent reader can never observe a freed entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::txlog {
class TxLogger;
}

namespace adtm::kvcache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t evictions = 0;
};

class TxCache {
 public:
  // `capacity` = maximum number of items before LRU eviction;
  // `logger` (optional) receives a deferred diagnostic record per
  // eviction, formatted inside the evicting transaction.
  explicit TxCache(std::size_t capacity, std::size_t buckets = 1024,
                   txlog::TxLogger* logger = nullptr);
  ~TxCache();

  TxCache(const TxCache&) = delete;
  TxCache& operator=(const TxCache&) = delete;

  // Store (insert or replace). Evicts the least recently used item when
  // at capacity. Usable standalone or inside an enclosing transaction.
  void set(const std::string& key, const std::string& value);
  void set(stm::Tx& tx, const std::string& key, const std::string& value);

  // Fetch; refreshes the item's LRU position (so gets are writers, as in
  // memcached under its cache lock).
  std::optional<std::string> get(const std::string& key);
  std::optional<std::string> get(stm::Tx& tx, const std::string& key);

  // Remove. Returns true if present.
  bool del(const std::string& key);
  bool del(stm::Tx& tx, const std::string& key);

  // Atomic numeric increment (memcached incr/decr). Returns the new value,
  // or nullopt if the key is absent or non-numeric.
  std::optional<long> incr(const std::string& key, long delta);
  std::optional<long> incr(stm::Tx& tx, const std::string& key, long delta);

  // Item count, read in its own transaction (or the enclosing one), so it
  // never exceeds capacity. A counter bumped by commit hooks could: hooks
  // of concurrent commits run in any order, not in commit order.
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

  CacheStats stats_snapshot() const noexcept;

 private:
  struct Entry {
    std::string key;    // immutable after publication
    std::string value;  // immutable after publication
    stm::tvar<Entry*> hash_next{nullptr};
    stm::tvar<Entry*> lru_next{nullptr};
    stm::tvar<Entry*> lru_prev{nullptr};
  };

  stm::tvar<Entry*>& bucket_of(const std::string& key) const;
  Entry* find_in_bucket(stm::Tx& tx, const std::string& key) const;

  // LRU intrusive list helpers (all transactional).
  void lru_unlink(stm::Tx& tx, Entry* e);
  void lru_push_front(stm::Tx& tx, Entry* e);

  // Unlink from bucket + LRU and schedule reclamation.
  void remove_entry(stm::Tx& tx, Entry* e);

  std::size_t capacity_;
  txlog::TxLogger* logger_;
  mutable std::vector<stm::tvar<Entry*>> buckets_;
  stm::tvar<Entry*> lru_head_{nullptr};
  stm::tvar<Entry*> lru_tail_{nullptr};
  stm::tvar<std::size_t> items_{0};

  // Monotonic mirrors for lock-free observation (tests/monitoring).
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> sets_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace adtm::kvcache
