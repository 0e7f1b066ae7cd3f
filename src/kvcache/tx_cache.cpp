#include "kvcache/tx_cache.hpp"

#include <cerrno>
#include <cstdlib>
#include <functional>

#include "txlog/txlog.hpp"

namespace adtm::kvcache {

TxCache::TxCache(std::size_t capacity, std::size_t buckets,
                 txlog::TxLogger* logger)
    : capacity_(capacity == 0 ? 1 : capacity),
      logger_(logger),
      buckets_(buckets == 0 ? 1 : buckets) {}

TxCache::~TxCache() {
  for (auto& head : buckets_) {
    Entry* e = head.load_direct();
    while (e != nullptr) {
      Entry* next = e->hash_next.load_direct();
      delete e;
      e = next;
    }
  }
}

stm::tvar<TxCache::Entry*>& TxCache::bucket_of(const std::string& key) const {
  return buckets_[std::hash<std::string>{}(key) % buckets_.size()];
}

TxCache::Entry* TxCache::find_in_bucket(stm::Tx& tx,
                                        const std::string& key) const {
  for (Entry* e = bucket_of(key).get(tx); e != nullptr;
       e = e->hash_next.get(tx)) {
    if (e->key == key) return e;  // key immutable: plain compare is safe
  }
  return nullptr;
}

void TxCache::lru_unlink(stm::Tx& tx, Entry* e) {
  Entry* prev = e->lru_prev.get(tx);
  Entry* next = e->lru_next.get(tx);
  if (prev != nullptr) {
    prev->lru_next.set(tx, next);
  } else {
    lru_head_.set(tx, next);
  }
  if (next != nullptr) {
    next->lru_prev.set(tx, prev);
  } else {
    lru_tail_.set(tx, prev);
  }
  e->lru_prev.set(tx, nullptr);
  e->lru_next.set(tx, nullptr);
}

void TxCache::lru_push_front(stm::Tx& tx, Entry* e) {
  Entry* head = lru_head_.get(tx);
  e->lru_next.set(tx, head);
  e->lru_prev.set(tx, nullptr);
  if (head != nullptr) {
    head->lru_prev.set(tx, e);
  } else {
    lru_tail_.set(tx, e);
  }
  lru_head_.set(tx, e);
}

void TxCache::remove_entry(stm::Tx& tx, Entry* e) {
  // Unlink from the bucket chain.
  auto& head = bucket_of(e->key);
  Entry* cur = head.get(tx);
  if (cur == e) {
    head.set(tx, e->hash_next.get(tx));
  } else {
    while (cur != nullptr) {
      Entry* next = cur->hash_next.get(tx);
      if (next == e) {
        cur->hash_next.set(tx, e->hash_next.get(tx));
        break;
      }
      cur = next;
    }
  }
  lru_unlink(tx, e);
  items_.set(tx, items_.get(tx) - 1);
  // Reclaim after commit + quiescence: no reader can still hold e.
  tx.on_commit([e] { delete e; });
}

void TxCache::set(stm::Tx& tx, const std::string& key,
                  const std::string& value) {
  Entry* old = find_in_bucket(tx, key);

  // Plan-then-write, in two phases. Phase 1 only reads: walk the LRU list
  // from the tail to pick every victim this insert will evict, and
  // register their ordered log records (paper §5.1 — formatted in the
  // transaction, written after commit). A contended log registration
  // waits by retrying, which is legal only while the write set is still
  // empty, so every registration must precede the first tvar write below.
  std::vector<Entry*> victims;
  std::size_t items = items_.get(tx) - (old != nullptr ? 1 : 0);
  for (Entry* cand = lru_tail_.get(tx);
       items >= capacity_ && cand != nullptr;
       cand = cand->lru_prev.get(tx)) {
    if (cand == old) continue;  // removed below regardless
    victims.push_back(cand);
    --items;
  }
  if (logger_ != nullptr) {
    for (const Entry* v : victims) logger_->log(tx, "evict key=" + v->key);
  }

  // Phase 2 — the writes.
  if (old != nullptr) remove_entry(tx, old);
  for (Entry* v : victims) remove_entry(tx, v);
  if (!victims.empty()) {
    tx.on_commit([this, n = victims.size()] {
      evictions_.fetch_add(n, std::memory_order_relaxed);
    });
  }

  Entry* e = new Entry;
  e->key = key;
  e->value = value;
  tx.on_abort([e] { delete e; });  // unpublished on abort
  auto& head = bucket_of(key);
  e->hash_next.set(tx, head.get(tx));
  head.set(tx, e);
  lru_push_front(tx, e);
  items_.set(tx, items_.get(tx) + 1);
  tx.on_commit([this] { sets_.fetch_add(1, std::memory_order_relaxed); });
}

void TxCache::set(const std::string& key, const std::string& value) {
  stm::atomic([&](stm::Tx& tx) { set(tx, key, value); });
}

std::optional<std::string> TxCache::get(stm::Tx& tx, const std::string& key) {
  Entry* e = find_in_bucket(tx, key);
  if (e == nullptr) {
    tx.on_commit([this] { misses_.fetch_add(1, std::memory_order_relaxed); });
    return std::nullopt;
  }
  // Refresh recency (gets are writers, like memcached under its lock).
  if (lru_head_.get(tx) != e) {
    lru_unlink(tx, e);
    lru_push_front(tx, e);
  }
  tx.on_commit([this] { hits_.fetch_add(1, std::memory_order_relaxed); });
  return e->value;  // immutable; copy taken inside the transaction
}

std::optional<std::string> TxCache::get(const std::string& key) {
  return stm::atomic([&](stm::Tx& tx) { return get(tx, key); });
}

bool TxCache::del(stm::Tx& tx, const std::string& key) {
  Entry* e = find_in_bucket(tx, key);
  if (e == nullptr) return false;
  remove_entry(tx, e);
  return true;
}

bool TxCache::del(const std::string& key) {
  return stm::atomic([&](stm::Tx& tx) { return del(tx, key); });
}

std::optional<long> TxCache::incr(stm::Tx& tx, const std::string& key,
                                  long delta) {
  Entry* e = find_in_bucket(tx, key);
  if (e == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long current = std::strtol(e->value.c_str(), &end, 10);
  if (errno != 0 || end == e->value.c_str() || *end != '\0') {
    return std::nullopt;  // non-numeric value
  }
  const long updated = current + delta;
  // Entries are immutable: replace (preserving LRU freshness via set).
  set(tx, key, std::to_string(updated));
  return updated;
}

std::optional<long> TxCache::incr(const std::string& key, long delta) {
  return stm::atomic([&](stm::Tx& tx) { return incr(tx, key, delta); });
}

std::size_t TxCache::size() const {
  return stm::atomic([this](stm::Tx& tx) { return items_.get(tx); });
}

CacheStats TxCache::stats_snapshot() const noexcept {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.sets = sets_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace adtm::kvcache
