// Transactional chained hash map.
//
// Fixed bucket count (no concurrent resize; pick a capacity at
// construction), separate chaining with per-node tvar links. Disjoint
// buckets never conflict, so this scales the way the paper's Figure 1
// says lock-based code partitioned by many locks does — but with plain
// transactional code and full composability (an insert can be one leg of
// a larger transaction).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "containers/size_counter.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::containers {

template <typename K, typename V, typename Hash = std::hash<K>>
class TxHashMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>,
                "TxHashMap requires trivially copyable key/value types");

 public:
  explicit TxHashMap(std::size_t buckets = 1024)
      : heads_(buckets == 0 ? 1 : buckets) {}

  ~TxHashMap() {
    for (auto& head : heads_) {
      Node* n = head.load_direct();
      while (n != nullptr) {
        Node* next = n->next.load_direct();
        n->~Node();
        std::free(n);
        n = next;
      }
    }
  }

  TxHashMap(const TxHashMap&) = delete;
  TxHashMap& operator=(const TxHashMap&) = delete;

  // Insert or update; returns true when a new key was added.
  bool put(stm::Tx& tx, const K& key, const V& value) {
    auto& head = bucket(key);
    for (Node* n = head.get(tx); n != nullptr; n = n->next.get(tx)) {
      if (n->key.get(tx) == key) {
        n->value.set(tx, value);
        return false;
      }
    }
    Node* node = static_cast<Node*>(tx.alloc(sizeof(Node)));
    ::new (node) Node;
    node->key.store_direct(key);
    node->value.store_direct(value);
    node->next.set(tx, head.get(tx));
    head.set(tx, node);
    size_.add(tx, 1);
    return true;
  }

  std::optional<V> get(stm::Tx& tx, const K& key) const {
    auto& head = bucket(key);
    for (Node* n = head.get(tx); n != nullptr; n = n->next.get(tx)) {
      if (n->key.get(tx) == key) return n->value.get(tx);
    }
    return std::nullopt;
  }

  bool contains(stm::Tx& tx, const K& key) const {
    return get(tx, key).has_value();
  }

  // Remove; returns true when the key was present.
  bool erase(stm::Tx& tx, const K& key) {
    auto& head = bucket(key);
    Node* prev = nullptr;
    for (Node* n = head.get(tx); n != nullptr; n = n->next.get(tx)) {
      if (n->key.get(tx) == key) {
        Node* next = n->next.get(tx);
        if (prev == nullptr) {
          head.set(tx, next);
        } else {
          prev->next.set(tx, next);
        }
        size_.add(tx, -1);
        tx.on_commit([n] {
          n->~Node();
          std::free(n);
        });
        return true;
      }
      prev = n;
    }
    return false;
  }

  std::size_t size(stm::Tx& tx) const { return size_.get(tx); }
  std::size_t size_direct() const { return size_.load_direct(); }
  std::size_t bucket_count() const noexcept { return heads_.size(); }

 private:
  struct Node {
    stm::tvar<K> key{};
    stm::tvar<V> value{};
    stm::tvar<Node*> next{nullptr};
  };

  stm::tvar<Node*>& bucket(const K& key) const {
    return heads_[Hash{}(key) % heads_.size()];
  }

  mutable std::vector<stm::tvar<Node*>> heads_;
  TxSizeCounter size_;
};

}  // namespace adtm::containers
