// Transactional skip list map.
//
// The probabilistically-balanced ordered map (Pugh): towers of forward
// pointers, expected O(log n) search with no rebalancing, which makes it
// the low-conflict counterpart to the B+ tree — an insert touches one
// tower plus its predecessors instead of shifting sibling arrays, so
// disjoint keys rarely share a write set. Modeled on the 2PLSF TMSkipList
// idiom: the sequential algorithm wrapped in transactions, every mutable
// pointer a tvar.
//
// Tower heights are drawn with p = 1/2 from the per-thread RNG at insert
// time; a re-executed transaction may draw a different height, which is
// fine — the node is allocated through tx.alloc, so an aborted attempt
// rolls its node back entirely. Removed nodes unlink transactionally and
// are reclaimed in a commit epilogue, after quiescence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <optional>
#include <type_traits>

#include "common/rng.hpp"
#include "containers/size_counter.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::containers {

template <typename K, typename V, unsigned kMaxLevel = 16>
class TxSkipList {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>,
                "TxSkipList requires trivially copyable key/value types");
  static_assert(kMaxLevel >= 2 && kMaxLevel <= 32,
                "TxSkipList level cap out of range");

 public:
  TxSkipList() {
    head_ = static_cast<Node*>(std::malloc(sizeof(Node)));
    ::new (head_) Node;
    head_->level = kMaxLevel;
  }

  ~TxSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0].load_direct();
      n->~Node();
      std::free(n);
      n = next;
    }
  }

  TxSkipList(const TxSkipList&) = delete;
  TxSkipList& operator=(const TxSkipList&) = delete;

  // Insert or update; returns true when a new key was added.
  bool put(stm::Tx& tx, const K& key, const V& value) {
    Node* prevs[kMaxLevel];
    find_prevs(tx, key, prevs);
    Node* hit = prevs[0]->next[0].get(tx);
    if (hit != nullptr && equals(hit->key.get(tx), key)) {
      hit->value.set(tx, value);
      return false;
    }
    const unsigned level = random_level();
    const unsigned cur_height = static_cast<unsigned>(height_.get(tx));
    if (level > cur_height) {
      for (unsigned l = cur_height; l < level; ++l) prevs[l] = head_;
      height_.set(tx, level);
    }
    Node* node = static_cast<Node*>(tx.alloc(sizeof(Node)));
    ::new (node) Node;
    node->level = level;
    node->key.store_direct(key);
    node->value.store_direct(value);
    for (unsigned l = 0; l < level; ++l) {
      // The node is private until the prevs are relinked, so its own
      // pointers are direct stores; the splice writes are transactional.
      node->next[l].store_direct(prevs[l]->next[l].get(tx));
      prevs[l]->next[l].set(tx, node);
    }
    size_.add(tx, 1);
    return true;
  }

  std::optional<V> get(stm::Tx& tx, const K& key) const {
    Node* cur = head_;
    for (unsigned l = static_cast<unsigned>(height_.get(tx)); l-- > 0;) {
      for (Node* nxt = cur->next[l].get(tx);
           nxt != nullptr && nxt->key.get(tx) < key;
           nxt = cur->next[l].get(tx)) {
        cur = nxt;
      }
    }
    Node* hit = cur->next[0].get(tx);
    if (hit != nullptr && equals(hit->key.get(tx), key)) {
      return hit->value.get(tx);
    }
    return std::nullopt;
  }

  bool contains(stm::Tx& tx, const K& key) const {
    return get(tx, key).has_value();
  }

  // Remove; returns true when the key was present.
  bool remove(stm::Tx& tx, const K& key) {
    Node* prevs[kMaxLevel];
    find_prevs(tx, key, prevs);
    Node* hit = prevs[0]->next[0].get(tx);
    if (hit == nullptr || !equals(hit->key.get(tx), key)) return false;
    for (unsigned l = 0; l < hit->level; ++l) {
      prevs[l]->next[l].set(tx, hit->next[l].get(tx));
    }
    size_.add(tx, -1);
    // Reclaim after commit + quiescence: no concurrent transaction can
    // still hold a reference by then.
    tx.on_commit([hit] {
      hit->~Node();
      std::free(hit);
    });
    return true;
  }

  // Visit keys in [lo, hi] in order, at most `limit` of them (0 = no
  // limit). The visitor returns false to stop early. Returns the number
  // of pairs visited.
  std::size_t range_scan(
      stm::Tx& tx, const K& lo, const K& hi, std::size_t limit,
      const std::function<bool(const K&, const V&)>& visit) const {
    Node* prevs[kMaxLevel];
    find_prevs(tx, lo, prevs);
    std::size_t seen = 0;
    for (Node* cur = prevs[0]->next[0].get(tx); cur != nullptr;
         cur = cur->next[0].get(tx)) {
      const K k = cur->key.get(tx);
      if (hi < k) break;
      ++seen;
      if (!visit(k, cur->value.get(tx))) break;
      if (limit != 0 && seen >= limit) break;
    }
    return seen;
  }

  std::size_t size(stm::Tx& tx) const { return size_.get(tx); }
  std::size_t size_direct() const { return size_.load_direct(); }

  // --- validation hooks (tests; call while quiescent) -----------------

  // Level-0 chain strictly sorted and node count equal to size_.
  bool sorted_direct() const {
    std::size_t seen = 0;
    bool have_prev = false;
    K prev{};
    for (const Node* n = head_->next[0].load_direct(); n != nullptr;
         n = n->next[0].load_direct()) {
      const K k = n->key.load_direct();
      if (have_prev && !(prev < k)) return false;
      prev = k;
      have_prev = true;
      ++seen;
    }
    return seen == size_.load_direct();
  }

  // Every higher-level list is a sorted sub-chain of level 0, and every
  // node appears in exactly the chains below its tower height.
  bool levels_consistent_direct() const {
    for (unsigned l = 1; l < kMaxLevel; ++l) {
      const Node* upper = head_->next[l].load_direct();
      const Node* lower = head_->next[0].load_direct();
      while (upper != nullptr) {
        if (upper->level <= l) return false;
        // The upper node must be reachable along level 0.
        while (lower != nullptr && lower != upper) {
          lower = lower->next[0].load_direct();
        }
        if (lower == nullptr) return false;
        upper = upper->next[l].load_direct();
      }
    }
    return true;
  }

  // Fraction of nodes with tower height >= 2 (p = 1/2 coin: expected
  // ~0.5); for the level-distribution test.
  double tall_fraction_direct() const {
    std::size_t total = 0;
    std::size_t tall = 0;
    for (const Node* n = head_->next[0].load_direct(); n != nullptr;
         n = n->next[0].load_direct()) {
      ++total;
      if (n->level >= 2) ++tall;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(tall) / static_cast<double>(total);
  }

 private:
  struct Node {
    stm::tvar<K> key{};
    stm::tvar<V> value{};
    unsigned level = 0;  // immutable once the node is published
    std::array<stm::tvar<Node*>, kMaxLevel> next{};
  };

  static bool equals(const K& a, const K& b) {
    return !(a < b) && !(b < a);
  }

  static unsigned random_level() noexcept {
    unsigned level = 1;
    while (level < kMaxLevel && (thread_rng().next() & 1) != 0) ++level;
    return level;
  }

  // prevs[l] = last node at level l with key < `key` (head_ when none).
  // Fills every level up to the current height; callers extend with head_
  // beyond it.
  void find_prevs(stm::Tx& tx, const K& key, Node** prevs) const {
    Node* cur = head_;
    const unsigned h = static_cast<unsigned>(height_.get(tx));
    for (unsigned l = kMaxLevel; l-- > 0;) {
      if (l < h) {
        for (Node* nxt = cur->next[l].get(tx);
             nxt != nullptr && nxt->key.get(tx) < key;
             nxt = cur->next[l].get(tx)) {
          cur = nxt;
        }
      }
      prevs[l] = cur;
    }
  }

  Node* head_;
  stm::tvar<std::uint64_t> height_{1};
  TxSizeCounter size_;
};

}  // namespace adtm::containers
