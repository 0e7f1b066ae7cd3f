// Transactional B+ tree map.
//
// The OLTP-scale container: wide nodes amortize the descent over few
// cache-resident tvar reads, leaves are chained for range scans, and —
// because every mutable field is a tvar — any operation composes with the
// rest of the runtime (atomic_defer, TxLocks, retry). Modeled on the
// 2PLSF TMBTreeByRef idiom of running the sequential algorithm under TM
// instead of hand-crafting lock crabbing.
//
// Structural policy (write-optimized, as in B-link-style engines):
//  * Inserts split preemptively on the way down, so a split never
//    propagates back up and the parent always has room — one descent,
//    bounded write set.
//  * Removes delete from the leaf only; underfull or empty leaves stay in
//    place and are absorbed by later splits or the destructor. Separator
//    keys may therefore outlive the key they were copied from — routing
//    is by value, so lookups and inserts stay correct. All leaves remain
//    at the same depth forever (only splits change height).
//  * Nodes are reclaimed only by the destructor; erase frees nothing, so
//    concurrent readers never chase freed memory.
//
// Concurrency model: operations are transactions; overlapping descents
// conflict and retry via the TM. Values and keys must be trivially
// copyable (they live in tvars).
#pragma once

#include <array>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <optional>
#include <type_traits>

#include "containers/size_counter.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::containers {

template <typename K, typename V, unsigned kFanout = 16>
class TxBTree {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>,
                "TxBTree requires trivially copyable key/value types");
  static_assert(kFanout >= 4, "TxBTree needs a fanout of at least 4");

  static constexpr unsigned kMaxKeys = kFanout - 1;

 public:
  TxBTree() {
    Node* leaf = static_cast<Node*>(std::malloc(sizeof(Node)));
    ::new (leaf) Node;
    leaf->leaf.store_direct(true);
    root_.store_direct(leaf);
  }

  ~TxBTree() {
    destroy(root_.load_direct());
  }

  TxBTree(const TxBTree&) = delete;
  TxBTree& operator=(const TxBTree&) = delete;

  // Insert or update; returns true when a new key was added.
  bool put(stm::Tx& tx, const K& key, const V& value) {
    Node* root = root_.get(tx);
    if (root->count.get(tx) == kMaxKeys) {
      // Preemptive root split: the tree grows by one level here and
      // nowhere else.
      Node* top = static_cast<Node*>(tx.alloc(sizeof(Node)));
      ::new (top) Node;
      top->leaf.store_direct(false);
      top->children[0].store_direct(root);
      root_.set(tx, top);
      split_child(tx, top, 0);
      root = top;
    }
    Node* cur = root;
    while (!cur->leaf.get(tx)) {
      unsigned idx = route(tx, cur, key);
      Node* child = cur->children[idx].get(tx);
      if (child->count.get(tx) == kMaxKeys) {
        split_child(tx, cur, idx);
        // The new separator at idx decides which half we descend into.
        if (!(key < cur->keys[idx].get(tx))) ++idx;
        child = cur->children[idx].get(tx);
      }
      cur = child;
    }
    return leaf_insert(tx, cur, key, value);
  }

  std::optional<V> get(stm::Tx& tx, const K& key) const {
    Node* cur = descend_to_leaf(tx, key);
    const unsigned n = cur->count.get(tx);
    for (unsigned i = 0; i < n; ++i) {
      const K k = cur->keys[i].get(tx);
      if (!(k < key) && !(key < k)) return cur->values[i].get(tx);
      if (key < k) break;
    }
    return std::nullopt;
  }

  bool contains(stm::Tx& tx, const K& key) const {
    return get(tx, key).has_value();
  }

  // Remove from the leaf; returns true when the key was present. No
  // rebalancing (see the structural policy above).
  bool remove(stm::Tx& tx, const K& key) {
    Node* leaf = descend_to_leaf(tx, key);
    const unsigned n = leaf->count.get(tx);
    for (unsigned i = 0; i < n; ++i) {
      const K k = leaf->keys[i].get(tx);
      if (key < k) return false;
      if (!(k < key)) {
        for (unsigned j = i; j + 1 < n; ++j) {
          leaf->keys[j].set(tx, leaf->keys[j + 1].get(tx));
          leaf->values[j].set(tx, leaf->values[j + 1].get(tx));
        }
        leaf->count.set(tx, n - 1);
        size_.add(tx, -1);
        return true;
      }
    }
    return false;
  }

  // Visit keys in [lo, hi] in order, at most `limit` of them (0 = no
  // limit). The visitor returns false to stop early. Returns the number
  // of pairs visited. Walks the leaf chain, so a scan's read set is the
  // descent plus the touched leaves.
  std::size_t range_scan(
      stm::Tx& tx, const K& lo, const K& hi, std::size_t limit,
      const std::function<bool(const K&, const V&)>& visit) const {
    std::size_t seen = 0;
    Node* leaf = descend_to_leaf(tx, lo);
    while (leaf != nullptr) {
      const unsigned n = leaf->count.get(tx);
      for (unsigned i = 0; i < n; ++i) {
        const K k = leaf->keys[i].get(tx);
        if (k < lo) continue;
        if (hi < k) return seen;
        ++seen;
        if (!visit(k, leaf->values[i].get(tx))) return seen;
        if (limit != 0 && seen >= limit) return seen;
      }
      leaf = leaf->next.get(tx);
    }
    return seen;
  }

  std::size_t size(stm::Tx& tx) const { return size_.get(tx); }
  std::size_t size_direct() const { return size_.load_direct(); }

  // --- validation hooks (tests; call while quiescent) -----------------

  // Checks the structural invariants directly: per-node key ordering,
  // separator bounds on every subtree, child counts, and uniform leaf
  // depth. Returns the height (>= 1), or -1 on violation.
  int validate_direct() const {
    bool have_bound = false;
    K lo{};
    return check(root_.load_direct(), &lo, &have_bound, nullptr);
  }

  // The leaf chain visits every key in strictly increasing order and
  // agrees with size_.
  bool chain_consistent_direct() const {
    const Node* leaf = leftmost_direct();
    std::size_t seen = 0;
    bool have_prev = false;
    K prev{};
    while (leaf != nullptr) {
      const unsigned n = leaf->count.load_direct();
      if (n > kMaxKeys) return false;
      for (unsigned i = 0; i < n; ++i) {
        const K k = leaf->keys[i].load_direct();
        if (have_prev && !(prev < k)) return false;
        prev = k;
        have_prev = true;
        ++seen;
      }
      leaf = leaf->next.load_direct();
    }
    return seen == size_.load_direct();
  }

 private:
  struct Node {
    stm::tvar<std::uint64_t> count{0};
    stm::tvar<bool> leaf{true};
    stm::tvar<Node*> next{nullptr};  // leaf chain only
    std::array<stm::tvar<K>, kMaxKeys> keys{};
    std::array<stm::tvar<V>, kMaxKeys> values{};      // leaves
    std::array<stm::tvar<Node*>, kFanout> children{};  // internal nodes
  };

  // Child index for `key` in internal node `n`: the first subtree whose
  // separator exceeds the key (keys[i] is the smallest key of
  // children[i+1]'s subtree, B+ convention: equal keys go right).
  unsigned route(stm::Tx& tx, Node* n, const K& key) const {
    const unsigned cnt = static_cast<unsigned>(n->count.get(tx));
    unsigned i = 0;
    while (i < cnt && !(key < n->keys[i].get(tx))) ++i;
    return i;
  }

  Node* descend_to_leaf(stm::Tx& tx, const K& key) const {
    Node* cur = root_.get(tx);
    while (!cur->leaf.get(tx)) {
      cur = cur->children[route(tx, cur, key)].get(tx);
    }
    return cur;
  }

  bool leaf_insert(stm::Tx& tx, Node* leaf, const K& key, const V& value) {
    const unsigned n = static_cast<unsigned>(leaf->count.get(tx));
    unsigned pos = 0;
    while (pos < n) {
      const K k = leaf->keys[pos].get(tx);
      if (!(k < key) && !(key < k)) {
        leaf->values[pos].set(tx, value);
        return false;
      }
      if (key < k) break;
      ++pos;
    }
    for (unsigned j = n; j > pos; --j) {
      leaf->keys[j].set(tx, leaf->keys[j - 1].get(tx));
      leaf->values[j].set(tx, leaf->values[j - 1].get(tx));
    }
    leaf->keys[pos].set(tx, key);
    leaf->values[pos].set(tx, value);
    leaf->count.set(tx, n + 1);
    size_.add(tx, 1);
    return true;
  }

  // Split the full child at `idx` of `parent` (which has room — callers
  // split preemptively). The new right sibling is private until linked,
  // so its fields are initialized with direct stores.
  void split_child(stm::Tx& tx, Node* parent, unsigned idx) {
    Node* child = parent->children[idx].get(tx);
    Node* right = static_cast<Node*>(tx.alloc(sizeof(Node)));
    ::new (right) Node;
    const bool child_is_leaf = child->leaf.get(tx);
    right->leaf.store_direct(child_is_leaf);

    K sep{};
    unsigned left_count;
    if (child_is_leaf) {
      // Leaf split: upper half moves right; the separator is the right
      // half's first key (duplicated up, B+ style).
      left_count = kMaxKeys / 2 + 1;
      const unsigned moved = kMaxKeys - left_count;
      for (unsigned i = 0; i < moved; ++i) {
        right->keys[i].store_direct(child->keys[left_count + i].get(tx));
        right->values[i].store_direct(child->values[left_count + i].get(tx));
      }
      right->count.store_direct(moved);
      right->next.store_direct(child->next.get(tx));
      child->next.set(tx, right);
      sep = right->keys[0].load_direct();
    } else {
      // Internal split: the median moves up (not duplicated).
      const unsigned mid = kMaxKeys / 2;
      sep = child->keys[mid].get(tx);
      const unsigned moved = kMaxKeys - mid - 1;
      for (unsigned i = 0; i < moved; ++i) {
        right->keys[i].store_direct(child->keys[mid + 1 + i].get(tx));
      }
      for (unsigned i = 0; i <= moved; ++i) {
        right->children[i].store_direct(
            child->children[mid + 1 + i].get(tx));
      }
      right->count.store_direct(moved);
      left_count = mid;
    }
    child->count.set(tx, left_count);

    const unsigned pcount = static_cast<unsigned>(parent->count.get(tx));
    for (unsigned j = pcount; j > idx; --j) {
      parent->keys[j].set(tx, parent->keys[j - 1].get(tx));
      parent->children[j + 1].set(tx, parent->children[j].get(tx));
    }
    parent->keys[idx].set(tx, sep);
    parent->children[idx + 1].set(tx, right);
    parent->count.set(tx, pcount + 1);
  }

  // --- direct validation (quiescent) ----------------------------------

  // Returns subtree height or -1; checks ordering and that every key in
  // the subtree is >= *lo (when *have_bound) and < *hi (when hi given).
  int check(const Node* n, K* lo, bool* have_bound, const K* hi) const {
    const unsigned cnt = static_cast<unsigned>(n->count.load_direct());
    if (cnt > kMaxKeys) return -1;
    for (unsigned i = 0; i < cnt; ++i) {
      const K k = n->keys[i].load_direct();
      if (i > 0 && !(n->keys[i - 1].load_direct() < k)) return -1;
      if (*have_bound && k < *lo) return -1;
      if (hi != nullptr && !(k < *hi)) return -1;
    }
    if (n->leaf.load_direct()) {
      if (cnt > 0) {
        *lo = n->keys[cnt - 1].load_direct();
        *have_bound = true;
      }
      return 1;
    }
    if (cnt == 0) return -1;  // internal nodes always have >= 2 children
    int height = -1;
    for (unsigned i = 0; i <= cnt; ++i) {
      K sep{};
      const K* child_hi = nullptr;
      if (i < cnt) {
        sep = n->keys[i].load_direct();
        child_hi = &sep;
      } else if (hi != nullptr) {
        sep = *hi;
        child_hi = &sep;
      }
      const int h =
          check(n->children[i].load_direct(), lo, have_bound, child_hi);
      if (h < 0) return -1;
      if (height < 0) height = h;
      if (h != height) return -1;  // all leaves at the same depth
    }
    return height + 1;
  }

  const Node* leftmost_direct() const {
    const Node* cur = root_.load_direct();
    while (!cur->leaf.load_direct()) {
      cur = cur->children[0].load_direct();
    }
    return cur;
  }

  void destroy(Node* n) {
    if (!n->leaf.load_direct()) {
      const unsigned cnt = static_cast<unsigned>(n->count.load_direct());
      for (unsigned i = 0; i <= cnt; ++i) {
        destroy(n->children[i].load_direct());
      }
    }
    n->~Node();
    std::free(n);
  }

  stm::tvar<Node*> root_{nullptr};
  TxSizeCounter size_;
};

}  // namespace adtm::containers
