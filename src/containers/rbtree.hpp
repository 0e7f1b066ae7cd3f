// Transactional red-black tree map.
//
// The paper's introduction motivates TM with exactly this structure: "the
// rebalancing operations of a red-black tree" have irregular,
// hard-to-predict memory accesses that make fine-grained locking painful,
// while a transaction just wraps the sequential algorithm. This is the
// classic CLRS red-black tree with every mutable field behind a tvar, so
// any operation can run inside any transaction (and compose with
// atomic_defer, retry, and the rest of the runtime).
//
// Concurrency model: operations are transactions; conflicting operations
// (overlapping search paths) abort-and-retry via the TM. Erased nodes are
// reclaimed through commit epilogues, which run after quiescence — so no
// reader can still be traversing a reclaimed node.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>

#include "containers/size_counter.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::containers {

template <typename K, typename V>
class TxRbTree {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>,
                "TxRbTree requires trivially copyable key/value types");

 public:
  TxRbTree() {
    // Sentinel nil: black, self-linked. Its parent field is written
    // transiently during fix-ups, exactly as in CLRS.
    nil_ = new Node;
    nil_->red.store_direct(false);
    nil_->left.store_direct(nil_);
    nil_->right.store_direct(nil_);
    nil_->parent.store_direct(nil_);
    root_.store_direct(nil_);
  }

  ~TxRbTree() {
    destroy(root_.load_direct());
    delete nil_;
  }

  TxRbTree(const TxRbTree&) = delete;
  TxRbTree& operator=(const TxRbTree&) = delete;

  // Insert or update. Returns true if a new key was inserted.
  bool insert(stm::Tx& tx, const K& key, const V& value) {
    Node* parent = nil_;
    Node* cur = root_.get(tx);
    while (cur != nil_) {
      parent = cur;
      const K ck = cur->key.get(tx);
      if (key < ck) {
        cur = cur->left.get(tx);
      } else if (ck < key) {
        cur = cur->right.get(tx);
      } else {
        cur->value.set(tx, value);
        return false;
      }
    }
    Node* node = static_cast<Node*>(tx.alloc(sizeof(Node)));
    ::new (node) Node;
    node->key.store_direct(key);
    node->value.store_direct(value);
    node->left.store_direct(nil_);
    node->right.store_direct(nil_);
    node->red.store_direct(true);
    node->parent.set(tx, parent);
    if (parent == nil_) {
      root_.set(tx, node);
    } else if (key < parent->key.get(tx)) {
      parent->left.set(tx, node);
    } else {
      parent->right.set(tx, node);
    }
    insert_fixup(tx, node);
    size_.add(tx, 1);
    return true;
  }

  // Lookup.
  std::optional<V> find(stm::Tx& tx, const K& key) const {
    Node* cur = root_.get(tx);
    while (cur != nil_) {
      const K ck = cur->key.get(tx);
      if (key < ck) {
        cur = cur->left.get(tx);
      } else if (ck < key) {
        cur = cur->right.get(tx);
      } else {
        return cur->value.get(tx);
      }
    }
    return std::nullopt;
  }

  bool contains(stm::Tx& tx, const K& key) const {
    return find(tx, key).has_value();
  }

  // Remove. Returns true if the key was present.
  bool erase(stm::Tx& tx, const K& key) {
    Node* z = root_.get(tx);
    while (z != nil_) {
      const K ck = z->key.get(tx);
      if (key < ck) {
        z = z->left.get(tx);
      } else if (ck < key) {
        z = z->right.get(tx);
      } else {
        break;
      }
    }
    if (z == nil_) return false;
    erase_node(tx, z);
    size_.add(tx, -1);
    // Reclaim after commit + quiescence: no concurrent transaction can
    // still hold a reference by then.
    tx.on_commit([z] {
      z->~Node();
      std::free(z);
    });
    return true;
  }

  std::size_t size(stm::Tx& tx) const { return size_.get(tx); }

  // In-order visit (transactional; the visitor must not throw).
  void for_each(stm::Tx& tx,
                const std::function<void(const K&, const V&)>& visit) const {
    visit_inorder(tx, root_.get(tx), visit);
  }

  // --- validation hooks (tests; call while quiescent) -----------------

  // Checks the red-black invariants directly (no transactions):
  // root black, no red node with a red child, equal black heights.
  // Returns the black height, or -1 on violation.
  int validate_direct() const { return check(root_.load_direct()); }

  bool sorted_direct() const {
    const Node* prev = nullptr;
    return check_sorted(root_.load_direct(), &prev);
  }

  std::size_t size_direct() const { return size_.load_direct(); }

 private:
  struct Node {
    stm::tvar<K> key{};
    stm::tvar<V> value{};
    stm::tvar<Node*> left{nullptr};
    stm::tvar<Node*> right{nullptr};
    stm::tvar<Node*> parent{nullptr};
    stm::tvar<bool> red{false};
  };

  // -- rotations & fix-ups (CLRS 13) -----------------------------------

  void rotate_left(stm::Tx& tx, Node* x) {
    Node* y = x->right.get(tx);
    Node* yl = y->left.get(tx);
    x->right.set(tx, yl);
    if (yl != nil_) yl->parent.set(tx, x);
    Node* xp = x->parent.get(tx);
    y->parent.set(tx, xp);
    if (xp == nil_) {
      root_.set(tx, y);
    } else if (x == xp->left.get(tx)) {
      xp->left.set(tx, y);
    } else {
      xp->right.set(tx, y);
    }
    y->left.set(tx, x);
    x->parent.set(tx, y);
  }

  void rotate_right(stm::Tx& tx, Node* x) {
    Node* y = x->left.get(tx);
    Node* yr = y->right.get(tx);
    x->left.set(tx, yr);
    if (yr != nil_) yr->parent.set(tx, x);
    Node* xp = x->parent.get(tx);
    y->parent.set(tx, xp);
    if (xp == nil_) {
      root_.set(tx, y);
    } else if (x == xp->right.get(tx)) {
      xp->right.set(tx, y);
    } else {
      xp->left.set(tx, y);
    }
    y->right.set(tx, x);
    x->parent.set(tx, y);
  }

  void insert_fixup(stm::Tx& tx, Node* z) {
    while (z->parent.get(tx)->red.get(tx)) {
      Node* zp = z->parent.get(tx);
      Node* zpp = zp->parent.get(tx);
      if (zp == zpp->left.get(tx)) {
        Node* uncle = zpp->right.get(tx);
        if (uncle->red.get(tx)) {
          zp->red.set(tx, false);
          uncle->red.set(tx, false);
          zpp->red.set(tx, true);
          z = zpp;
        } else {
          if (z == zp->right.get(tx)) {
            z = zp;
            rotate_left(tx, z);
            zp = z->parent.get(tx);
            zpp = zp->parent.get(tx);
          }
          zp->red.set(tx, false);
          zpp->red.set(tx, true);
          rotate_right(tx, zpp);
        }
      } else {
        Node* uncle = zpp->left.get(tx);
        if (uncle->red.get(tx)) {
          zp->red.set(tx, false);
          uncle->red.set(tx, false);
          zpp->red.set(tx, true);
          z = zpp;
        } else {
          if (z == zp->left.get(tx)) {
            z = zp;
            rotate_right(tx, z);
            zp = z->parent.get(tx);
            zpp = zp->parent.get(tx);
          }
          zp->red.set(tx, false);
          zpp->red.set(tx, true);
          rotate_left(tx, zpp);
        }
      }
    }
    // Store only when the fix-up reddened the root: an unconditional
    // store would make every insert write the root line that every
    // operation reads first.
    Node* root = root_.get(tx);
    if (root->red.get(tx)) root->red.set(tx, false);
  }

  void transplant(stm::Tx& tx, Node* u, Node* v) {
    Node* up = u->parent.get(tx);
    if (up == nil_) {
      root_.set(tx, v);
    } else if (u == up->left.get(tx)) {
      up->left.set(tx, v);
    } else {
      up->right.set(tx, v);
    }
    v->parent.set(tx, up);
  }

  Node* minimum(stm::Tx& tx, Node* x) const {
    while (x->left.get(tx) != nil_) x = x->left.get(tx);
    return x;
  }

  void erase_node(stm::Tx& tx, Node* z) {
    Node* y = z;
    bool y_was_red = y->red.get(tx);
    Node* x;
    if (z->left.get(tx) == nil_) {
      x = z->right.get(tx);
      transplant(tx, z, x);
    } else if (z->right.get(tx) == nil_) {
      x = z->left.get(tx);
      transplant(tx, z, x);
    } else {
      y = minimum(tx, z->right.get(tx));
      y_was_red = y->red.get(tx);
      x = y->right.get(tx);
      if (y->parent.get(tx) == z) {
        x->parent.set(tx, y);  // may write the sentinel; CLRS does too
      } else {
        transplant(tx, y, x);
        Node* zr = z->right.get(tx);
        y->right.set(tx, zr);
        zr->parent.set(tx, y);
      }
      transplant(tx, z, y);
      Node* zl = z->left.get(tx);
      y->left.set(tx, zl);
      zl->parent.set(tx, y);
      y->red.set(tx, z->red.get(tx));
    }
    if (!y_was_red) erase_fixup(tx, x);
  }

  void erase_fixup(stm::Tx& tx, Node* x) {
    while (x != root_.get(tx) && !x->red.get(tx)) {
      Node* xp = x->parent.get(tx);
      if (x == xp->left.get(tx)) {
        Node* w = xp->right.get(tx);
        if (w->red.get(tx)) {
          w->red.set(tx, false);
          xp->red.set(tx, true);
          rotate_left(tx, xp);
          w = xp->right.get(tx);
        }
        if (!w->left.get(tx)->red.get(tx) && !w->right.get(tx)->red.get(tx)) {
          w->red.set(tx, true);
          x = xp;
        } else {
          if (!w->right.get(tx)->red.get(tx)) {
            w->left.get(tx)->red.set(tx, false);
            w->red.set(tx, true);
            rotate_right(tx, w);
            w = xp->right.get(tx);
          }
          w->red.set(tx, xp->red.get(tx));
          xp->red.set(tx, false);
          w->right.get(tx)->red.set(tx, false);
          rotate_left(tx, xp);
          x = root_.get(tx);
        }
      } else {
        Node* w = xp->left.get(tx);
        if (w->red.get(tx)) {
          w->red.set(tx, false);
          xp->red.set(tx, true);
          rotate_right(tx, xp);
          w = xp->left.get(tx);
        }
        if (!w->right.get(tx)->red.get(tx) && !w->left.get(tx)->red.get(tx)) {
          w->red.set(tx, true);
          x = xp;
        } else {
          if (!w->left.get(tx)->red.get(tx)) {
            w->right.get(tx)->red.set(tx, false);
            w->red.set(tx, true);
            rotate_left(tx, w);
            w = xp->left.get(tx);
          }
          w->red.set(tx, xp->red.get(tx));
          xp->red.set(tx, false);
          w->left.get(tx)->red.set(tx, false);
          rotate_right(tx, xp);
          x = root_.get(tx);
        }
      }
    }
    x->red.set(tx, false);
  }

  void visit_inorder(
      stm::Tx& tx, Node* n,
      const std::function<void(const K&, const V&)>& visit) const {
    if (n == nil_) return;
    visit_inorder(tx, n->left.get(tx), visit);
    visit(n->key.get(tx), n->value.get(tx));
    visit_inorder(tx, n->right.get(tx), visit);
  }

  // -- direct validation (quiescent) ------------------------------------

  int check(const Node* n) const {
    if (n == nil_) return 1;
    const bool red = n->red.load_direct();
    const Node* l = n->left.load_direct();
    const Node* r = n->right.load_direct();
    if (red && (l->red.load_direct() || r->red.load_direct())) return -1;
    const int lh = check(l);
    const int rh = check(r);
    if (lh < 0 || rh < 0 || lh != rh) return -1;
    return lh + (red ? 0 : 1);
  }

  bool check_sorted(const Node* n, const Node** prev) const {
    if (n == nil_) return true;
    if (!check_sorted(n->left.load_direct(), prev)) return false;
    if (*prev != nullptr &&
        !((*prev)->key.load_direct() < n->key.load_direct())) {
      return false;
    }
    *prev = n;
    return check_sorted(n->right.load_direct(), prev);
  }

  void destroy(Node* n) {
    if (n == nil_) return;
    destroy(n->left.load_direct());
    destroy(n->right.load_direct());
    n->~Node();
    std::free(n);
  }

  Node* nil_;
  stm::tvar<Node*> root_{nullptr};
  TxSizeCounter size_;
};

}  // namespace adtm::containers
