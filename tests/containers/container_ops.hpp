// One adapter per transactional map, so a test body can run unchanged
// over TxBTree, TxSkipList, TxRbTree and TxHashMap: the four containers
// name their insert, remove and validators differently.
#pragma once

#include "containers/btree.hpp"
#include "containers/hashmap.hpp"
#include "containers/rbtree.hpp"
#include "containers/skiplist.hpp"
#include "stm/api.hpp"

namespace adtm::test {

using containers::TxBTree;
using containers::TxHashMap;
using containers::TxRbTree;
using containers::TxSkipList;

struct BTreeOps {
  using Map = TxBTree<long, long>;
  static bool insert(stm::Tx& tx, Map& m, long k) { return m.put(tx, k, k); }
  static bool remove(stm::Tx& tx, Map& m, long k) { return m.remove(tx, k); }
  static bool consistent(const Map& m) {
    return m.validate_direct() > 0 && m.chain_consistent_direct();
  }
};

struct SkipListOps {
  using Map = TxSkipList<long, long>;
  static bool insert(stm::Tx& tx, Map& m, long k) { return m.put(tx, k, k); }
  static bool remove(stm::Tx& tx, Map& m, long k) { return m.remove(tx, k); }
  static bool consistent(const Map& m) {
    return m.sorted_direct() && m.levels_consistent_direct();
  }
};

struct RbTreeOps {
  using Map = TxRbTree<long, long>;
  static bool insert(stm::Tx& tx, Map& m, long k) {
    return m.insert(tx, k, k);
  }
  static bool remove(stm::Tx& tx, Map& m, long k) { return m.erase(tx, k); }
  static bool consistent(const Map& m) {
    return m.validate_direct() > 0 && m.sorted_direct();
  }
};

struct HashMapOps {
  using Map = TxHashMap<long, long>;
  static bool insert(stm::Tx& tx, Map& m, long k) { return m.put(tx, k, k); }
  static bool remove(stm::Tx& tx, Map& m, long k) { return m.erase(tx, k); }
  static bool consistent(const Map&) { return true; }  // no validator
};

}  // namespace adtm::test
