// txsafety fixture (never compiled): moves, inside a transaction body, of
// state the body does not own. Expect findings.

// The WriteAheadLog::append(std::string) bug: the first attempt moves the
// caller's payload away, and every re-execution logs an empty record.
Lsn append_all(Log& log, std::string payload) {
  return stm::atomic(
      [&](stm::Tx& tx) { return log.append(tx, std::move(payload)); });  // FLAG
}

void fill(stm::tvar<Item*>& slot, std::vector<Item>& pending) {
  stm::atomic([&](stm::Tx& tx) {
    Item* p = static_cast<Item*>(tx.alloc(sizeof(Item)));
    new (p) Item(std::move(pending.back()));  // FLAG: outer container
    slot.set(tx, p);
  });
}

// A deferred lambda's capture list is evaluated by every attempt.
void defer_capture(stm::tvar<int>& v, std::string msg, Deferrable& obj) {
  stm::atomic([&](stm::Tx& tx) {
    v.set(tx, 1);
    atomic_defer(tx, [m = std::move(msg)] { publish(m); }, obj);  // FLAG
  });
}
