// txsafety fixture (never compiled): moves a re-executed transaction body
// may make. Expect no findings.

// Each attempt copies the payload; the callee moves its own copy.
Lsn append_copy(Log& log, std::string payload) {
  return stm::atomic([&](stm::Tx& tx) { return log.append(tx, payload); });
}

// A local declared inside the body is re-created by every attempt.
void local_move(stm::tvar<int>& v, Deferrable& obj) {
  stm::atomic([&](stm::Tx& tx) {
    std::string msg = "n=" + std::to_string(v.get(tx));
    atomic_defer(tx, [m = std::move(msg)] { publish(m); }, obj);
  });
}

// A deferred lambda's body runs once, after commit.
void deferred_body(stm::tvar<int>& v, std::string& out, Deferrable& obj) {
  stm::atomic([&](stm::Tx& tx) {
    v.set(tx, 1);
    atomic_defer(tx, [&out] {
      std::string s = render();
      out = std::move(s);
      sink(std::move(out));
    }, obj);
  });
}

// A function taking Tx& gets a fresh parameter on every call.
Lsn append(stm::Tx& tx, std::string payload) {
  return stage(tx, std::move(payload));
}

// Moving after the transaction is the caller's business.
void after(stm::tvar<int>& v, std::string payload) {
  stm::atomic([&](stm::Tx& tx) { v.set(tx, 1); });
  consume(std::move(payload));
}
