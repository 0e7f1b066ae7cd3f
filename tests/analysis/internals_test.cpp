// Unit tests for the txsafety analyzer internals: the lexer, the
// scope-stack function extractor, and the cross-TU call-graph checks.
// The fixture corpus under tests/analysis/fixtures/ exercises each check
// end-to-end through the CLI; these tests pin the building blocks the
// checks stand on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analyzer.hpp"
#include "lexer.hpp"
#include "parse.hpp"

namespace {

using txsafety::Analyzer;
using txsafety::Corpus;
using txsafety::Finding;
using txsafety::Fn;
using txsafety::SourceFile;
using txsafety::Token;

Corpus corpus_from(
    std::vector<std::pair<std::string, std::string>> files) {
  Corpus c;
  for (auto& [path, text] : files) c.add(txsafety::lex(path, text));
  c.index();
  return c;
}

std::vector<Finding> run_check(const std::string& check,
                               const std::string& text) {
  Corpus c = corpus_from({{"t.cpp", text}});
  Analyzer az(std::move(c));
  return az.run(check, /*scoped=*/false);
}

bool has_token(const SourceFile& f, const std::string& text) {
  for (const Token& t : f.toks)
    if (t.text == text) return true;
  return false;
}

// --- lexer -----------------------------------------------------------------

TEST(Lexer, CommentsAndStringsEmitNoCodeTokens) {
  const SourceFile f = txsafety::lex("t.cpp",
                                     "// load_direct in a comment\n"
                                     "/* store_direct in a block\n"
                                     "   spanning lines */\n"
                                     "const char* s = \"load_direct(x)\";\n");
  EXPECT_FALSE(has_token(f, "load_direct"));
  EXPECT_FALSE(has_token(f, "store_direct"));
  // The string literal itself is one String token, not code.
  int strings = 0;
  for (const Token& t : f.toks)
    if (t.kind == Token::Kind::String) ++strings;
  EXPECT_EQ(strings, 1);
}

TEST(Lexer, RawStringsCollapse) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "auto r = R\"(unbalanced { and \" and load_direct( )\";\n"
      "int after = 1;\n");
  EXPECT_FALSE(has_token(f, "load_direct"));
  EXPECT_TRUE(has_token(f, "after"));
  // The raw literal must not desync brace matching for what follows.
  const SourceFile g = txsafety::lex(
      "t.cpp", "void f() { auto r = R\"({{{)\"; int x = 0; }\n");
  int opens = 0, matched = 0;
  for (std::size_t i = 0; i < g.toks.size(); ++i) {
    if (g.toks[i].text == "{") {
      ++opens;
      if (g.match[i] >= 0) ++matched;
    }
  }
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(matched, 1);
}

TEST(Lexer, PreprocessorLinesAreSkipped) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "#include <mutex>\n"
      "#define LOCK(m) std::lock_guard<std::mutex> lk(m)\n"
      "#define LONG_MACRO(a) \\\n"
      "  do_stuff(a)\n"
      "int x = 1;\n");
  EXPECT_FALSE(has_token(f, "lock_guard"));
  EXPECT_FALSE(has_token(f, "do_stuff"));  // continuation line skipped too
  EXPECT_TRUE(has_token(f, "x"));
}

TEST(Lexer, SuppressionCommentsAreHarvested) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "int a = 1;  // txsafety:allow(raw-tvar-access, defer-ordering)\n"
      "int b = 2;  // txsafety:allow(ref-capture-into-defer)\n"
      "// txsafety:allow(tx-region)\n"
      "int c = 3;\n");
  EXPECT_TRUE(f.allowed(1, "raw-tvar-access"));
  EXPECT_TRUE(f.allowed(1, "defer-ordering"));
  EXPECT_FALSE(f.allowed(1, "tx-region"));
  EXPECT_TRUE(f.allowed(2, "ref-capture-into-defer"));
  EXPECT_FALSE(f.allowed(2, "defer-ordering"));  // suppressions are per line
  // A comment-only suppression line covers the next code line.
  EXPECT_TRUE(f.allowed(4, "tx-region"));
}

TEST(Lexer, BracketMatchingSurvivesNesting) {
  const SourceFile f =
      txsafety::lex("t.cpp", "void f() { g([&] { h(); }, x[1]); }\n");
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const std::string& t = f.toks[i].text;
    if (t == "(" || t == "{" || t == "[") {
      ASSERT_GE(f.match[i], 0) << "unmatched " << t << " at token " << i;
      EXPECT_EQ(f.match[static_cast<std::size_t>(f.match[i])],
                static_cast<int>(i));
    }
  }
}

// --- function extractor ----------------------------------------------------

const Fn* find_fn(const std::vector<Fn>& fns, const std::string& name) {
  for (const Fn& fn : fns)
    if (fn.name == name) return &fn;
  return nullptr;
}

TEST(Extractor, NamespaceAndClassMembers) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "namespace adtm {\n"
      "void free_fn(int a, int b) { (void)a; }\n"
      "class Widget {\n"
      " public:\n"
      "  Widget() : n_(0) {}\n"
      "  void poke(stm::Tx& tx) { n_.set(tx, 1); }\n"
      " private:\n"
      "  stm::tvar<int> n_;\n"
      "};\n"
      "}  // namespace adtm\n");
  const auto fns = txsafety::extract_functions(f, 0);
  const Fn* free_fn = find_fn(fns, "free_fn");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->cls, "");
  EXPECT_EQ(free_fn->min_args, 2);
  const Fn* ctor = find_fn(fns, "Widget");
  ASSERT_NE(ctor, nullptr);
  EXPECT_TRUE(ctor->ctor_dtor);
  const Fn* poke = find_fn(fns, "poke");
  ASSERT_NE(poke, nullptr);
  EXPECT_EQ(poke->cls, "Widget");
  EXPECT_EQ(poke->tx_param, "tx");
}

TEST(Extractor, TemplateClassMethodsAndVariadics) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "template <typename T>\n"
      "class Box {\n"
      " public:\n"
      "  void put(stm::Tx& tx, T v) { v_.set(tx, v); }\n"
      "};\n"
      "int printf_like(const char* fmt, ...) { return 0; }\n");
  const auto fns = txsafety::extract_functions(f, 0);
  const Fn* put = find_fn(fns, "put");
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->cls, "Box");
  EXPECT_EQ(put->tx_param, "tx");
  const Fn* pf = find_fn(fns, "printf_like");
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->max_args, -1);  // variadic
}

TEST(Extractor, NestedLambdasStayInsideTheirFunction) {
  const SourceFile f = txsafety::lex(
      "t.cpp",
      "void outer() {\n"
      "  auto fn = [](int x) { return [x] { return x; }; };\n"
      "  fn(1);\n"
      "}\n"
      "void after() {}\n");
  const auto fns = txsafety::extract_functions(f, 0);
  const Fn* outer = find_fn(fns, "outer");
  const Fn* after = find_fn(fns, "after");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_LT(outer->body_close, after->body_open);
}

// --- call graph + region tracking through the checks -----------------------

TEST(CallGraph, TransitiveSinkReachability) {
  Corpus c = corpus_from(
      {{"a.cpp",
        "void leaf(int fd) { ::write(fd, \"x\", 1); }\n"
        "void mid(int fd) { leaf(fd); }\n"},
       {"b.cpp",
        "void txn(stm::Tx& tx, stm::tvar<int>& v, int fd) {\n"
        "  v.set(tx, 1);\n"
        "  mid(fd);\n"
        "}\n"}});
  Analyzer az(std::move(c));
  const auto found = az.run("irrevocable-call-in-tx", /*scoped=*/false);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].path, "b.cpp");
  // The chain names both hops of the two-file route to the syscall.
  ASSERT_EQ(found[0].chain.size(), 2u);
  EXPECT_NE(found[0].chain[0].find("mid"), std::string::npos);
  EXPECT_NE(found[0].chain[1].find("leaf"), std::string::npos);
}

TEST(CallGraph, DeferredEpilogueIsNotReachable) {
  const auto found = run_check(
      "irrevocable-call-in-tx",
      "void txn(stm::Tx& tx, stm::tvar<int>& v, int fd) {\n"
      "  v.set(tx, 1);\n"
      "  atomic_defer(tx, [fd] { ::write(fd, \"x\", 1); });\n"
      "}\n");
  EXPECT_TRUE(found.empty());
}

TEST(RegionTracker, EpilogueLambdaIsExcludedFromTheTxBody) {
  // sleep_for inside the transaction body: flagged. The same call inside
  // the atomic_defer epilogue (textually still inside the stm::atomic
  // argument list): not flagged.
  const auto in_body = run_check(
      "tx-region",
      "void f(stm::tvar<int>& v) {\n"
      "  stm::atomic([&](stm::Tx& tx) {\n"
      "    std::this_thread::sleep_for(delay);\n"
      "    v.set(tx, 1);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(in_body.size(), 1u);
  EXPECT_EQ(in_body[0].line, 3);
  const auto in_epilogue = run_check(
      "tx-region",
      "void f(stm::tvar<int>& v) {\n"
      "  stm::atomic([&](stm::Tx& tx) {\n"
      "    v.set(tx, 1);\n"
      "    atomic_defer(tx, [] { std::this_thread::sleep_for(delay); });\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(in_epilogue.empty());
}

TEST(DeferOrdering, RegistrationAfterWriteIsFlagged) {
  const auto found = run_check(
      "defer-ordering",
      "void f(stm::Tx& tx, Table& table, txlog::TxLogger& logger) {\n"
      "  table.set(tx, 1, 2);\n"
      "  logger.log(tx, \"too late\");\n"
      "}\n");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 3);
}

TEST(DeferOrdering, PreSubscribedObjectsMakeLaterRegistrationsReentrant) {
  const auto found = run_check(
      "defer-ordering",
      "void f(stm::Tx& tx, Account& acct) {\n"
      "  acct.subscribe(tx);\n"
      "  acct.set(tx, 1);\n"
      "  atomic_defer(tx, [] {}, acct);\n"  // reentrant: cannot block
      "}\n");
  EXPECT_TRUE(found.empty());
}

TEST(Suppression, AllowCommentSilencesAFinding) {
  const auto found = run_check(
      "defer-ordering",
      "void f(stm::Tx& tx, Table& table, txlog::TxLogger& logger) {\n"
      "  table.set(tx, 1, 2);\n"
      "  logger.log(tx, \"x\");  // txsafety:allow(defer-ordering)\n"
      "}\n");
  EXPECT_TRUE(found.empty());
}

}  // namespace
