// txsafety lexer: turns a C++ translation unit into a token stream the
// region tracker and checks can reason about without regex fragility.
//
// Design constraints (see DESIGN.md "Static analysis"):
//  * comments, string/char literals (incl. raw strings) and preprocessor
//    directives never produce code tokens — a check table entry such as
//    "load_direct" can appear in a diagnostic string without tripping it;
//  * suppression comments (`txsafety:allow(check)`) are harvested while
//    lexing, so every check shares one suppression mechanism;
//  * bracket matching is precomputed: match[i] is the index of the token
//    closing the (/{/[ opened at i (and vice versa), -1 when unmatched.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace txsafety {

struct Token {
  enum class Kind { Ident, Number, String, CharLit, Punct, End };
  Kind kind;
  std::string text;
  int line;
};

struct SourceFile {
  std::string path;         // repo-relative, '/'-separated
  std::vector<Token> toks;  // ends with a Kind::End sentinel
  std::vector<int> match;   // bracket partner per token, -1 if none

  // line -> set of check names allowed on that line. A comment-only line
  // extends its allowance to the next line that carries code, so a
  // suppression can sit above a long expression.
  std::unordered_map<int, std::unordered_set<std::string>> allows;
  std::unordered_set<int> code_lines;  // lines that emitted a token

  bool allowed(int line, const std::string& check) const;
};

// Lex C++ source text. Never throws on malformed input: unterminated
// literals run to end of line/file, unmatched brackets get match == -1.
SourceFile lex(std::string path, const std::string& text);

// True if `t` is one of C++'s statement/expression keywords that can be
// followed by '(' without being a call (if, for, while, ...).
bool is_control_keyword(const std::string& t);

}  // namespace txsafety
