#include "lexer.hpp"

#include <array>
#include <cctype>
#include <cstddef>

namespace txsafety {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators the checks care about (receiver chains,
// stream inserts, scope resolution). Everything else lexes as one char.
const std::array<const char*, 12> kPuncts = {"::", "->", "<<", ">>", "==",
                                             "!=", "<=", ">=", "&&", "||",
                                             "+=", "-="};

// Harvest `txsafety:allow(a,b)` out of a comment.
void harvest_allows(const std::string& comment, int line, SourceFile& out) {
  static const std::string kAllow = "txsafety:allow";
  for (std::size_t at = 0; (at = comment.find(kAllow, at)) != std::string::npos;
       at += kAllow.size()) {
    std::size_t p = at + kAllow.size();
    while (p < comment.size() && (comment[p] == ' ' || comment[p] == '('))
      ++p;
    while (p < comment.size()) {
      std::size_t b = p;
      while (p < comment.size() &&
             (ident_char(comment[p]) || comment[p] == '-'))
        ++p;
      if (p == b) break;
      out.allows[line].insert(comment.substr(b, p - b));
      while (p < comment.size() && (comment[p] == ' ' || comment[p] == ','))
        ++p;
      if (p >= comment.size() || comment[p] == ')') break;
    }
  }
}

}  // namespace

bool is_control_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "catch" || t == "return" || t == "sizeof" || t == "alignof" ||
         t == "alignas" || t == "decltype" || t == "static_assert" ||
         t == "assert" || t == "throw" || t == "noexcept" || t == "typeid" ||
         t == "static_cast" || t == "dynamic_cast" || t == "const_cast" ||
         t == "reinterpret_cast" || t == "defined";
}

bool SourceFile::allowed(int line, const std::string& check) const {
  auto hit = [&](int l) {
    auto it = allows.find(l);
    return it != allows.end() && it->second.count(check) != 0;
  };
  if (hit(line)) return true;
  // Walk up through comment-only lines directly above.
  for (int l = line - 1; l > 0; --l) {
    if (code_lines.count(l) != 0) return false;
    if (allows.count(l) == 0) {
      // A blank line between the comment and the code breaks the chain
      // only if there is no allowance anywhere above in the comment block;
      // stop at the first line that is neither comment nor allowance.
      return false;
    }
    if (hit(l)) return true;
  }
  return false;
}

SourceFile lex(std::string path, const std::string& text) {
  SourceFile out;
  out.path = std::move(path);
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto push = [&](Token::Kind k, std::string t) {
    out.code_lines.insert(line);
    out.toks.push_back(Token{k, std::move(t), line});
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t e = text.find('\n', i);
      if (e == std::string::npos) e = n;
      harvest_allows(text.substr(i, e - i), line, out);
      i = e;
      continue;
    }
    // Block comment (allowances attach to the line each marker sits on).
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t e = i + 2;
      int l = line;
      std::size_t seg = i;
      while (e + 1 < n && !(text[e] == '*' && text[e + 1] == '/')) {
        if (text[e] == '\n') {
          harvest_allows(text.substr(seg, e - seg), l, out);
          ++l;
          seg = e + 1;
        }
        ++e;
      }
      const std::size_t stop = (e + 1 < n) ? e + 2 : n;
      harvest_allows(text.substr(seg, stop - seg), l, out);
      line = l;
      i = stop;
      continue;
    }
    // Preprocessor directive: drop to end of line, honouring \-continuations.
    if (c == '#' &&
        (out.toks.empty() || out.toks.back().line != line)) {
      while (i < n) {
        if (text[i] == '\n') {
          if (i > 0 && text[i - 1] == '\\') {
            ++line;
            ++i;
            continue;
          }
          break;
        }
        ++i;
      }
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
        (out.toks.empty() || out.toks.back().kind != Token::Kind::Ident ||
         true)) {
      // Only if R is not glued to a preceding identifier character.
      if (i == 0 || !ident_char(text[i - 1])) {
        std::size_t d = i + 2;
        std::string delim;
        while (d < n && text[d] != '(' && text[d] != '\n' &&
               delim.size() < 16) {
          delim.push_back(text[d]);
          ++d;
        }
        if (d < n && text[d] == '(') {
          const std::string closer = ")" + delim + "\"";
          std::size_t e = text.find(closer, d + 1);
          if (e == std::string::npos) e = n;
          const int start_line = line;
          for (std::size_t k = i; k < e && k < n; ++k)
            if (text[k] == '\n') ++line;
          out.code_lines.insert(start_line);
          out.toks.push_back(
              Token{Token::Kind::String, "<raw-string>", start_line});
          i = (e == n) ? n : e + closer.size();
          continue;
        }
      }
    }
    // String / char literal (with escapes).
    if (c == '"' || c == '\'') {
      const char q = c;
      std::size_t e = i + 1;
      while (e < n && text[e] != q && text[e] != '\n') {
        if (text[e] == '\\' && e + 1 < n) ++e;
        ++e;
      }
      push(q == '"' ? Token::Kind::String : Token::Kind::CharLit,
           text.substr(i + 1, e - i - 1));
      i = (e < n && text[e] == q) ? e + 1 : e;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t e = i + 1;
      while (e < n && ident_char(text[e])) ++e;
      push(Token::Kind::Ident, text.substr(i, e - i));
      i = e;
      continue;
    }
    // Number (coarse: we never interpret the value).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      std::size_t e = i + 1;
      while (e < n && (ident_char(text[e]) || text[e] == '.' ||
                       ((text[e] == '+' || text[e] == '-') &&
                        (text[e - 1] == 'e' || text[e - 1] == 'E' ||
                         text[e - 1] == 'p' || text[e - 1] == 'P'))))
        ++e;
      push(Token::Kind::Number, text.substr(i, e - i));
      i = e;
      continue;
    }
    // Punctuation, longest-match over the interesting multi-char set.
    bool matched = false;
    for (const char* p : kPuncts) {
      const std::size_t len = 2;
      if (i + len <= n && text.compare(i, len, p) == 0) {
        push(Token::Kind::Punct, p);
        i += len;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    push(Token::Kind::Punct, std::string(1, c));
    ++i;
  }
  out.toks.push_back(Token{Token::Kind::End, "", line});

  // Bracket matching: one stack per bracket flavour.
  out.match.assign(out.toks.size(), -1);
  std::vector<std::size_t> paren, brace, bracket;
  for (std::size_t t = 0; t < out.toks.size(); ++t) {
    const Token& tok = out.toks[t];
    if (tok.kind != Token::Kind::Punct || tok.text.size() != 1) continue;
    const char ch = tok.text[0];
    auto open = [&](std::vector<std::size_t>& st) { st.push_back(t); };
    auto close = [&](std::vector<std::size_t>& st) {
      if (st.empty()) return;
      out.match[st.back()] = static_cast<int>(t);
      out.match[t] = static_cast<int>(st.back());
      st.pop_back();
    };
    switch (ch) {
      case '(': open(paren); break;
      case ')': close(paren); break;
      case '{': open(brace); break;
      case '}': close(brace); break;
      case '[': open(bracket); break;
      case ']': close(bracket); break;
      default: break;
    }
  }
  return out;
}

}  // namespace txsafety
