#include "sql/lexer.h"

#include <cctype>
#include <set>

#include "common/string_util.h"

namespace swift {

bool IsSqlKeyword(const std::string& w) {
  static const std::set<std::string> kKeywords = {
      "select", "from",  "where",   "group",   "by",  "order", "limit",
      "join",   "inner", "on",      "as",      "and", "or",    "not",
      "like",   "asc",   "desc",    "sum",     "count", "min", "max",
      "avg",    "null",  "distinct", "between", "in",  "is",   "having",
      "over",   "partition", "left", "outer"};
  return kKeywords.count(w) > 0;
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    const std::size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = ToLower(sql.substr(start, i - start));
      out.push_back(Token{IsSqlKeyword(word) ? TokenKind::kKeyword
                                             : TokenKind::kIdentifier,
                          std::move(word), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool dot = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                       (!dot && sql[i] == '.' && i + 1 < n &&
                        std::isdigit(static_cast<unsigned char>(sql[i + 1]))))) {
        if (sql[i] == '.') dot = true;
        ++i;
      }
      // Exponent: [eE][+-]?digits. An 'e' without digits is left for
      // the check below.
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        std::size_t j = i + 1;
        if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) {
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) {
            ++i;
          }
        }
      }
      // A letter right after a number is a typo, not an alias.
      if (i < n && (std::isalpha(static_cast<unsigned char>(sql[i])) ||
                    sql[i] == '_')) {
        return Status::ParseError(
            StrFormat("malformed number at offset %zu", i));
      }
      out.push_back(Token{TokenKind::kNumber, sql.substr(start, i - start),
                          start});
      continue;
    }
    if (c == '\'') {
      std::string text;
      ++i;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(sql[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      out.push_back(Token{TokenKind::kString, std::move(text), start});
      continue;
    }
    // Two-character operators first.
    if (i + 1 < n) {
      const std::string two = sql.substr(i, 2);
      if (two == "<>" || two == "<=" || two == ">=" || two == "!=") {
        out.push_back(Token{TokenKind::kSymbol, two == "!=" ? "<>" : two,
                            start});
        i += 2;
        continue;
      }
    }
    static const std::string kSingles = "(),.*=<>+-/";
    if (kSingles.find(c) != std::string::npos) {
      out.push_back(Token{TokenKind::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    if (c == ';') {
      ++i;  // statement terminator: ignore
      continue;
    }
    return Status::ParseError(
        StrFormat("unexpected character '%c' at offset %zu", c, start));
  }
  out.push_back(Token{TokenKind::kEnd, "", n});
  return out;
}

}  // namespace swift
