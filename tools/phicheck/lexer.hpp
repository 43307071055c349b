// Minimal C++ lexer for phicheck.
//
// phicheck is a project-specific linter, not a compiler: it needs token
// streams, line numbers, and the `// phicheck:` annotation comments — not a
// full grammar. Comments and literals are consumed correctly (so banned
// identifiers inside strings never fire), everything else is a flat token
// sequence the checkers pattern-match over.
#pragma once

#include <string>
#include <vector>

namespace phicheck {

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

/// One `phicheck:<directive> [args...]` comment. Example:
///   // phicheck:shm-pod phifi::fi::InjectionRecord size=152
/// parses to {line, "shm-pod", "phifi::fi::InjectionRecord size=152"}.
struct Annotation {
  int line = 0;
  std::string directive;
  std::string args;
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Annotation> annotations;

  /// True when an `allow(<checker>)` annotation sits on `line` or the line
  /// above it — the inline suppression mechanism (docs/STATIC_ANALYSIS.md).
  [[nodiscard]] bool allows(const std::string& checker, int line) const;
};

/// Tokenizes `text`. Handles //, /* */, string/char literals (including
/// raw strings and escape sequences), preprocessor lines as plain tokens.
LexedFile lex(std::string path, const std::string& text);

}  // namespace phicheck
