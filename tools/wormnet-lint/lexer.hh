/**
 * @file
 * Minimal C++ lexer for wormnet-lint.
 *
 * wormnet-lint does not depend on a clang installation: it
 * tokenizes C++ itself and drives heuristic,
 * brace-tracking parsing (model.hh) over the token stream. The lexer
 * therefore only needs to be faithful about the things a linter can
 * be confused by — comments (kept separately, they carry suppression
 * directives), string/char literals (never scanned for code),
 * raw strings, and preprocessor lines — not about the full grammar.
 */

#ifndef WORMNET_LINT_LEXER_HH
#define WORMNET_LINT_LEXER_HH

#include <string>
#include <vector>

namespace wormnet_lint
{

enum class TokKind
{
    Ident,   ///< identifiers and keywords
    Number,  ///< numeric literals (pp-numbers)
    String,  ///< string literals, incl. raw strings
    Char,    ///< character literals
    Punct,   ///< operators and punctuation, longest-match
};

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0; ///< 1-based
    int col = 0;  ///< 1-based

    bool is(const char *t) const { return text == t; }
    bool isIdent() const { return kind == TokKind::Ident; }
};

/** A comment, kept out of the token stream for suppression lookup. */
struct Comment
{
    int line = 0;     ///< line the comment starts on
    int endLine = 0;  ///< last line (block comments span several)
    std::string text; ///< contents without the // or open/close marks
};

struct LexedFile
{
    std::string path;
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

/**
 * Tokenize @p source. Preprocessor directives are skipped whole
 * (including continuation lines) except that their comments are still
 * collected. Never throws on malformed input: the worst case is a
 * skewed token stream, which downstream heuristics tolerate.
 */
LexedFile lex(const std::string &path, const std::string &source);

} // namespace wormnet_lint

#endif // WORMNET_LINT_LEXER_HH
