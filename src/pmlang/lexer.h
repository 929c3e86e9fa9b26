/**
 * @file
 * Hand-written lexer for PMLang.
 *
 * Supports //-line and C-style block comments, decimal int/float literals
 * with exponents, double-quoted strings, and the operator set of Section II.
 */
#ifndef POLYMATH_PMLANG_LEXER_H_
#define POLYMATH_PMLANG_LEXER_H_

#include <string_view>
#include <vector>

#include "pmlang/token.h"

namespace polymath::lang {

/** Converts PMLang source text into a token stream. The lexer copies
 *  nothing: @p source must outlive it and every token it returns. */
class Lexer
{
  public:
    explicit Lexer(std::string_view source);

    /** Lexes the entire input; the final token is always Eof.
     *  @throws UserError on malformed input. */
    std::vector<Token> lexAll();

  private:
    char peek(int ahead = 0) const;
    char advance();
    bool atEnd() const;
    void skipTrivia();
    Token lexNumber();
    Token lexIdentOrKeyword();
    Token lexString();
    Token make(Tok kind, size_t start) const;
    SourceLoc here() const;

    std::string_view src_;
    size_t pos_ = 0;
    int32_t line_ = 1;
    size_t lineStart_ = 0; ///< offset of the current line (column = pos - this)
    SourceLoc tokenStart_;
};

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_LEXER_H_
