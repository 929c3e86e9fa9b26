/**
 * @file
 * Token definitions for the PMLang lexer.
 */
#ifndef POLYMATH_PMLANG_TOKEN_H_
#define POLYMATH_PMLANG_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/error.h"

namespace polymath::lang {

/** Lexical token kinds. */
enum class Tok : uint8_t {
    // literals / identifiers
    Ident, IntLit, FloatLit, StrLit,
    // keywords
    KwInput, KwOutput, KwState, KwParam, KwIndex, KwReduction,
    KwBin, KwInt, KwFloat, KwStr, KwComplex,
    // domain annotations
    KwRBT, KwGA, KwDSP, KwDA, KwDL,
    // punctuation
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Comma, Semicolon, Colon, Question,
    // operators
    Assign, Plus, Minus, Star, Slash, Percent, Caret,
    Lt, Gt, Le, Ge, EqEq, NotEq, AndAnd, OrOr, Not,
    // end of input
    Eof,
};

/** Returns a printable name for @p kind ("'+'", "identifier", ...). */
std::string tokName(Tok kind);

/** One lexical token with its location. @c text views the lexed source
 *  (a string literal's without its quotes), so a token is valid only
 *  while that source is. */
struct Token
{
    Tok kind = Tok::Eof;
    std::string_view text;
    SourceLoc loc;

    bool is(Tok k) const { return kind == k; }
};

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_TOKEN_H_
