#include "pmlang/lexer.h"

#include <array>
#include <string>

namespace polymath::lang {

namespace {

/** The keyword spelled @p text, or Tok::Ident. A switch on the length
 *  leaves at most five candidates to compare. */
Tok
keywordOr(std::string_view text)
{
    switch (text.size()) {
      case 2:
        if (text == "GA") return Tok::KwGA;
        if (text == "DA") return Tok::KwDA;
        if (text == "DL") return Tok::KwDL;
        break;
      case 3:
        if (text == "bin") return Tok::KwBin;
        if (text == "int") return Tok::KwInt;
        if (text == "str") return Tok::KwStr;
        if (text == "RBT") return Tok::KwRBT;
        if (text == "DSP") return Tok::KwDSP;
        break;
      case 5:
        if (text == "input") return Tok::KwInput;
        if (text == "state") return Tok::KwState;
        if (text == "param") return Tok::KwParam;
        if (text == "index") return Tok::KwIndex;
        if (text == "float") return Tok::KwFloat;
        break;
      case 6:
        if (text == "output") return Tok::KwOutput;
        break;
      case 7:
        if (text == "complex") return Tok::KwComplex;
        break;
      case 9:
        if (text == "reduction") return Tok::KwReduction;
        break;
      default:
        break;
    }
    return Tok::Ident;
}

// Branch-light character classes (PMLang source is ASCII); the
// locale-aware std::is* calls are far too slow for the per-character
// scanning loops below.
enum : uint8_t { kSpace = 1, kDigit = 2, kAlpha = 4 };

constexpr std::array<uint8_t, 256>
makeCharClass()
{
    std::array<uint8_t, 256> t{};
    for (int c = 0; c < 256; ++c) {
        const auto uc = static_cast<size_t>(c);
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
            c == '\f')
            t[uc] |= kSpace;
        if (c >= '0' && c <= '9')
            t[uc] |= kDigit;
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')
            t[uc] |= kAlpha;
    }
    return t;
}

constexpr std::array<uint8_t, 256> kCharClass = makeCharClass();

bool
isSpace(char c)
{
    return (kCharClass[static_cast<uint8_t>(c)] & kSpace) != 0;
}

bool
isDigit(char c)
{
    return (kCharClass[static_cast<uint8_t>(c)] & kDigit) != 0;
}

bool
isIdentStart(char c)
{
    return (kCharClass[static_cast<uint8_t>(c)] & kAlpha) != 0;
}

bool
isIdent(char c)
{
    return (kCharClass[static_cast<uint8_t>(c)] & (kAlpha | kDigit)) != 0;
}

} // namespace

Lexer::Lexer(std::string_view source) : src_(source) {}

char
Lexer::peek(int ahead) const
{
    const size_t p = pos_ + static_cast<size_t>(ahead);
    return p < src_.size() ? src_[p] : '\0';
}

char
Lexer::advance()
{
    const char c = src_[pos_++];
    if (c == '\n') {
        ++line_;
        lineStart_ = pos_;
    }
    return c;
}

bool
Lexer::atEnd() const
{
    return pos_ >= src_.size();
}

SourceLoc
Lexer::here() const
{
    // Column is derived from the current line's start offset instead of
    // being updated per character in the scanning loops.
    return {line_, static_cast<int32_t>(pos_ - lineStart_) + 1};
}

void
Lexer::skipTrivia()
{
    const size_t n = src_.size();
    while (pos_ < n) {
        const char c = src_[pos_];
        if (isSpace(c)) {
            ++pos_;
            if (c == '\n') {
                ++line_;
                lineStart_ = pos_;
            }
        } else if (c == '/' && peek(1) == '/') {
            while (pos_ < n && src_[pos_] != '\n')
                ++pos_;
        } else if (c == '/' && peek(1) == '*') {
            const SourceLoc open = here();
            pos_ += 2;
            while (pos_ < n && !(src_[pos_] == '*' && peek(1) == '/'))
                advance();
            if (pos_ >= n)
                fatal("unterminated block comment", open);
            pos_ += 2;
        } else {
            return;
        }
    }
}

Token
Lexer::make(Tok kind, size_t start) const
{
    return Token{kind, src_.substr(start, pos_ - start), tokenStart_};
}

Token
Lexer::lexNumber()
{
    const size_t start = pos_;
    bool is_float = false;
    while (isDigit(peek()))
        ++pos_;
    if (peek() == '.' && isDigit(peek(1))) {
        is_float = true;
        ++pos_;
        while (isDigit(peek()))
            ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
        const char sign = peek(1);
        const char first = (sign == '+' || sign == '-') ? peek(2) : sign;
        if (isDigit(first)) {
            is_float = true;
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (isDigit(peek()))
                ++pos_;
        }
    }
    return make(is_float ? Tok::FloatLit : Tok::IntLit, start);
}

Token
Lexer::lexIdentOrKeyword()
{
    const size_t start = pos_;
    while (isIdent(peek()))
        ++pos_;
    return make(keywordOr(src_.substr(start, pos_ - start)), start);
}

Token
Lexer::lexString()
{
    const SourceLoc open = tokenStart_;
    ++pos_; // opening quote
    const size_t start = pos_;
    while (!atEnd() && peek() != '"') {
        if (peek() == '\n')
            fatal("newline in string literal", open);
        ++pos_;
    }
    if (atEnd())
        fatal("unterminated string literal", open);
    const size_t len = pos_ - start;
    ++pos_; // closing quote
    return Token{Tok::StrLit, src_.substr(start, len), open};
}

std::vector<Token>
Lexer::lexAll()
{
    std::vector<Token> out;
    // PMLang runs 1.9-2.8 bytes per token (Table III/IV programs).
    out.reserve(src_.size() / 2 + 8);
    while (true) {
        skipTrivia();
        tokenStart_ = here();
        const size_t start = pos_;
        if (atEnd()) {
            out.push_back(make(Tok::Eof, start));
            return out;
        }
        const char c = peek();
        if (isDigit(c)) {
            out.push_back(lexNumber());
            continue;
        }
        if (isIdentStart(c)) {
            out.push_back(lexIdentOrKeyword());
            continue;
        }
        if (c == '"') {
            out.push_back(lexString());
            continue;
        }
        ++pos_;
        // The one-character kind of c, or its two-character form when
        // followed by @p second.
        auto pair = [&](char second, Tok two, Tok one) {
            if (peek() != second)
                return one;
            ++pos_;
            return two;
        };
        Tok kind;
        switch (c) {
          case '(': kind = Tok::LParen; break;
          case ')': kind = Tok::RParen; break;
          case '{': kind = Tok::LBrace; break;
          case '}': kind = Tok::RBrace; break;
          case '[': kind = Tok::LBracket; break;
          case ']': kind = Tok::RBracket; break;
          case ',': kind = Tok::Comma; break;
          case ';': kind = Tok::Semicolon; break;
          case '?': kind = Tok::Question; break;
          case '+': kind = Tok::Plus; break;
          case '-': kind = Tok::Minus; break;
          case '*': kind = Tok::Star; break;
          case '/': kind = Tok::Slash; break;
          case '%': kind = Tok::Percent; break;
          case '^': kind = Tok::Caret; break;
          case ':': kind = Tok::Colon; break;
          case '=': kind = pair('=', Tok::EqEq, Tok::Assign); break;
          case '<': kind = pair('=', Tok::Le, Tok::Lt); break;
          case '>': kind = pair('=', Tok::Ge, Tok::Gt); break;
          case '!': kind = pair('=', Tok::NotEq, Tok::Not); break;
          case '&':
            if (peek() != '&')
                fatal("unexpected character '&'", tokenStart_);
            ++pos_;
            kind = Tok::AndAnd;
            break;
          case '|':
            if (peek() != '|')
                fatal("unexpected character '|'", tokenStart_);
            ++pos_;
            kind = Tok::OrOr;
            break;
          default:
            fatal(std::string("unexpected character '") + c + "'",
                  tokenStart_);
        }
        out.push_back(make(kind, start));
    }
}

} // namespace polymath::lang
