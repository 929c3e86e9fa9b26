/**
 * @file
 * Recursive-descent parser for PMLang, with one precedence-climbing loop
 * for the binary operators.
 */
#ifndef POLYMATH_PMLANG_PARSER_H_
#define POLYMATH_PMLANG_PARSER_H_

#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "pmlang/ast.h"
#include "pmlang/token.h"

namespace polymath::lang {

/**
 * Deepest expression the parser accepts. It bounds both the height of
 * the expression tree, the left-associative chains that `a + b + c`
 * builds without recursing included, and the nesting of parentheses,
 * unary operators, `^` and bracketed operands the parser recurses
 * through; past it the parser throws a positioned UserError. Every
 * later stage (sema, srDFG build, passes, printers) recurses over the
 * tree, so without a bound one long sum overflowed the stack. Measured
 * with `pmc --target DA` at the default 8 MiB stack: Release crashed
 * from 7,200 nested parentheses and from about 10,900 chained terms or
 * unary minuses; the ASan build from 1,340 chained terms (srDFG
 * builder) and 2,230 parentheses. Table III/IV programs nest at most
 * 18 levels.
 */
inline constexpr int kMaxExprDepth = 256;

/**
 * Parses PMLang source text into a Program.
 * @throws UserError (with source location) on the first syntax error.
 */
Program parse(const std::string &source);

/**
 * Parses PMLang source text, recovering from syntax errors at statement
 * and declaration boundaries so every error in the file lands in @p diag
 * in one pass. Returns the (possibly partial) program of the statements
 * that did parse; callers must check diag.hasErrors() before using it.
 * Lexical errors are unrecoverable and yield an empty program with one
 * diagnostic.
 */
Program parseWithRecovery(const std::string &source, DiagnosticEngine &diag);

/**
 * Internal parser class; exposed for unit tests of sub-productions. The
 * nodes it builds live in its Arena, which parseProgram() hands to the
 * Program it returns.
 */
class Parser
{
  public:
    /** With a DiagnosticEngine, syntax errors are collected and the parser
     *  resynchronizes; without one, the first error throws UserError. */
    explicit Parser(std::vector<Token> tokens,
                    DiagnosticEngine *diag = nullptr);

    /** Parses a whole translation unit. */
    Program parseProgram();

    /** Parses a single expression (must consume all input up to Eof).
     *  The expression lives as long as this parser. */
    ExprPtr parseStandaloneExpr();

  private:
    const Token &peek(int ahead = 0) const;
    const Token &advance();
    bool check(Tok kind) const { return peek().is(kind); }
    bool match(Tok kind);
    const Token &expect(Tok kind, const char *context);
    [[noreturn]] void errorHere(const std::string &message) const;

    /** Error recovery: skip tokens to a statement boundary (past a ';' or
     *  up to a token that can begin a statement / close the body). */
    void synchronizeStmt();

    /** Error recovery: skip tokens to the next plausible top-level
     *  declaration start. */
    void synchronizeTopLevel();

    ComponentDecl parseComponent();
    ReductionDecl parseReduction();
    ArgDecl parseArgDecl();
    StmtPtr parseStmt();
    StmtPtr parseIndexDecl();
    StmtPtr parseVarDecl(DType type);
    StmtPtr parseAssignOrCall(Domain domain);
    ExprList parseDims();
    /** Parses `expr (',' expr)*`, or nothing before a ')'. */
    ExprList parseArgs();

    ExprPtr parseExpr();
    ExprPtr parseTernary();
    /** Binary operators binding at least as tightly as @p minPrec. */
    ExprPtr parseBinary(int minPrec);
    ExprPtr parseUnary();
    ExprPtr parsePrimary();
    ExprPtr parseIdentExpr();

    /** Moves operands_ from @p mark on into the arena. */
    ExprList takeOperands(size_t mark);
    /** Sets @p e's height from its operands'; past kMaxExprDepth throws. */
    ExprPtr measured(Expr *e) const;
    ExprPtr makeBinary(const char *op, ExprPtr lhs, ExprPtr rhs,
                       SourceLoc loc);

    std::vector<Token> toks_;
    size_t pos_ = 0;
    DiagnosticEngine *diag_ = nullptr;
    int nesting_ = 0; ///< expression levels the parser is inside
    Arena arena_;
    /** Operand lists under construction, innermost last; each list is
     *  taken from the mark where it began. */
    std::vector<ExprPtr> operands_;
    /** One `[expr]` or `[expr: cond]` after a name: a subscript or a
     *  reduction axis, told apart by what follows the groups. */
    struct Group
    {
        ExprPtr expr = nullptr;
        ExprPtr cond = nullptr;
        SourceLoc loc;
    };
    /** Bracket groups under construction, like operands_. */
    std::vector<Group> groups_;
};

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_PARSER_H_
