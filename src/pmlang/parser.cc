#include "pmlang/parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <utility>

#include "core/strings.h"
#include "obs/trace.h"
#include "pmlang/lexer.h"

namespace polymath::lang {

namespace {

/** Maps a domain-annotation token to its Domain value. */
Domain
domainFor(Tok kind)
{
    switch (kind) {
      case Tok::KwRBT: return Domain::RBT;
      case Tok::KwGA: return Domain::GA;
      case Tok::KwDSP: return Domain::DSP;
      case Tok::KwDA: return Domain::DA;
      case Tok::KwDL: return Domain::DL;
      default: return Domain::None;
    }
}

/** Maps a type-keyword token to its DType; nullopt otherwise. */
std::optional<DType>
typeFor(Tok kind)
{
    switch (kind) {
      case Tok::KwBin: return DType::Bin;
      case Tok::KwInt: return DType::Int;
      case Tok::KwFloat: return DType::Float;
      case Tok::KwStr: return DType::Str;
      case Tok::KwComplex: return DType::Complex;
      default: return std::nullopt;
    }
}

[[noreturn]] void
tooDeep(SourceLoc loc)
{
    fatal(format("expression nested deeper than %d levels", kMaxExprDepth),
          loc);
}

/** Binding strengths of the binary operators, loosest first. */
enum Prec : int {
    kNone = 0, ///< not a binary operator
    kOr,
    kAnd,
    kCompare, ///< non-associative
    kAdd,
    kMul,
    kPower, ///< right-associative
    kAtom,  ///< an operand no binary operator built
};

/** A binary operator's spelling in the AST and its precedence. */
struct Infix
{
    const char *op = nullptr;
    int prec = kNone;
};

constexpr std::array<Infix, static_cast<size_t>(Tok::Eof) + 1>
makeInfixTable()
{
    std::array<Infix, static_cast<size_t>(Tok::Eof) + 1> t{};
    auto set = [&t](Tok kind, const char *op, int prec) {
        t[static_cast<size_t>(kind)] = {op, prec};
    };
    set(Tok::OrOr, "||", kOr);
    set(Tok::AndAnd, "&&", kAnd);
    set(Tok::Lt, "<", kCompare);
    set(Tok::Gt, ">", kCompare);
    set(Tok::Le, "<=", kCompare);
    set(Tok::Ge, ">=", kCompare);
    set(Tok::EqEq, "==", kCompare);
    set(Tok::NotEq, "!=", kCompare);
    set(Tok::Plus, "+", kAdd);
    set(Tok::Minus, "-", kAdd);
    set(Tok::Star, "*", kMul);
    set(Tok::Slash, "/", kMul);
    set(Tok::Percent, "%", kMul);
    set(Tok::Caret, "^", kPower);
    return t;
}

constexpr auto kInfix = makeInfixTable();

/** One level of parser recursion, held while the parser is inside it;
 *  past kMaxExprDepth it throws instead of recursing toward a stack
 *  overflow. */
class Nesting
{
  public:
    Nesting(int &depth, SourceLoc loc) : depth_(depth)
    {
        if (depth_ >= kMaxExprDepth)
            tooDeep(loc);
        ++depth_;
    }
    ~Nesting() { --depth_; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;

  private:
    int &depth_;
};

} // namespace

Program
parse(const std::string &source)
{
    obs::Span span("pmlang:parse", "frontend");
    span.arg("bytes", static_cast<int64_t>(source.size()));
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parseProgram();
}

Program
parseWithRecovery(const std::string &source, DiagnosticEngine &diag)
{
    std::vector<Token> tokens;
    try {
        Lexer lexer(source);
        tokens = lexer.lexAll();
    } catch (const UserError &e) {
        diag.error(e.message(), e.loc());
        return {};
    }
    Parser parser(std::move(tokens), &diag);
    return parser.parseProgram();
}

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine *diag)
    : toks_(std::move(tokens)), diag_(diag), arena_(toks_.size())
{
    if (toks_.empty() || !toks_.back().is(Tok::Eof))
        panic("token stream must end with Eof");
}

const Token &
Parser::peek(int ahead) const
{
    const size_t p = pos_ + static_cast<size_t>(ahead);
    return p < toks_.size() ? toks_[p] : toks_.back();
}

const Token &
Parser::advance()
{
    const Token &t = peek();
    if (!t.is(Tok::Eof))
        ++pos_;
    return t;
}

bool
Parser::match(Tok kind)
{
    if (check(kind)) {
        advance();
        return true;
    }
    return false;
}

const Token &
Parser::expect(Tok kind, const char *context)
{
    if (!check(kind)) {
        fatal("expected " + tokName(kind) + " " + context + ", found " +
                  tokName(peek().kind),
              peek().loc);
    }
    return advance();
}

void
Parser::errorHere(const std::string &message) const
{
    fatal(message + " (found " + tokName(peek().kind) + ")", peek().loc);
}

void
Parser::synchronizeStmt()
{
    while (!check(Tok::Eof)) {
        if (match(Tok::Semicolon))
            return;
        const Tok k = peek().kind;
        if (k == Tok::RBrace || k == Tok::KwIndex || k == Tok::KwReduction ||
            typeFor(k) || domainFor(k) != Domain::None) {
            return;
        }
        advance();
    }
}

void
Parser::synchronizeTopLevel()
{
    while (!check(Tok::Eof)) {
        if (check(Tok::KwReduction))
            return;
        if (check(Tok::Ident) && peek(1).is(Tok::LParen))
            return;
        advance();
    }
}

Program
Parser::parseProgram()
{
    Program prog;
    while (!check(Tok::Eof)) {
        const size_t before = pos_;
        try {
            if (check(Tok::KwReduction)) {
                prog.reductions.push_back(parseReduction());
            } else if (check(Tok::Ident)) {
                prog.components.push_back(parseComponent());
            } else {
                errorHere("expected component or reduction declaration");
            }
        } catch (const UserError &e) {
            if (!diag_)
                throw;
            diag_->error(e.message(), e.loc());
            if (pos_ == before)
                advance();
            synchronizeTopLevel();
        }
    }
    prog.arena = std::move(arena_);
    return prog;
}

ReductionDecl
Parser::parseReduction()
{
    ReductionDecl red;
    red.loc = peek().loc;
    expect(Tok::KwReduction, "at reduction declaration");
    red.name = expect(Tok::Ident, "after 'reduction'").text;
    expect(Tok::LParen, "in reduction declaration");
    red.paramA = expect(Tok::Ident, "as first reduction parameter").text;
    expect(Tok::Comma, "between reduction parameters");
    red.paramB = expect(Tok::Ident, "as second reduction parameter").text;
    expect(Tok::RParen, "after reduction parameters");
    expect(Tok::Assign, "in reduction declaration");
    red.body = parseExpr();
    expect(Tok::Semicolon, "after reduction body");
    return red;
}

ComponentDecl
Parser::parseComponent()
{
    ComponentDecl comp;
    comp.loc = peek().loc;
    comp.name = expect(Tok::Ident, "at component declaration").text;
    expect(Tok::LParen, "after component name");
    if (!check(Tok::RParen)) {
        comp.args.push_back(parseArgDecl());
        while (match(Tok::Comma))
            comp.args.push_back(parseArgDecl());
    }
    expect(Tok::RParen, "after component arguments");
    expect(Tok::LBrace, "at component body");
    while (!check(Tok::RBrace) && !check(Tok::Eof)) {
        if (!diag_) {
            comp.body.push_back(parseStmt());
            continue;
        }
        const size_t before = pos_;
        try {
            comp.body.push_back(parseStmt());
        } catch (const UserError &e) {
            diag_->error(e.message(), e.loc());
            if (pos_ == before)
                advance();
            synchronizeStmt();
        }
    }
    expect(Tok::RBrace, "at end of component body");
    return comp;
}

ArgDecl
Parser::parseArgDecl()
{
    ArgDecl arg;
    arg.loc = peek().loc;
    switch (peek().kind) {
      case Tok::KwInput: arg.mod = Modifier::Input; break;
      case Tok::KwOutput: arg.mod = Modifier::Output; break;
      case Tok::KwState: arg.mod = Modifier::State; break;
      case Tok::KwParam: arg.mod = Modifier::Param; break;
      default:
        errorHere("expected argument modifier "
                  "(input/output/state/param)");
    }
    advance();
    const auto type = typeFor(peek().kind);
    if (!type)
        errorHere("expected argument type");
    arg.type = *type;
    advance();
    arg.name = expect(Tok::Ident, "as argument name").text;
    arg.dims = parseDims();
    return arg;
}

ExprList
Parser::parseDims()
{
    const size_t mark = operands_.size();
    while (match(Tok::LBracket)) {
        operands_.push_back(parseExpr());
        expect(Tok::RBracket, "after dimension");
    }
    return takeOperands(mark);
}

ExprList
Parser::parseArgs()
{
    const size_t mark = operands_.size();
    if (!check(Tok::RParen)) {
        operands_.push_back(parseExpr());
        while (match(Tok::Comma))
            operands_.push_back(parseExpr());
    }
    return takeOperands(mark);
}

ExprList
Parser::takeOperands(size_t mark)
{
    const ExprList list =
        arena_.list(operands_.data() + mark, operands_.size() - mark);
    operands_.resize(mark);
    return list;
}

StmtPtr
Parser::parseStmt()
{
    if (check(Tok::KwIndex))
        return parseIndexDecl();
    if (const auto type = typeFor(peek().kind)) {
        advance();
        return parseVarDecl(*type);
    }
    const Domain dom = domainFor(peek().kind);
    if (dom != Domain::None) {
        advance();
        expect(Tok::Colon, "after domain annotation");
        auto stmt = parseAssignOrCall(dom);
        if (stmt->kind != StmtKind::Call)
            fatal("domain annotations apply only to component "
                  "instantiations",
                  stmt->loc);
        return stmt;
    }
    if (check(Tok::Ident))
        return parseAssignOrCall(Domain::None);
    errorHere("expected statement");
}

StmtPtr
Parser::parseIndexDecl()
{
    Stmt *stmt = arena_.newStmt();
    stmt->kind = StmtKind::IndexDecl;
    stmt->loc = peek().loc;
    expect(Tok::KwIndex, "at index declaration");
    do {
        IndexSpec spec;
        spec.loc = peek().loc;
        spec.name = expect(Tok::Ident, "as index name").text;
        expect(Tok::LBracket, "after index name");
        spec.lo = parseExpr();
        expect(Tok::Colon, "between index bounds");
        spec.hi = parseExpr();
        expect(Tok::RBracket, "after index bounds");
        stmt->indexSpecs.push_back(spec);
    } while (match(Tok::Comma));
    expect(Tok::Semicolon, "after index declaration");
    return stmt;
}

StmtPtr
Parser::parseVarDecl(DType type)
{
    Stmt *stmt = arena_.newStmt();
    stmt->kind = StmtKind::VarDecl;
    stmt->loc = peek().loc;
    stmt->declType = type;
    do {
        LocalDecl decl;
        decl.loc = peek().loc;
        decl.name = expect(Tok::Ident, "as variable name").text;
        decl.dims = parseDims();
        stmt->locals.push_back(std::move(decl));
    } while (match(Tok::Comma));
    expect(Tok::Semicolon, "after variable declaration");
    return stmt;
}

StmtPtr
Parser::parseAssignOrCall(Domain domain)
{
    Stmt *stmt = arena_.newStmt();
    stmt->loc = peek().loc;
    const std::string_view name = expect(Tok::Ident, "at statement").text;
    if (check(Tok::LParen)) {
        stmt->kind = StmtKind::Call;
        stmt->domain = domain;
        stmt->callee = name;
        advance();
        stmt->callArgs = parseArgs();
        expect(Tok::RParen, "after instantiation arguments");
        expect(Tok::Semicolon, "after component instantiation");
        return stmt;
    }
    stmt->kind = StmtKind::Assign;
    stmt->target = name;
    const size_t mark = operands_.size();
    while (match(Tok::LBracket)) {
        operands_.push_back(parseExpr());
        expect(Tok::RBracket, "after subscript");
    }
    stmt->targetIndices = takeOperands(mark);
    expect(Tok::Assign, "in assignment");
    stmt->value = parseExpr();
    expect(Tok::Semicolon, "after assignment");
    return stmt;
}

ExprPtr
Parser::parseStandaloneExpr()
{
    auto e = parseExpr();
    expect(Tok::Eof, "after expression");
    return e;
}

ExprPtr
Parser::parseExpr()
{
    const Nesting level(nesting_, peek().loc);
    return parseTernary();
}

ExprPtr
Parser::parseTernary()
{
    const ExprPtr cond = parseBinary(kOr);
    if (!match(Tok::Question))
        return cond;
    Expr *e = arena_.newExpr();
    e->kind = ExprKind::Ternary;
    e->loc = cond->loc;
    e->lhs = cond;
    e->rhs = parseExpr();
    expect(Tok::Colon, "in conditional expression");
    e->third = parseExpr();
    return measured(e);
}

ExprPtr
Parser::parseBinary(int minPrec)
{
    ExprPtr lhs = parseUnary();
    // The precedence of the operator that built lhs. An operator binding
    // more tightly than that one was left here by a comparison that
    // refused to chain (a < b < c), and so ends the expression, as does
    // a comparison directly after one.
    int built = kAtom;
    while (true) {
        const Infix &in = kInfix[static_cast<size_t>(peek().kind)];
        if (in.prec < minPrec || in.prec > built ||
            (in.prec == kCompare && built == kCompare))
            return lhs;
        const SourceLoc loc = peek().loc;
        advance();
        ExprPtr rhs;
        if (in.prec == kPower) {
            // right-associative: the right operand takes further '^'s
            const Nesting level(nesting_, loc);
            rhs = parseBinary(kPower);
        } else {
            rhs = parseBinary(in.prec + 1);
        }
        lhs = makeBinary(in.op, lhs, rhs, loc);
        built = in.prec;
    }
}

ExprPtr
Parser::measured(Expr *e) const
{
    int below = 0;
    for (const Expr *operand : {e->lhs, e->rhs, e->third, e->body}) {
        if (operand)
            below = std::max(below, operand->height);
    }
    for (const ExprPtr arg : e->args)
        below = std::max(below, arg->height);
    for (const auto &axis : e->axes) {
        if (axis.cond)
            below = std::max(below, axis.cond->height);
    }
    e->height = below + 1;
    if (e->height > kMaxExprDepth)
        tooDeep(e->loc);
    return e;
}

ExprPtr
Parser::makeBinary(const char *op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc)
{
    Expr *e = arena_.newExpr();
    e->kind = ExprKind::Binary;
    e->loc = loc;
    e->op = op;
    e->lhs = lhs;
    e->rhs = rhs;
    return measured(e);
}

ExprPtr
Parser::parseUnary()
{
    if (!check(Tok::Minus) && !check(Tok::Not))
        return parsePrimary();
    Expr *e = arena_.newExpr();
    e->kind = ExprKind::Unary;
    e->loc = peek().loc;
    e->op = check(Tok::Minus) ? "neg" : "!";
    advance();
    const Nesting level(nesting_, e->loc);
    e->lhs = parseUnary();
    return measured(e);
}

ExprPtr
Parser::parsePrimary()
{
    if (check(Tok::IntLit) || check(Tok::FloatLit)) {
        Expr *e = arena_.newExpr();
        e->kind = ExprKind::Number;
        e->loc = peek().loc;
        e->isIntLit = peek().is(Tok::IntLit);
        // from_chars, not stod: stod honors the global locale and lets
        // out-of-range literals (1e999) escape as std::out_of_range
        // instead of a positioned diagnostic.
        const std::string_view text = peek().text;
        const char *begin = text.data();
        const char *end = begin + text.size();
        const auto [ptr, ec] = std::from_chars(begin, end, e->value);
        if (ec == std::errc::result_out_of_range)
            errorHere("number literal out of range: " + std::string(text));
        if (ec != std::errc{} || ptr != end)
            errorHere("malformed number literal: " + std::string(text));
        advance();
        return e;
    }
    if (match(Tok::LParen)) {
        const ExprPtr e = parseExpr();
        expect(Tok::RParen, "after parenthesized expression");
        return e;
    }
    if (check(Tok::Ident))
        return parseIdentExpr();
    errorHere("expected expression");
}

ExprPtr
Parser::parseIdentExpr()
{
    Expr *e = arena_.newExpr();
    e->loc = peek().loc;
    e->name = expect(Tok::Ident, "in expression").text;

    // Bracket groups: either subscripts (A[i][j]) or reduce axes
    // (sum[i][j: j != i]). Disambiguated by a trailing '(' — subscripted
    // references are never applied.
    const size_t mark = groups_.size();
    while (match(Tok::LBracket)) {
        Group g;
        g.loc = peek().loc;
        g.expr = parseExpr();
        if (match(Tok::Colon))
            g.cond = parseExpr();
        expect(Tok::RBracket, "after subscript");
        groups_.push_back(g);
    }
    const size_t groups = groups_.size() - mark;

    if (check(Tok::LParen)) {
        advance();
        if (groups == 0) {
            // Built-in function application: sigmoid(x), pow(a, b), ...
            e->kind = ExprKind::Call;
            e->args = parseArgs();
            expect(Tok::RParen, "after function arguments");
            return measured(e);
        }
        // Group reduction: every bracket group must be a bare index name.
        e->kind = ExprKind::Reduce;
        e->axes.reserve(groups);
        for (size_t i = mark; i < mark + groups; ++i) {
            const Group &g = groups_[i];
            if (g.expr->kind != ExprKind::Ref || !g.expr->args.empty()) {
                fatal("reduction axis must be a bare index variable",
                      g.loc);
            }
            e->axes.push_back({g.expr->name, g.cond, g.loc});
        }
        groups_.resize(mark);
        e->body = parseExpr();
        expect(Tok::RParen, "after reduction body");
        return measured(e);
    }

    // Plain (possibly subscripted) reference.
    e->kind = ExprKind::Ref;
    const size_t operandMark = operands_.size();
    for (size_t i = mark; i < mark + groups; ++i) {
        const Group &g = groups_[i];
        if (g.cond) {
            fatal("conditional subscripts are only valid on reduction "
                  "axes",
                  g.loc);
        }
        operands_.push_back(g.expr);
    }
    groups_.resize(mark);
    e->args = takeOperands(operandMark);
    return measured(e);
}

} // namespace polymath::lang
