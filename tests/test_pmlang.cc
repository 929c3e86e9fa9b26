/**
 * @file
 * Frontend tests: lexer tokens, parser productions and precedence,
 * semantic rules for type modifiers / index binding / calls / reductions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "pmlang/builtins.h"
#include "pmlang/lexer.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"

namespace polymath::lang {
namespace {

std::vector<Tok>
kindsOf(const std::string &src)
{
    Lexer lexer(src);
    std::vector<Tok> kinds;
    for (const auto &tok : lexer.lexAll())
        kinds.push_back(tok.kind);
    return kinds;
}

TEST(Lexer, BasicTokens)
{
    EXPECT_EQ(kindsOf("a = b + 2;"),
              (std::vector<Tok>{Tok::Ident, Tok::Assign, Tok::Ident,
                                Tok::Plus, Tok::IntLit, Tok::Semicolon,
                                Tok::Eof}));
}

TEST(Lexer, KeywordsAndDomains)
{
    EXPECT_EQ(kindsOf("input state RBT DL index reduction"),
              (std::vector<Tok>{Tok::KwInput, Tok::KwState, Tok::KwRBT,
                                Tok::KwDL, Tok::KwIndex, Tok::KwReduction,
                                Tok::Eof}));
}

TEST(Lexer, KeywordPrefixesAreIdentifiers)
{
    EXPECT_EQ(kindsOf("inputs DAx floaty indexes D reductio complexity"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::Ident,
                                Tok::Ident, Tok::Ident, Tok::Ident,
                                Tok::Ident, Tok::Eof}));
    EXPECT_EQ(kindsOf("bin int str float complex param output GA DSP"),
              (std::vector<Tok>{Tok::KwBin, Tok::KwInt, Tok::KwStr,
                                Tok::KwFloat, Tok::KwComplex, Tok::KwParam,
                                Tok::KwOutput, Tok::KwGA, Tok::KwDSP,
                                Tok::Eof}));
}

TEST(Lexer, TokensViewTheSource)
{
    const std::string src = "alpha = \"text\" + 2.5;";
    Lexer lexer(src);
    const auto toks = lexer.lexAll();
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_EQ(toks[0].text, "alpha");
    EXPECT_EQ(toks[0].text.data(), src.data());
    EXPECT_EQ(toks[2].text, "text"); // a string literal without quotes
    EXPECT_EQ(toks[2].text.data(), src.data() + 9);
    EXPECT_EQ(toks[4].text, "2.5");
    EXPECT_EQ(toks[6].kind, Tok::Eof);
    EXPECT_TRUE(toks[6].text.empty());
}

TEST(Lexer, TwoCharOperators)
{
    EXPECT_EQ(kindsOf("<= >= == != && ||"),
              (std::vector<Tok>{Tok::Le, Tok::Ge, Tok::EqEq, Tok::NotEq,
                                Tok::AndAnd, Tok::OrOr, Tok::Eof}));
}

TEST(Lexer, NumbersIntVsFloat)
{
    Lexer lexer("3 3.5 1e3 2.5e-2 7e");
    const auto toks = lexer.lexAll();
    EXPECT_EQ(toks[0].kind, Tok::IntLit);
    EXPECT_EQ(toks[1].kind, Tok::FloatLit);
    EXPECT_EQ(toks[2].kind, Tok::FloatLit);
    EXPECT_EQ(toks[3].kind, Tok::FloatLit);
    // "7e" is an int followed by an identifier, not a malformed float.
    EXPECT_EQ(toks[4].kind, Tok::IntLit);
    EXPECT_EQ(toks[5].kind, Tok::Ident);
}

TEST(Lexer, CommentsAreSkipped)
{
    EXPECT_EQ(kindsOf("a // line\n /* block\n more */ b"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::Eof}));
}

TEST(Lexer, TracksLineAndColumn)
{
    Lexer lexer("a\n  b");
    const auto toks = lexer.lexAll();
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.column, 3);
}

TEST(Lexer, RejectsStrayCharacters)
{
    EXPECT_THROW(kindsOf("a $ b"), UserError);
    EXPECT_THROW(kindsOf("a & b"), UserError);
    EXPECT_THROW(kindsOf("/* unterminated"), UserError);
    EXPECT_THROW(kindsOf("\"unterminated"), UserError);
}

/** A standalone expression with the parser whose arena holds it. */
struct ParsedExpr
{
    explicit ParsedExpr(const std::string &text)
        : parser(Lexer(text).lexAll()), root(parser.parseStandaloneExpr())
    {
    }
    const Expr &operator*() const { return *root; }
    const Expr *operator->() const { return root; }

    Parser parser;
    ExprPtr root;
};

ParsedExpr
parseExprText(const std::string &text)
{
    return ParsedExpr(text);
}

TEST(Parser, PrecedenceMulOverAdd)
{
    EXPECT_EQ(exprToString(*parseExprText("a + b*c")), "(a + (b * c))");
    EXPECT_EQ(exprToString(*parseExprText("(a + b)*c")), "((a + b) * c)");
}

TEST(Parser, ComparisonBindsLooserThanArithmetic)
{
    EXPECT_EQ(exprToString(*parseExprText("a + 1 < b*2")),
              "((a + 1) < (b * 2))");
}

TEST(Parser, TernaryAndLogical)
{
    EXPECT_EQ(exprToString(*parseExprText("a && b || c ? x : y")),
              "(((a && b) || c) ? x : y)");
}

TEST(Parser, PowerIsRightAssociative)
{
    EXPECT_EQ(exprToString(*parseExprText("a ^ b ^ c")), "(a ^ (b ^ c))");
}

TEST(Parser, UnaryMinus)
{
    EXPECT_EQ(exprToString(*parseExprText("-a * b")), "(-a * b)");
}

TEST(Parser, SubscriptedReference)
{
    const auto e = parseExprText("A[i][j+1]");
    EXPECT_EQ(e->kind, ExprKind::Ref);
    ASSERT_EQ(e->args.size(), 2u);
    EXPECT_EQ(exprToString(*e), "A[i][(j + 1)]");
}

TEST(Parser, ReduceWithGuard)
{
    const auto e = parseExprText("sum[i][j: j != i](A[i][j])");
    ASSERT_EQ(e->kind, ExprKind::Reduce);
    EXPECT_EQ(e->name, "sum");
    ASSERT_EQ(e->axes.size(), 2u);
    EXPECT_EQ(e->axes[0].index, "i");
    EXPECT_EQ(e->axes[1].index, "j");
    EXPECT_EQ(e->axes[0].cond, nullptr);
    ASSERT_NE(e->axes[1].cond, nullptr);
}

TEST(Parser, BuiltinCall)
{
    const auto e = parseExprText("sigmoid(x + 1)");
    EXPECT_EQ(e->kind, ExprKind::Call);
    EXPECT_EQ(e->name, "sigmoid");
}

TEST(Parser, ReduceAxisMustBeBareIdent)
{
    EXPECT_THROW(parseExprText("sum[i+1](x)"), UserError);
}

TEST(Parser, ConditionalSubscriptOnlyOnAxes)
{
    EXPECT_THROW(parseExprText("A[i: i > 0]"), UserError);
}

TEST(Parser, ComponentAndProgram)
{
    const auto prog = parse(R"(
f(input float x[n], output float y[n]) {
    index i[0:n-1];
    y[i] = x[i]*2;
}
main(input float a[4], output float b[4]) {
    DSP: f(a, b);
}
)");
    ASSERT_EQ(prog.components.size(), 2u);
    EXPECT_EQ(prog.components[0].name, "f");
    ASSERT_EQ(prog.components[0].args.size(), 2u);
    EXPECT_EQ(prog.components[0].args[0].mod, Modifier::Input);
    const auto &call = *prog.components[1].body[0];
    EXPECT_EQ(call.kind, StmtKind::Call);
    EXPECT_EQ(call.domain, Domain::DSP);
    EXPECT_EQ(call.callee, "f");
}

TEST(Parser, ReductionDeclaration)
{
    const auto prog = parse("reduction mymin(a, b) = a < b ? a : b;\n"
                            "main(input float x[2], output float y) {"
                            " index i[0:1]; y = mymin[i](x[i]); }");
    ASSERT_EQ(prog.reductions.size(), 1u);
    EXPECT_EQ(prog.reductions[0].name, "mymin");
    EXPECT_EQ(prog.reductions[0].paramA, "a");
}

TEST(Parser, DomainAnnotationRequiresCall)
{
    EXPECT_THROW(parse("main(output float y) { DSP: y = 1; }"), UserError);
}

TEST(Parser, ErrorsCarryLocation)
{
    try {
        parse("main(input float x[2] { }");
        FAIL();
    } catch (const UserError &e) {
        EXPECT_TRUE(e.loc().valid());
    }
}

TEST(Parser, OverflowingLiteralIsAPositionedUserError)
{
    // 1e999 exceeds the double range; it must surface as a diagnostic
    // with a line:column, not escape as a raw std::out_of_range.
    const std::string src =
        "main(input float x, output float y) {\n"
        "  y = x * 1e999;\n"
        "}\n";
    try {
        parse(src);
        FAIL() << "expected a UserError for 1e999";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
        EXPECT_TRUE(e.loc().valid());
        EXPECT_EQ(e.loc().line, 2);
    }
}

TEST(Parser, OverflowingLiteralRecoversIntoDiagnostics)
{
    // With a diagnostic engine attached, the overflow is collected like
    // any other syntax error and the rest of the program still parses.
    const std::string src =
        "main(input float x, output float y) {\n"
        "  float a;\n"
        "  a = 1e999;\n"
        "  y = x;\n"
        "}\n";
    DiagnosticEngine diag;
    const auto prog = parseWithRecovery(src, diag);
    EXPECT_EQ(diag.errorCount(), 1u) << diag.str();
    ASSERT_FALSE(diag.diagnostics().empty());
    EXPECT_TRUE(diag.diagnostics().front().loc.valid());
    EXPECT_EQ(diag.diagnostics().front().loc.line, 3);
    ASSERT_EQ(prog.components.size(), 1u);
}

/** `b = <expr>;` over a scalar input: the expression starts at 2:9. */
std::string
scalarProgram(const std::string &expr)
{
    return "main(input float a, output float b) {\n    b = " + expr +
           ";\n}\n";
}

/** The UserError that parse() throws on @p source. */
UserError
parseError(const std::string &source)
{
    try {
        parse(source);
    } catch (const UserError &e) {
        return e;
    }
    ADD_FAILURE() << "expected a UserError";
    return UserError("none");
}

std::string
chain(const std::string &op, int terms)
{
    std::string expr = "a";
    for (int i = 1; i < terms; ++i)
        expr += " " + op + " a";
    return expr;
}

TEST(Parser, ExpressionDepthIsBounded)
{
    const std::string parens = std::string(200000, '(') + "a" +
                               std::string(200000, ')');
    // The two inputs that used to overflow the stack: a 12,000-term sum
    // (a left-leaning tree the parser builds without recursing) and
    // 200,000 nested parentheses. The sum fails at its 256th '+' (the
    // operand before it is 256 levels tall), the parentheses at the 257th
    // level of nesting (the statement's expression is the first).
    const std::pair<std::string, int> cases[] = {
        {chain("+", 12000), 11 + 4 * (kMaxExprDepth - 1)},
        {parens, 9 + kMaxExprDepth},
        {std::string(200000, '-') + "a", 8 + kMaxExprDepth},
        {chain("^", 12000), 11 + 4 * (kMaxExprDepth - 1)},
    };
    for (const auto &[expr, column] : cases) {
        const UserError e = parseError(scalarProgram(expr));
        EXPECT_NE(std::string(e.what()).find("nested deeper than 256"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.loc().line, 2);
        EXPECT_EQ(e.loc().column, column) << expr.substr(0, 20);

        // With error recovery: one positioned diagnostic, and the parser
        // resynchronizes to report later errors too.
        DiagnosticEngine diag;
        parseWithRecovery(scalarProgram(expr) + "oops", diag);
        ASSERT_EQ(diag.errorCount(), 2u) << diag.str();
        EXPECT_EQ(diag.diagnostics().front().loc.line, 2);
        EXPECT_EQ(diag.diagnostics().front().loc.column, column);
    }
}

TEST(Parser, ExpressionsAtTheDepthBoundParse)
{
    const int max = kMaxExprDepth;
    for (const std::string &expr :
         {chain("+", max), chain("*", max / 2) + " + " + chain("-", max / 2),
          std::string(max - 1, '(') + "a" + std::string(max - 1, ')'),
          std::string(max - 1, '-') + "a", chain("^", max)}) {
        const Program prog = parse(scalarProgram(expr));
        ASSERT_EQ(prog.components.size(), 1u);
        EXPECT_LE(prog.components[0].body[0]->value->height, max);
    }
    // One level more is one too many.
    EXPECT_THROW(parse(scalarProgram(chain("+", max + 1))), UserError);
    EXPECT_THROW(parse(scalarProgram(std::string(max, '(') + "a" +
                                     std::string(max, ')'))),
                 UserError);
}

TEST(Parser, ProgramsOwnTheirNodesAcrossMoves)
{
    // The nodes live in the Program's arena: moving the Program keeps
    // every node where it was, and the tree outlives the source text.
    std::optional<Program> moved;
    const Expr *value = nullptr;
    {
        std::string src = "main(input float a[4], output float y) {\n"
                          "    index i[0:3];\n"
                          "    y = sum[i](a[i] * 2) + 1;\n}\n";
        Program prog = parse(src);
        value = prog.components[0].body[1]->value;
        moved.emplace(std::move(prog));
        src.assign(src.size(), '#');
    }
    EXPECT_EQ(moved->components[0].body[1]->value, value);
    EXPECT_EQ(exprToString(*value), "(sum[i]((a[i] * 2)) + 1)");
    EXPECT_EQ(moved->components[0].args[0].name, "a");
    EXPECT_EQ(exprToString(*moved->components[0].args[0].dims[0]), "4");
}

TEST(Parser, ProgramsLargerThanOneChunkParse)
{
    // 3,000 statements overflow every arena kind's first chunk.
    std::string src = "main(input float a, output float y) {\n";
    for (int i = 0; i < 3000; ++i)
        src += "    y = a * " + std::to_string(i) + " + (a - 1) * a;\n";
    src += "}\n";
    const Program prog = parse(src);
    ASSERT_EQ(prog.components[0].body.size(), 3000u);
    EXPECT_EQ(exprToString(*prog.components[0].body[2999]->value),
              "((a * 2999) + ((a - 1) * a))");
}

TEST(Parser, ExtremeButFiniteLiteralsParseExactly)
{
    const auto e = parseExprText("1e308");
    ASSERT_EQ(e->kind, ExprKind::Number);
    EXPECT_EQ(e->value, 1e308);
    EXPECT_EQ(parseExprText("5e-324")->value, 5e-324);
    EXPECT_EQ(parseExprText("0.1")->value, 0.1);
}

// --- semantic analysis ----------------------------------------------------

void
expectSemaError(const std::string &src, const std::string &needle)
{
    try {
        analyze(parse(src));
        FAIL() << "expected sema error containing '" << needle << "'";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(Sema, AcceptsFig4StyleProgram)
{
    EXPECT_NO_THROW(analyze(parse(R"(
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
main(input float A[2][3], input float x[3], output float y[2]) {
    DA: mvmul(A, x, y);
}
)")));
}

TEST(Sema, InputIsReadOnly)
{
    expectSemaError("main(input float x[2], output float y[2]) {"
                    " index i[0:1]; x[i] = 1; y[i] = 2; }",
                    "not writable");
}

TEST(Sema, ParamIsReadOnly)
{
    expectSemaError("main(param float p, output float y) { p = 1; y = 2; }",
                    "not writable");
}

TEST(Sema, OutputUnreadableBeforeAssignment)
{
    expectSemaError("main(output float y[2], output float z[2]) {"
                    " index i[0:1]; z[i] = y[i]; y[i] = 1; }",
                    "not readable");
}

TEST(Sema, OutputReadableAfterAssignment)
{
    EXPECT_NO_THROW(analyze(parse(
        "main(output float y[2]) { index i[0:1];"
        " y[i] = 1; y[i] = y[i] + 1; }")));
}

TEST(Sema, OutputMustBeAssigned)
{
    expectSemaError("main(input float x, output float y) { float t; t = x; }",
                    "never assigned");
}

TEST(Sema, UnboundIndexVariableRejected)
{
    expectSemaError("main(input float x[4], output float y) {"
                    " index i[0:3]; y = x[i]; }",
                    "not bound");
}

TEST(Sema, RankMismatchRejected)
{
    expectSemaError("main(input float x[2][2], output float y[2]) {"
                    " index i[0:1]; y[i] = x[i]; }",
                    "rank");
}

TEST(Sema, LocalReadBeforeWriteRejected)
{
    expectSemaError("main(output float y) { float t; y = t; }",
                    "not readable");
}

TEST(Sema, CallArityChecked)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(input float a, output float b) { f(a); b = a; }",
        "argument");
}

TEST(Sema, ExpressionArgOnlyForParams)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(output float b) { f(1 + 2, b); }",
        "param");
}

TEST(Sema, OutputActualMustBeWritable)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(input float a, input float c, output float b) {"
        " f(a, c); b = a; }",
        "must be writable");
}

TEST(Sema, RecursionRejected)
{
    expectSemaError(
        "f(input float x, output float y) { float t; g(x, t); y = t; }"
        "g(input float x, output float y) { float t; f(x, t); y = t; }"
        "main(input float a, output float b) { f(a, b); }",
        "recursive");
}

/** main -> f1 -> ... -> f<n-1>, each instantiating the next; with
 *  @p deepestFirst the declarations come in reverse. Component i's call
 *  sits on line 3i + 2 when declared in order. */
std::string
componentChain(int n, bool deepestFirst = false)
{
    std::vector<std::string> comps;
    for (int i = 0; i < n; ++i) {
        const std::string body = i + 1 < n
                                     ? "f" + std::to_string(i + 1) + "(x, y);"
                                     : "y = x + 1;";
        comps.push_back((i == 0 ? std::string("main")
                                : "f" + std::to_string(i)) +
                        "(input float x, output float y) {\n    " + body +
                        "\n}\n");
    }
    if (deepestFirst)
        std::reverse(comps.begin(), comps.end());
    std::string out;
    for (const auto &c : comps)
        out += c;
    return out;
}

TEST(Sema, ComponentChainDepthIsBounded)
{
    const int max = kMaxComponentDepth;
    // At the bound: accepted, whatever the declaration order.
    EXPECT_NO_THROW(analyze(parse(componentChain(max))));
    EXPECT_NO_THROW(analyze(parse(componentChain(max, true))));
    // Past it, the 10,000-deep chain that used to overflow the stack is
    // rejected at the instantiation one level too deep: the call in
    // f255, component 256 of the chain.
    for (const int n : {max + 1, 10000}) {
        try {
            analyze(parse(componentChain(n)));
            ADD_FAILURE() << n << " components: expected a UserError";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "component instantiation nested deeper than 256 "
                          "levels"),
                      std::string::npos)
                << e.what();
            EXPECT_EQ(e.loc().line, 3 * (max - 1) + 2);
            EXPECT_EQ(e.loc().column, 5);
        }
    }
    // Declared deepest first, the walk meets finished components and
    // rejects the first whose chain is one too tall.
    expectSemaError(componentChain(10000, true), "nested deeper than 256");
    // With its second half declared first, a chain is walked in two
    // parts, and the part on the path still counts toward the depth.
    auto tailFirst = [](const std::string &chain) {
        const size_t tail =
            chain.find("f" + std::to_string(kMaxComponentDepth / 2) + "(input");
        return chain.substr(tail) + chain.substr(0, tail);
    };
    EXPECT_NO_THROW(analyze(parse(tailFirst(componentChain(max)))));
    expectSemaError(tailFirst(componentChain(max + 1)),
                    "nested deeper than 256");
}

TEST(Sema, RecursionAtTheDepthBoundIsARecursionError)
{
    // The last of 256 components instantiates main again: the path is
    // full, but the cycle is what gets reported.
    std::string src = componentChain(kMaxComponentDepth);
    src.replace(src.find("y = x + 1;"), 10, "main(x, y);");
    expectSemaError(src, "recursive instantiation of component 'main'");
}

TEST(Sema, UnknownReductionRejected)
{
    expectSemaError("main(input float x[3], output float y) {"
                    " index i[0:2]; y = median[i](x[i]); }",
                    "unknown reduction");
}

TEST(Sema, CustomReductionBodyRestricted)
{
    expectSemaError("reduction bad(a, b) = a + c;"
                    "main(input float x[2], output float y) {"
                    " index i[0:1]; y = bad[i](x[i]); }",
                    "reduction body");
}

TEST(Sema, BuiltinArityChecked)
{
    expectSemaError("main(input float x, output float y) {"
                    " y = sigmoid(x, x); }",
                    "takes 1");
}

TEST(Sema, MissingEntryRejected)
{
    expectSemaError("f(input float x, output float y) { y = x; }",
                    "entry");
}

TEST(Sema, DuplicateComponentRejected)
{
    expectSemaError("main(output float y) { y = 1; }"
                    "main(output float z) { z = 2; }",
                    "duplicate");
}

TEST(Sema, IndexArithmeticRestrictedToIntParams)
{
    expectSemaError("main(input float v, input float x[4],"
                    " output float y[4]) {"
                    " index i[0:3]; y[i] = x[i*v]; }",
                    "index arithmetic");
}

TEST(Builtins, RegistryBasics)
{
    EXPECT_TRUE(isBuiltinFunction("sigmoid"));
    EXPECT_TRUE(isBuiltinFunction("pow"));
    EXPECT_FALSE(isBuiltinFunction("sum"));
    EXPECT_TRUE(isBuiltinReduction("sum"));
    EXPECT_EQ(builtinArity("pow"), 2);
    EXPECT_EQ(builtinArity("erf"), 1);
}

TEST(Builtins, EvaluationMatchesLibm)
{
    EXPECT_DOUBLE_EQ(evalBuiltin1("sigmoid", 0.0), 0.5);
    EXPECT_DOUBLE_EQ(evalBuiltin1("relu", -3.0), 0.0);
    EXPECT_DOUBLE_EQ(evalBuiltin1("gauss", 0.0), 1.0);
    EXPECT_DOUBLE_EQ(evalBuiltin2("max", 2.0, 5.0), 5.0);
    EXPECT_DOUBLE_EQ(reductionIdentity("prod"), 1.0);
    EXPECT_DOUBLE_EQ(applyBuiltinReduction("min", 4.0, 2.0), 2.0);
}

} // namespace
} // namespace polymath::lang
