#include "pmlang/format.h"

namespace polymath::lang {

namespace {

std::string
dimsText(const ExprList &dims)
{
    std::string out;
    for (const auto &d : dims)
        out += "[" + exprToString(*d) + "]";
    return out;
}

} // namespace

std::string
formatStmt(const Stmt &stmt, int indent)
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    switch (stmt.kind) {
      case StmtKind::IndexDecl: {
        std::string out = pad + "index ";
        for (size_t i = 0; i < stmt.indexSpecs.size(); ++i) {
            const auto &spec = stmt.indexSpecs[i];
            if (i)
                out += ", ";
            out += spec.name + "[" + exprToString(*spec.lo) + ":" +
                   exprToString(*spec.hi) + "]";
        }
        return out + ";\n";
      }
      case StmtKind::VarDecl: {
        std::string out = pad + toString(stmt.declType) + " ";
        for (size_t i = 0; i < stmt.locals.size(); ++i) {
            if (i)
                out += ", ";
            out += stmt.locals[i].name + dimsText(stmt.locals[i].dims);
        }
        return out + ";\n";
      }
      case StmtKind::Assign: {
        std::string out = pad + stmt.target;
        for (const auto &ix : stmt.targetIndices)
            out += "[" + exprToString(*ix) + "]";
        return out + " = " + exprToString(*stmt.value) + ";\n";
      }
      case StmtKind::Call: {
        std::string out = pad;
        if (stmt.domain != Domain::None)
            out += toString(stmt.domain) + ": ";
        out += stmt.callee + "(";
        for (size_t i = 0; i < stmt.callArgs.size(); ++i) {
            if (i)
                out += ", ";
            out += exprToString(*stmt.callArgs[i]);
        }
        return out + ");\n";
      }
    }
    panic("unhandled StmtKind");
}

std::string
formatComponent(const ComponentDecl &component)
{
    std::string out = component.name + "(";
    for (size_t i = 0; i < component.args.size(); ++i) {
        const auto &arg = component.args[i];
        if (i)
            out += ", ";
        out += toString(arg.mod) + " " + toString(arg.type) + " " +
               arg.name + dimsText(arg.dims);
    }
    out += ") {\n";
    for (const auto &stmt : component.body)
        out += formatStmt(*stmt);
    return out + "}\n";
}

std::string
formatProgram(const Program &program)
{
    std::string out;
    for (const auto &red : program.reductions) {
        out += "reduction " + red.name + "(" + red.paramA + ", " +
               red.paramB + ") = " + exprToString(*red.body) + ";\n";
    }
    if (!program.reductions.empty())
        out += "\n";
    for (size_t i = 0; i < program.components.size(); ++i) {
        if (i)
            out += "\n";
        out += formatComponent(program.components[i]);
    }
    return out;
}

} // namespace polymath::lang
