#include "pmlang/ast.h"

namespace polymath::lang {

std::string
toString(Modifier m)
{
    switch (m) {
      case Modifier::Input: return "input";
      case Modifier::Output: return "output";
      case Modifier::State: return "state";
      case Modifier::Param: return "param";
    }
    panic("unhandled Modifier");
}

std::string
toString(Domain d)
{
    switch (d) {
      case Domain::None: return "";
      case Domain::RBT: return "RBT";
      case Domain::GA: return "GA";
      case Domain::DSP: return "DSP";
      case Domain::DA: return "DA";
      case Domain::DL: return "DL";
    }
    panic("unhandled Domain");
}

const ComponentDecl *
Program::findComponent(const std::string &name) const
{
    for (const auto &c : components) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const ReductionDecl *
Program::findReduction(const std::string &name) const
{
    for (const auto &r : reductions) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

Arena::Arena(size_t tokens)
{
    // Table III/IV programs build 0.26-0.43 Exprs, 0.03-0.05 Stmts and
    // 0.12-0.22 list operands per token. The first chunks hold about
    // that many; a parse that needs more takes further, doubling chunks.
    exprs_.reserve(tokens * 2 / 5 + 16);
    stmts_.reserve(tokens / 16 + 8);
    lists_.reserve(tokens / 4 + 16);
}

std::string
exprToString(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::Number:
        if (e.isIntLit)
            return std::to_string(static_cast<long long>(e.value));
        return std::to_string(e.value);
      case ExprKind::Ref: {
        std::string out = e.name;
        for (const auto &ix : e.args)
            out += "[" + exprToString(*ix) + "]";
        return out;
      }
      case ExprKind::Unary:
        return (e.op == "neg" ? "-" : e.op) + exprToString(*e.lhs);
      case ExprKind::Binary:
        return "(" + exprToString(*e.lhs) + " " + e.op + " " +
               exprToString(*e.rhs) + ")";
      case ExprKind::Ternary:
        return "(" + exprToString(*e.lhs) + " ? " + exprToString(*e.rhs) +
               " : " + exprToString(*e.third) + ")";
      case ExprKind::Call: {
        std::string out = e.name + "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                out += ", ";
            out += exprToString(*e.args[i]);
        }
        return out + ")";
      }
      case ExprKind::Reduce: {
        std::string out = e.name;
        for (const auto &ax : e.axes) {
            out += "[" + ax.index;
            if (ax.cond)
                out += ": " + exprToString(*ax.cond);
            out += "]";
        }
        return out + "(" + exprToString(*e.body) + ")";
      }
    }
    panic("unhandled ExprKind");
}

} // namespace polymath::lang
