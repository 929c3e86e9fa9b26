#include "pmlang/sema.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_map.h"
#include "core/strings.h"
#include "obs/trace.h"
#include "pmlang/builtins.h"

namespace polymath::lang {

namespace {

/** Components by name, built once per analysis, so resolving a callee
 *  is no scan of Program::components. Keys view the AST. */
using ComponentIndex = std::map<std::string_view, const ComponentDecl *>;

/** The component named @p name in @p index; nullptr when absent. */
const ComponentDecl *
findIn(const ComponentIndex &index, std::string_view name)
{
    const auto it = index.find(name);
    return it == index.end() ? nullptr : it->second;
}

/** What a name refers to inside a component body. */
struct Symbol
{
    enum class Kind { Arg, Local, Index, DimSym };

    Kind kind = Kind::Local;
    Modifier mod = Modifier::Input; // Args only
    int rank = 0;                   // tensor rank; index/dim syms are 0
    SourceLoc loc;
};

/** Per-component analysis state. */
class ComponentChecker
{
  public:
    ComponentChecker(const Program &prog, const ComponentIndex &index,
                     const ComponentDecl &comp)
        : prog_(prog), index_(index), comp_(comp)
    {
    }

    void check();

  private:
    void declareArgs();
    void checkStmt(const Stmt &stmt);
    void checkAssign(const Stmt &stmt);
    void checkCall(const Stmt &stmt);

    /** Validates an expression. @p bound is the set of index variables
     *  usable at this point. */
    void checkExpr(const Expr &e, const std::set<std::string_view> &bound);

    /** Validates an index-arithmetic expression (subscripts, bounds, axis
     *  guards): only index variables in @p bound, int params, dim symbols,
     *  and literals may appear. @p bound == nullptr denotes an assignment
     *  LHS, where index variables bind themselves. */
    void checkIndexExpr(const Expr &e, const std::set<std::string_view> *bound);

    const Symbol &lookup(const std::string &name, SourceLoc loc) const;
    bool isReadable(const Symbol &sym, const std::string &name) const;
    bool isWritable(const Symbol &sym) const;

    /** Collects index variables syntactically present in @p e. */
    void collectIndexVars(const Expr &e, std::set<std::string_view> *out) const;

    const Program &prog_;
    const ComponentIndex &index_;
    const ComponentDecl &comp_;
    FlatStringMap<Symbol> scope_; // keys view into the AST
    std::set<std::string_view> assigned_; // outputs/locals written so far
};

void
ComponentChecker::declareArgs()
{
    for (const auto &arg : comp_.args) {
        if (scope_.count(arg.name)) {
            fatal("duplicate argument '" + arg.name + "' in component '" +
                      comp_.name + "'",
                  arg.loc);
        }
        Symbol sym;
        sym.kind = Symbol::Kind::Arg;
        sym.mod = arg.mod;
        sym.rank = static_cast<int>(arg.dims.size());
        sym.loc = arg.loc;
        scope_[arg.name] = sym;
    }
    // Symbolic dimensions (e.g. m, n in mvmul) become read-only scalars.
    for (const auto &arg : comp_.args) {
        for (const auto &dim : arg.dims) {
            std::set<std::string_view> names;
            collectIndexVars(*dim, &names);
            for (const auto &n : names) {
                if (scope_.count(n))
                    continue;
                Symbol sym;
                sym.kind = Symbol::Kind::DimSym;
                sym.loc = dim->loc;
                scope_[n] = sym;
            }
        }
    }
}

void
ComponentChecker::check()
{
    declareArgs();
    for (const auto &stmt : comp_.body)
        checkStmt(*stmt);
    for (const auto &arg : comp_.args) {
        if (arg.mod == Modifier::Output && !assigned_.count(arg.name)) {
            fatal("output '" + arg.name + "' of component '" + comp_.name +
                      "' is never assigned",
                  arg.loc);
        }
    }
}

void
ComponentChecker::checkStmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case StmtKind::IndexDecl:
        for (const auto &spec : stmt.indexSpecs) {
            if (scope_.count(spec.name))
                fatal("redeclaration of '" + spec.name + "'", spec.loc);
            const std::set<std::string_view> none;
            checkIndexExpr(*spec.lo, &none);
            checkIndexExpr(*spec.hi, &none);
            Symbol sym;
            sym.kind = Symbol::Kind::Index;
            sym.loc = spec.loc;
            scope_[spec.name] = sym;
        }
        return;
      case StmtKind::VarDecl:
        for (const auto &decl : stmt.locals) {
            if (scope_.count(decl.name))
                fatal("redeclaration of '" + decl.name + "'", decl.loc);
            const std::set<std::string_view> none;
            for (const auto &dim : decl.dims)
                checkIndexExpr(*dim, &none);
            Symbol sym;
            sym.kind = Symbol::Kind::Local;
            sym.rank = static_cast<int>(decl.dims.size());
            sym.loc = decl.loc;
            scope_[decl.name] = sym;
        }
        return;
      case StmtKind::Assign:
        checkAssign(stmt);
        return;
      case StmtKind::Call:
        checkCall(stmt);
        return;
    }
    panic("unhandled StmtKind");
}

void
ComponentChecker::checkAssign(const Stmt &stmt)
{
    const Symbol &target = lookup(stmt.target, stmt.loc);
    if (!isWritable(target)) {
        fatal("'" + stmt.target + "' is not writable (" +
                  (target.kind == Symbol::Kind::Arg
                       ? toString(target.mod) + " argument"
                       : "index or dimension symbol") +
                  ")",
              stmt.loc);
    }
    if (!stmt.targetIndices.empty() &&
        static_cast<int>(stmt.targetIndices.size()) != target.rank) {
        fatal("'" + stmt.target + "' has rank " +
                  std::to_string(target.rank) + " but is subscripted " +
                  std::to_string(stmt.targetIndices.size()) + " time(s)",
              stmt.loc);
    }
    if (stmt.targetIndices.empty() && target.rank != 0) {
        fatal("whole-tensor assignment to '" + stmt.target +
                  "' requires explicit subscripts",
              stmt.loc);
    }

    std::set<std::string_view> bound;
    for (const auto &ix : stmt.targetIndices) {
        checkIndexExpr(*ix, nullptr);
        collectIndexVars(*ix, &bound);
    }
    // Keep only actual index variables.
    std::set<std::string_view> bound_indices;
    for (const auto &n : bound) {
        auto it = scope_.find(n);
        if (it != scope_.end() && it->second.kind == Symbol::Kind::Index)
            bound_indices.insert(n);
    }
    checkExpr(*stmt.value, bound_indices);
    assigned_.insert(stmt.target);
}

void
ComponentChecker::checkCall(const Stmt &stmt)
{
    const ComponentDecl *callee = findIn(index_, stmt.callee);
    if (!callee) {
        fatal("unknown component '" + stmt.callee + "'", stmt.loc);
    }
    if (callee->args.size() != stmt.callArgs.size()) {
        fatal("component '" + stmt.callee + "' takes " +
                  std::to_string(callee->args.size()) + " argument(s), " +
                  std::to_string(stmt.callArgs.size()) + " given",
              stmt.loc);
    }
    for (size_t i = 0; i < callee->args.size(); ++i) {
        const ArgDecl &formal = callee->args[i];
        const Expr &actual = *stmt.callArgs[i];
        if (actual.kind == ExprKind::Ref && actual.args.empty()) {
            const Symbol &sym = lookup(actual.name, actual.loc);
            if (sym.kind == Symbol::Kind::Index) {
                fatal("index variable '" + actual.name +
                          "' cannot be an instantiation argument",
                      actual.loc);
            }
            const bool needs_write = formal.mod == Modifier::Output ||
                                     formal.mod == Modifier::State;
            if (needs_write && !isWritable(sym)) {
                fatal("argument '" + actual.name + "' bound to " +
                          toString(formal.mod) + " '" + formal.name +
                          "' must be writable",
                      actual.loc);
            }
            if (!needs_write && !isReadable(sym, actual.name)) {
                fatal("argument '" + actual.name +
                          "' is not readable here",
                      actual.loc);
            }
            if (needs_write)
                assigned_.insert(actual.name);
        } else {
            // Non-reference actuals are constant expressions and may only
            // bind to param formals (e.g. the literal horizon in Fig. 4).
            if (formal.mod != Modifier::Param) {
                fatal("expression argument may only bind to a param "
                      "formal",
                      actual.loc);
            }
            const std::set<std::string_view> none;
            checkIndexExpr(actual, &none);
        }
    }
}

void
ComponentChecker::checkExpr(const Expr &e, const std::set<std::string_view> &bound)
{
    switch (e.kind) {
      case ExprKind::Number:
        return;
      case ExprKind::Ref: {
        const Symbol &sym = lookup(e.name, e.loc);
        if (sym.kind == Symbol::Kind::Index) {
            if (!bound.count(e.name)) {
                fatal("index variable '" + e.name +
                          "' is not bound in this statement",
                      e.loc);
            }
            if (!e.args.empty())
                fatal("index variable '" + e.name +
                          "' cannot be subscripted",
                      e.loc);
            return;
        }
        if (!isReadable(sym, e.name))
            fatal("'" + e.name + "' is not readable here", e.loc);
        if (!e.args.empty() &&
            static_cast<int>(e.args.size()) != sym.rank) {
            fatal("'" + e.name + "' has rank " + std::to_string(sym.rank) +
                      " but is subscripted " + std::to_string(e.args.size()) +
                      " time(s)",
                  e.loc);
        }
        if (e.args.empty() && sym.rank != 0) {
            fatal("tensor '" + e.name +
                      "' must be fully subscripted in an expression",
                  e.loc);
        }
        for (const auto &ix : e.args)
            checkIndexExpr(*ix, &bound);
        return;
      }
      case ExprKind::Unary:
        checkExpr(*e.lhs, bound);
        return;
      case ExprKind::Binary:
        checkExpr(*e.lhs, bound);
        checkExpr(*e.rhs, bound);
        return;
      case ExprKind::Ternary:
        checkExpr(*e.lhs, bound);
        checkExpr(*e.rhs, bound);
        checkExpr(*e.third, bound);
        return;
      case ExprKind::Call: {
        if (!isBuiltinFunction(e.name)) {
            fatal("unknown function '" + e.name +
                      "' (components are instantiated as statements, not "
                      "called in expressions)",
                  e.loc);
        }
        const int arity = builtinArity(e.name);
        if (static_cast<int>(e.args.size()) != arity) {
            fatal("builtin '" + e.name + "' takes " +
                      std::to_string(arity) + " argument(s)",
                  e.loc);
        }
        for (const auto &a : e.args)
            checkExpr(*a, bound);
        return;
      }
      case ExprKind::Reduce: {
        if (!isBuiltinReduction(e.name) && !prog_.findReduction(e.name)) {
            fatal("unknown reduction '" + e.name + "'", e.loc);
        }
        std::set<std::string_view> inner = bound;
        for (const auto &axis : e.axes) {
            const Symbol &sym = lookup(axis.index, axis.loc);
            if (sym.kind != Symbol::Kind::Index) {
                fatal("reduction axis '" + axis.index +
                          "' is not a declared index variable",
                      axis.loc);
            }
            inner.insert(axis.index);
        }
        // Axis guards may reference any axis of this reduction.
        for (const auto &axis : e.axes) {
            if (axis.cond)
                checkIndexExpr(*axis.cond, &inner);
        }
        checkExpr(*e.body, inner);
        return;
      }
    }
    panic("unhandled ExprKind");
}

void
ComponentChecker::checkIndexExpr(const Expr &e,
                                 const std::set<std::string_view> *bound)
{
    switch (e.kind) {
      case ExprKind::Number:
        return;
      case ExprKind::Ref: {
        if (!e.args.empty())
            fatal("subscripted reference in index arithmetic", e.loc);
        const Symbol &sym = lookup(e.name, e.loc);
        if (sym.kind == Symbol::Kind::Index) {
            // Inside subscripts of an assignment LHS, index variables bind
            // themselves; inside other index arithmetic they must be bound.
            if (bound != nullptr && !bound->count(e.name)) {
                fatal("index variable '" + e.name +
                          "' is not bound in this context",
                      e.loc);
            }
            return;
        }
        if (sym.kind == Symbol::Kind::DimSym)
            return;
        if (sym.kind == Symbol::Kind::Arg && sym.mod == Modifier::Param &&
            sym.rank == 0) {
            return;
        }
        fatal("index arithmetic may only use index variables, scalar "
              "params, dimension symbols, and constants ('" +
                  e.name + "' is none of these)",
              e.loc);
      }
      case ExprKind::Unary:
        checkIndexExpr(*e.lhs, bound);
        return;
      case ExprKind::Binary:
        checkIndexExpr(*e.lhs, bound);
        checkIndexExpr(*e.rhs, bound);
        return;
      case ExprKind::Ternary:
        checkIndexExpr(*e.lhs, bound);
        checkIndexExpr(*e.rhs, bound);
        checkIndexExpr(*e.third, bound);
        return;
      case ExprKind::Call:
      case ExprKind::Reduce:
        fatal("function calls are not allowed in index arithmetic", e.loc);
    }
    panic("unhandled ExprKind");
}

void
ComponentChecker::collectIndexVars(const Expr &e,
                                   std::set<std::string_view> *out) const
{
    switch (e.kind) {
      case ExprKind::Number:
        return;
      case ExprKind::Ref:
        if (e.args.empty())
            out->insert(e.name);
        for (const auto &ix : e.args)
            collectIndexVars(*ix, out);
        return;
      case ExprKind::Unary:
        collectIndexVars(*e.lhs, out);
        return;
      case ExprKind::Binary:
        collectIndexVars(*e.lhs, out);
        collectIndexVars(*e.rhs, out);
        return;
      case ExprKind::Ternary:
        collectIndexVars(*e.lhs, out);
        collectIndexVars(*e.rhs, out);
        collectIndexVars(*e.third, out);
        return;
      case ExprKind::Call:
        for (const auto &a : e.args)
            collectIndexVars(*a, out);
        return;
      case ExprKind::Reduce:
        collectIndexVars(*e.body, out);
        return;
    }
    panic("unhandled ExprKind");
}

const Symbol &
ComponentChecker::lookup(const std::string &name, SourceLoc loc) const
{
    auto it = scope_.find(name);
    if (it == scope_.end()) {
        fatal("use of undeclared name '" + name + "' in component '" +
                  comp_.name + "'",
              loc);
    }
    return it->second;
}

bool
ComponentChecker::isReadable(const Symbol &sym, const std::string &name) const
{
    if (sym.kind == Symbol::Kind::DimSym)
        return true;
    if (sym.kind == Symbol::Kind::Local)
        return assigned_.count(name) > 0;
    if (sym.kind == Symbol::Kind::Arg) {
        switch (sym.mod) {
          case Modifier::Input:
          case Modifier::State:
          case Modifier::Param:
            return true;
          case Modifier::Output:
            // Outputs become readable once the component has produced them
            // (pred in Fig. 4 is read back on the line after it is written).
            return assigned_.count(name) > 0;
        }
    }
    return false;
}

bool
ComponentChecker::isWritable(const Symbol &sym) const
{
    if (sym.kind == Symbol::Kind::Local)
        return true;
    if (sym.kind == Symbol::Kind::Arg)
        return sym.mod == Modifier::Output || sym.mod == Modifier::State;
    return false;
}

/**
 * Walks the instantiation graph depth first with an explicit stack, so a
 * chain of any length costs heap, not native stack. Rejects cycles and
 * chains of more than kMaxComponentDepth components, which bounds the
 * srDFG builder's recursive instantiation.
 */
void
checkInstantiations(const Program &prog, const ComponentIndex &index)
{
    const size_t n = prog.components.size();
    // Per component: the tallest chain it heads, once walked (0 before),
    // and whether it is on the current path.
    std::vector<int> height(n, 0);
    std::vector<bool> on_path(n, false);
    // The current path, each component with the next body statement to
    // look at and the tallest chain below it seen so far.
    struct Frame
    {
        size_t comp;
        size_t next;
        int height;
    };
    std::vector<Frame> path;
    auto too_deep = [](const Stmt &call) {
        fatal(format("component instantiation nested deeper than %d levels",
                     kMaxComponentDepth),
              call.loc);
    };
    // Puts component @p c on the path; @p call instantiates it from the
    // component on top (null for a root).
    auto enter = [&](size_t c, const Stmt *call) {
        if (on_path[c]) {
            fatal("recursive instantiation of component '" +
                      prog.components[c].name + "'",
                  prog.components[c].loc);
        }
        if (call && path.size() >= static_cast<size_t>(kMaxComponentDepth))
            too_deep(*call);
        on_path[c] = true;
        path.push_back({c, 0, 1});
    };
    for (size_t root = 0; root < n; ++root) {
        if (height[root] != 0)
            continue;
        enter(root, nullptr);
        while (!path.empty()) {
            Frame &top = path.back();
            const auto &body = prog.components[top.comp].body;
            if (top.next == body.size()) {
                on_path[top.comp] = false;
                height[top.comp] = top.height;
                const int below = top.height;
                path.pop_back();
                if (!path.empty())
                    path.back().height =
                        std::max(path.back().height, below + 1);
                continue;
            }
            const Stmt &stmt = *body[top.next++];
            const ComponentDecl *callee =
                stmt.kind == StmtKind::Call ? findIn(index, stmt.callee)
                                            : nullptr;
            if (!callee)
                continue; // not a call, or unknown (ComponentChecker says)
            const auto c =
                static_cast<size_t>(callee - prog.components.data());
            if (height[c] == 0) {
                enter(c, &stmt);
                continue;
            }
            // The path down to top, then the tallest chain c heads.
            if (path.size() + static_cast<size_t>(height[c]) >
                static_cast<size_t>(kMaxComponentDepth))
                too_deep(stmt);
            top.height = std::max(top.height, height[c] + 1);
        }
    }
}

/** Validates a custom reduction body: pure scalar expression over (a, b). */
void
checkReduction(const ReductionDecl &red)
{
    struct Walker
    {
        const ReductionDecl &red;

        void walk(const Expr &e) const
        {
            switch (e.kind) {
              case ExprKind::Number:
                return;
              case ExprKind::Ref:
                if (!e.args.empty() ||
                    (e.name != red.paramA && e.name != red.paramB)) {
                    fatal("reduction body may only reference its two "
                          "parameters",
                          e.loc);
                }
                return;
              case ExprKind::Unary:
                walk(*e.lhs);
                return;
              case ExprKind::Binary:
                walk(*e.lhs);
                walk(*e.rhs);
                return;
              case ExprKind::Ternary:
                walk(*e.lhs);
                walk(*e.rhs);
                walk(*e.third);
                return;
              case ExprKind::Call:
                if (!isBuiltinFunction(e.name) ||
                    static_cast<int>(e.args.size()) !=
                        builtinArity(e.name)) {
                    fatal("invalid function in reduction body", e.loc);
                }
                for (const auto &a : e.args)
                    walk(*a);
                return;
              case ExprKind::Reduce:
                fatal("nested reductions are not allowed in reduction "
                      "bodies",
                      e.loc);
            }
            panic("unhandled ExprKind");
        }
    };
    Walker{red}.walk(*red.body);
}

} // namespace

void
analyze(const Program &prog, const std::string &entry)
{
    obs::Span span("pmlang:sema", "frontend");
    span.arg("components", static_cast<int64_t>(prog.components.size()));
    ComponentIndex index;
    for (const auto &comp : prog.components) {
        if (!index.emplace(comp.name, &comp).second)
            fatal("duplicate component '" + comp.name + "'", comp.loc);
        if (isBuiltinFunction(comp.name) || isBuiltinReduction(comp.name)) {
            fatal("component '" + comp.name + "' shadows a builtin",
                  comp.loc);
        }
    }
    std::set<std::string_view> rednames;
    for (const auto &red : prog.reductions) {
        if (!rednames.insert(red.name).second)
            fatal("duplicate reduction '" + red.name + "'", red.loc);
        checkReduction(red);
    }
    if (!index.count(entry))
        fatal("entry component '" + entry + "' not found");

    checkInstantiations(prog, index);
    for (const auto &comp : prog.components)
        ComponentChecker(prog, index, comp).check();
}

} // namespace polymath::lang
