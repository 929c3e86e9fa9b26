/**
 * @file
 * Abstract syntax tree for PMLang (Section II of the paper).
 *
 * A program is a set of component declarations plus custom reduction
 * definitions. Components carry modifier-typed arguments
 * (input/output/state/param); bodies are index declarations, local variable
 * declarations, assignments over index domains, and component instantiations
 * optionally annotated with a target domain.
 */
#ifndef POLYMATH_PMLANG_AST_H_
#define POLYMATH_PMLANG_AST_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "core/error.h"

namespace polymath::lang {

/** Argument type modifiers (Table I). */
enum class Modifier : uint8_t { Input, Output, State, Param };

/** Target-domain annotations for component instantiations (Section II-D). */
enum class Domain : uint8_t { None, RBT, GA, DSP, DA, DL };

/** Returns the PMLang keyword for @p m. */
std::string toString(Modifier m);

/** Returns the annotation keyword for @p d ("RBT", ...; "" for None). */
std::string toString(Domain d);

struct Expr;
struct Stmt;

/** An expression node. Nodes live in their Program's arena (below) and
 *  are read-only once the parser has built them. */
using ExprPtr = const Expr *;

/** A statement node, owned like ExprPtr. */
using StmtPtr = const Stmt *;

/** A node's operands in its Program's arena: subscripts, call
 *  arguments, dimensions. */
using ExprList = std::span<const ExprPtr>;

/** Expression node kinds. */
enum class ExprKind : uint8_t {
    Number,  ///< numeric literal
    Ref,     ///< variable reference, optionally fully indexed
    Unary,   ///< -x, !x
    Binary,  ///< arithmetic / comparison / logical
    Ternary, ///< c ? a : b
    Call,    ///< built-in function application, e.g. sigmoid(x)
    Reduce,  ///< group reduction, e.g. sum[i][j: j != i](body)
};

/** One reduction axis: an index-variable name plus optional Boolean guard. */
struct ReduceAxis
{
    std::string index;
    ExprPtr cond = nullptr; ///< may be null
    SourceLoc loc;
};

/**
 * A PMLang expression. Modeled as a single tagged node (rather than a class
 * hierarchy) so tree transforms stay local to one type; only the fields of
 * the active kind are populated.
 */
struct Expr
{
    ExprKind kind = ExprKind::Number;
    SourceLoc loc;
    /** Levels in this subtree, itself included, as the parser built it
     *  (kept below kMaxExprDepth, pmlang/parser.h). */
    int height = 1;

    // Number
    double value = 0.0;
    bool isIntLit = false;

    // Ref / Call / Reduce: name of variable, function, or reduction op
    std::string name;

    // Ref: index expressions; Call: arguments
    ExprList args;

    // Unary/Binary: operator spelling ("+", "-", "*", "/", "%", "^", "<",
    // "<=", ">", ">=", "==", "!=", "&&", "||", "!", "neg")
    std::string op;
    ExprPtr lhs = nullptr;
    ExprPtr rhs = nullptr;
    ExprPtr third = nullptr; ///< Ternary else-branch (lhs=cond, rhs=then)

    // Reduce
    std::vector<ReduceAxis> axes;
    ExprPtr body = nullptr;
};

/** Statement node kinds. */
enum class StmtKind : uint8_t { IndexDecl, VarDecl, Assign, Call };

/** One declared index range: name[lo:hi], bounds inclusive. */
struct IndexSpec
{
    std::string name;
    ExprPtr lo = nullptr;
    ExprPtr hi = nullptr;
    SourceLoc loc;
};

/** One declared local variable with optional dimensions. */
struct LocalDecl
{
    std::string name;
    ExprList dims;
    SourceLoc loc;
};

/** A statement inside a component body. */
struct Stmt
{
    StmtKind kind = StmtKind::Assign;
    SourceLoc loc;

    // IndexDecl
    std::vector<IndexSpec> indexSpecs;

    // VarDecl
    DType declType = DType::Float;
    std::vector<LocalDecl> locals;

    // Assign: target[indices...] = value
    std::string target;
    ExprList targetIndices;
    ExprPtr value = nullptr;

    // Call: DOMAIN: callee(args...)
    Domain domain = Domain::None;
    std::string callee;
    ExprList callArgs;
};

/** One component argument declaration. */
struct ArgDecl
{
    Modifier mod = Modifier::Input;
    DType type = DType::Float;
    std::string name;
    ExprList dims; ///< literals or symbolic dim names
    SourceLoc loc;
};

/** A component: the reusable building block of PMLang programs. */
struct ComponentDecl
{
    std::string name;
    std::vector<ArgDecl> args;
    std::vector<StmtPtr> body;
    SourceLoc loc;
};

/** A custom group reduction: `reduction name(a,b) = expr;`. */
struct ReductionDecl
{
    std::string name;
    std::string paramA;
    std::string paramB;
    ExprPtr body = nullptr;
    SourceLoc loc;
};

/**
 * Owner of a parse's Expr and Stmt nodes and operand lists. Each kind is
 * kept in chunks that never reallocate, so a node's address is stable
 * from construction until the Arena dies, moves included. The first
 * chunks are sized from the token count, so a typical parse fills one
 * per kind.
 */
class Arena
{
  public:
    Arena() = default;
    /** Sizes the first chunks for a parse of @p tokens tokens. */
    explicit Arena(size_t tokens);
    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    Expr *newExpr() { return exprs_.make(); }
    Stmt *newStmt() { return stmts_.make(); }
    /** Copies @p n operands starting at @p first into the arena. */
    ExprList list(const ExprPtr *first, size_t n)
    {
        return {lists_.copy(first, n), n};
    }

  private:
    /** Chunked storage of one type; a chunk never grows past the
     *  capacity it was reserved with. */
    template <typename T>
    class Pool
    {
      public:
        void reserve(size_t n) { next_ = n; }
        T *make() { return &room(1).emplace_back(); }
        const T *copy(const T *first, size_t n)
        {
            if (n == 0)
                return nullptr;
            auto &chunk = room(n);
            const size_t at = chunk.size();
            chunk.insert(chunk.end(), first, first + n);
            return chunk.data() + at;
        }

      private:
        std::vector<T> &room(size_t n)
        {
            if (chunks_.empty() ||
                chunks_.back().capacity() - chunks_.back().size() < n) {
                chunks_.emplace_back().reserve(
                    std::max(n, std::min(next_, kChunkBytes / sizeof(T))));
                next_ *= 2;
            }
            return chunks_.back();
        }

        /** Largest chunk a pool reserves; larger ones come from mmap,
         *  and a parse would pay page faults for them every time. */
        static constexpr size_t kChunkBytes = 64 * 1024;

        std::vector<std::vector<T>> chunks_;
        size_t next_ = 16;
    };

    Pool<Expr> exprs_;
    Pool<Stmt> stmts_;
    Pool<ExprPtr> lists_;
};

/** A whole PMLang translation unit. */
struct Program
{
    std::vector<ComponentDecl> components;
    std::vector<ReductionDecl> reductions;
    /** Every node the declarations above point to. */
    Arena arena;

    /** Finds a component by name; nullptr when absent. */
    const ComponentDecl *findComponent(const std::string &name) const;

    /** Finds a custom reduction by name; nullptr when absent. */
    const ReductionDecl *findReduction(const std::string &name) const;
};

/** Renders an expression back to PMLang-like text (for diagnostics/tests). */
std::string exprToString(const Expr &e);

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_AST_H_
