/**
 * @file
 * Semantic analysis for PMLang programs.
 *
 * Validates, before srDFG construction:
 *  - component/reduction name uniqueness and existence of the entry point;
 *  - type-modifier access rules (input/param read-only, output write-only
 *    until first assigned, state read-write — Section II-A);
 *  - index-variable scoping: every index used in an assignment is bound by
 *    the statement's left-hand side or an enclosing reduction axis;
 *  - reference arity (scalar or fully-indexed) and call arity/compatibility;
 *  - built-in function arity and reduction-name resolution;
 *  - absence of recursive component instantiation, and instantiation
 *    chains no deeper than kMaxComponentDepth.
 *
 * All violations raise UserError with the offending source location.
 */
#ifndef POLYMATH_PMLANG_SEMA_H_
#define POLYMATH_PMLANG_SEMA_H_

#include <string>

#include "pmlang/ast.h"

namespace polymath::lang {

/**
 * Most components one instantiation chain may hold, the entry included:
 * `main` calling `f1` calling `f2` is three deep. The srDFG builder
 * instantiates callees recursively, so the bound keeps a generated chain
 * from overflowing the native stack of pmc or of a pmcd worker. A deeper
 * chain is a positioned UserError at the instantiation that goes one
 * level too far. Table III/IV programs nest at most 3 deep.
 */
inline constexpr int kMaxComponentDepth = 256;

/**
 * Analyzes @p prog. @p entry is the top-level component ("main" for whole
 * programs; any component name for library-style analysis).
 * @throws UserError on the first semantic violation.
 */
void analyze(const Program &prog, const std::string &entry = "main");

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_SEMA_H_
