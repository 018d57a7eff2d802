// The conversion passes, in the paper's order of application (§7.2):
//
//   Directives -> Break -> Continue -> Return -> Assert -> Lists ->
//   Slices -> Function Calls -> Control Flow -> Ternary -> Logical ->
//   Function Wrappers
//
// plus an initial Desugar pass (augmented assignment lowering) that
// normalizes the tree so later passes handle fewer shapes.
//
// Every pass takes and returns a statement list. ConversionPasses() is
// the one table of them, in that order; ConvertFunctionAst runs the rows
// ConversionOptions::pipeline selects, in table order, on one function
// definition (each pass re-runs the static analyses it needs, since
// transforms invalidate node-keyed annotations).
#pragma once

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "lang/ast.h"
#include "support/pass_pipeline.h"

namespace ag::transforms {

// What ConvertFunctionAst does with aglint diagnostics (see
// analysis/lint.h for the diagnostic codes).
enum class LintMode : std::uint8_t {
  kOff,   // no linting (default)
  kWarn,  // print diagnostics to stderr, convert anyway
  kError, // raise ConversionError for any AG001-AG005 diagnostic
};

struct ConversionOptions {
  // Call targets whose qualified-name prefix matches are NOT rewritten to
  // converted_call (the paper's whitelisted modules: TF itself, and the
  // AutoGraph operators).
  std::set<std::string> whitelist{"tf", "ag", "ag__"};
  // Which conversion passes run (see ConversionPasses() for the names
  // and support/pass_pipeline.h for the grammar). The default spec runs
  // every pass. Excluding "call_trees" ("-call_trees") selects
  // non-recursive conversion: calls are not wrapped, and the
  // interpreter runs unconverted callees as-is.
  PipelineSpec pipeline;
  // Staging-safety diagnostics run over the *original* function before
  // any pass, so locations always point at user source.
  LintMode lint_mode = LintMode::kOff;
  analysis::LintBackend lint_backend = analysis::LintBackend::kTF;
};

[[nodiscard]] lang::StmtList DesugarPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList DirectivesPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList BreakPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList ContinuePass(const lang::StmtList& body);
// Applied per function (uses its own return-value symbol); `body` is the
// body of the function being converted.
[[nodiscard]] lang::StmtList ReturnPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList AssertPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList ListsPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList SlicesPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList CallTreesPass(const lang::StmtList& body,
                                           const ConversionOptions& options);
[[nodiscard]] lang::StmtList ControlFlowPass(
    const lang::StmtList& body, const std::vector<std::string>& params);
[[nodiscard]] lang::StmtList TernaryPass(const lang::StmtList& body);
[[nodiscard]] lang::StmtList LogicalPass(const lang::StmtList& body);

// One row of the conversion pass table: the PipelineSpec token and the
// body, which rewrites the body of the function with parameters
// `params`.
struct ConversionPass {
  const char* name;
  lang::StmtList (*run)(const lang::StmtList& body,
                        const ConversionOptions& options,
                        const std::vector<std::string>& params);
};

// The conversion passes, in the one order ConvertFunctionAst runs them:
// desugar, directives, break, continue, return, assert, lists, slices,
// call_trees, control_flow, ternary, logical.
[[nodiscard]] std::span<const ConversionPass> ConversionPasses();

// Runs the selected passes on a (cloned) function definition. The result is
// a new FunctionDef whose body is in overloadable functional form; the
// original is left untouched.
[[nodiscard]] std::shared_ptr<lang::FunctionDefStmt> ConvertFunctionAst(
    const std::shared_ptr<lang::FunctionDefStmt>& fn,
    const ConversionOptions& options = {});

}  // namespace ag::transforms
