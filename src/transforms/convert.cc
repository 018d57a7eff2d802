// The conversion pipeline (paper §6, "General Approach" steps 3-4):
// ConvertFunctionAst runs the rows of the conversion pass table that
// ConversionOptions::pipeline selects, in table order, over a cloned
// AST. Also implements the Function Wrappers pass: the converted
// function is tagged with the "ag__converted" decorator, which the
// runtime uses to (a) skip re-conversion in converted_call and (b) open
// a graph name scope around the function's ops while staging.
#include <iostream>
#include <utility>

#include "analysis/lint.h"
#include "transforms/passes.h"

namespace ag::transforms {

namespace {

// Runs aglint over the unconverted function, so every diagnostic carries
// the user's original source location. In kError mode the first
// staging-safety diagnostic (AG001-AG005) aborts conversion; AG006
// (unreachable code) and AG007 (dead store) are code-quality hints and
// never fatal.
void RunLint(const std::shared_ptr<lang::FunctionDefStmt>& fn,
             const ConversionOptions& options) {
  analysis::LintOptions lint_options;
  lint_options.backend = options.lint_backend;
  const std::vector<analysis::Diagnostic> diagnostics =
      analysis::LintFunction(fn, lint_options);
  for (const analysis::Diagnostic& d : diagnostics) {
    if (options.lint_mode == LintMode::kError && d.code != "AG006" &&
        d.code != "AG007" && d.severity != analysis::Severity::kInfo) {
      throw analysis::ToConversionError(d, fn->name);
    }
    std::cerr << "aglint: " << d.str() << "\n";
  }
}

// Adapts a pass that needs only the body to the table's signature.
template <lang::StmtList (*Pass)(const lang::StmtList&)>
lang::StmtList BodyOnly(const lang::StmtList& body, const ConversionOptions&,
                        const std::vector<std::string>&) {
  return Pass(body);
}

lang::StmtList RunCallTrees(const lang::StmtList& body,
                            const ConversionOptions& options,
                            const std::vector<std::string>&) {
  return CallTreesPass(body, options);
}

lang::StmtList RunControlFlow(const lang::StmtList& body,
                              const ConversionOptions&,
                              const std::vector<std::string>& params) {
  return ControlFlowPass(body, params);
}

// The paper's fixed order (§7.2), after the initial desugar pass.
constexpr ConversionPass kConversionPasses[] = {
    {"desugar", BodyOnly<DesugarPass>},
    {"directives", BodyOnly<DirectivesPass>},
    {"break", BodyOnly<BreakPass>},
    {"continue", BodyOnly<ContinuePass>},
    {"return", BodyOnly<ReturnPass>},
    {"assert", BodyOnly<AssertPass>},
    {"lists", BodyOnly<ListsPass>},
    {"slices", BodyOnly<SlicesPass>},
    {"call_trees", RunCallTrees},
    {"control_flow", RunControlFlow},
    {"ternary", BodyOnly<TernaryPass>},
    {"logical", BodyOnly<LogicalPass>},
};

}  // namespace

std::span<const ConversionPass> ConversionPasses() {
  return kConversionPasses;
}

std::shared_ptr<lang::FunctionDefStmt> ConvertFunctionAst(
    const std::shared_ptr<lang::FunctionDefStmt>& fn,
    const ConversionOptions& options) {
  if (options.lint_mode != LintMode::kOff) {
    RunLint(fn, options);
  }
  const PipelineSpec& spec = options.pipeline;
  std::vector<std::string_view> names;
  for (const ConversionPass& pass : kConversionPasses) {
    names.emplace_back(pass.name);
  }
  spec.CheckNames(names);
  auto out = lang::Cast<lang::FunctionDefStmt>(
      lang::CloneStmt(std::static_pointer_cast<lang::Stmt>(fn)));

  lang::StmtList body = std::move(out->body);
  for (const ConversionPass& pass : kConversionPasses) {
    if (spec.Selects(pass.name, /*default_enabled=*/true)) {
      body = pass.run(body, options, out->params);
    }
  }
  out->body = std::move(body);

  // Function Wrappers: tag as converted (runtime opens a name scope and
  // installs the error-rewriting handler around calls to it).
  out->decorators.clear();
  out->decorators.push_back("ag__converted");
  return out;
}

}  // namespace ag::transforms
