// The conversion pipeline (paper §6, "General Approach" steps 3-4),
// driven by the AST-level PassRegistry: every built-in pass registers
// with a name and ordering constraints, ConvertFunctionAst builds the
// pipeline from ConversionOptions::pipeline and runs it over a cloned
// AST. Also implements the Function Wrappers pass: the converted
// function is tagged with the "ag__converted" decorator, which the
// runtime uses to (a) skip re-conversion in converted_call and (b) open
// a graph name scope around the function's ops while staging.
#include "transforms/pass_manager.h"

#include <iostream>
#include <utility>

#include "analysis/lint.h"
#include "lang/unparser.h"
#include "support/error.h"
#include "support/strings.h"
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

}  // namespace

PassRegistry& PassRegistry::Global() {
  static PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    RegisterBuiltinAstPasses(*r);
    return r;
  }();
  return *registry;
}

void PassRegistry::Register(PassInfo info) {
  if (info.name.empty()) {
    throw ValueError("pass registry: pass name must be non-empty");
  }
  if (!info.run) {
    throw ValueError("pass registry: pass '" + info.name + "' has no body");
  }
  if (index_.count(info.name) > 0) {
    throw ValueError("pass registry: duplicate pass '" + info.name + "'");
  }
  index_[info.name] = passes_.size();
  passes_.push_back(std::make_unique<PassInfo>(std::move(info)));
}

const PassInfo* PassRegistry::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : passes_[it->second].get();
}

std::vector<std::string> PassRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name);
  return names;
}

std::vector<const PassInfo*> PassRegistry::BuildPipeline(
    const PipelineSpec& spec) const {
  // Every name the spec mentions must exist — a typo is a structured
  // error, not a silently empty pipeline.
  auto check_known = [this](const std::vector<std::string>& names,
                            const char* where) {
    for (const std::string& name : names) {
      if (name == "default") continue;
      if (Find(name) == nullptr) {
        throw ValueError("pass pipeline: unknown pass '" + name + "' in " +
                         where + " list (registered: " +
                         Join(Names(), ", ") + ")");
      }
    }
  };
  check_known(spec.include, "include");
  check_known(spec.exclude, "exclude");

  std::vector<size_t> selected;
  std::vector<PassOrderNode> order_nodes;
  for (size_t i = 0; i < passes_.size(); ++i) {
    const PassInfo& p = *passes_[i];
    for (const std::string& dep : p.after) {
      if (Find(dep) == nullptr) {
        throw ValueError("pass registry: pass '" + p.name +
                         "' has after-constraint on unregistered pass '" +
                         dep + "'");
      }
    }
    for (const std::string& next : p.before) {
      if (Find(next) == nullptr) {
        throw ValueError("pass registry: pass '" + p.name +
                         "' has before-constraint on unregistered pass '" +
                         next + "'");
      }
    }
    if (spec.Selects(p.name, p.default_enabled)) {
      selected.push_back(i);
      // Rank 0 everywhere: AST passes have no phases; registration
      // order is the tiebreak, after/before the hard constraints.
      order_nodes.push_back(PassOrderNode{p.name, p.after, p.before, 0});
    }
  }

  std::vector<const PassInfo*> pipeline;
  pipeline.reserve(selected.size());
  for (size_t si : OrderPasses(order_nodes)) {
    pipeline.push_back(passes_[selected[si]].get());
  }
  return pipeline;
}

void RegisterBuiltinAstPasses(PassRegistry& registry) {
  // Each pass constrains itself after its predecessor, making the
  // paper's fixed order explicit and machine-checked — a spec that
  // drops passes keeps the survivors in this relative order.
  const char* prev = nullptr;
  auto add = [&registry, &prev](
                 const char* name,
                 std::function<lang::StmtList(const lang::StmtList&,
                                              PassContext&)> run) {
    PassInfo info;
    info.name = name;
    if (prev != nullptr) info.after = {prev};
    info.run = std::move(run);
    registry.Register(info);
    prev = name;
  };
  auto body_pass = [](lang::StmtList (*fn)(const lang::StmtList&)) {
    return [fn](const lang::StmtList& body, PassContext&) {
      return fn(body);
    };
  };
  add("desugar", body_pass(&DesugarPass));
  add("directives", body_pass(&DirectivesPass));
  add("break", body_pass(&BreakPass));
  add("continue", body_pass(&ContinuePass));
  add("return", body_pass(&ReturnPass));
  add("assert", body_pass(&AssertPass));
  add("lists", body_pass(&ListsPass));
  add("slices", body_pass(&SlicesPass));
  add("call_trees", [](const lang::StmtList& body, PassContext& ctx) {
    return CallTreesPass(body, *ctx.options);
  });
  add("control_flow", [](const lang::StmtList& body, PassContext& ctx) {
    return ControlFlowPass(body, *ctx.params);
  });
  add("ternary", body_pass(&TernaryPass));
  add("logical", body_pass(&LogicalPass));
}

std::shared_ptr<lang::FunctionDefStmt> ConvertFunctionAst(
    const std::shared_ptr<lang::FunctionDefStmt>& fn,
    const ConversionOptions& options) {
  if (options.lint_mode != LintMode::kOff) {
    RunLint(fn, options);
  }
  auto out = lang::Cast<lang::FunctionDefStmt>(
      lang::CloneStmt(std::static_pointer_cast<lang::Stmt>(fn)));

  PassContext ctx;
  ctx.options = &options;
  ctx.params = &out->params;
  lang::StmtList body = std::move(out->body);
  for (const PassInfo* pass :
       PassRegistry::Global().BuildPipeline(options.pipeline)) {
    body = pass->run(body, ctx);
  }
  out->body = std::move(body);

  // Function Wrappers: tag as converted (runtime opens a name scope and
  // installs the error-rewriting handler around calls to it).
  out->decorators.clear();
  out->decorators.push_back("ag__converted");
  return out;
}

}  // namespace ag::transforms
