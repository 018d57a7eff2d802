#include "analysis/lint.h"

#include <algorithm>
#include <sstream>

#include "analysis/activity.h"
#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/liveness.h"
#include "analysis/reaching_definitions.h"
#include "analysis/shape_infer.h"
#include "support/strings.h"

namespace ag::analysis {

using lang::Cast;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "<?>";
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << location.str() << ": " << SeverityName(severity) << ": [" << code
     << "] " << message;
  if (!note.empty()) os << "\n  note: " << note;
  return os.str();
}

bool HasErrors(const std::vector<Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) {
                       return d.severity == Severity::kError;
                     });
}

Error ToConversionError(const Diagnostic& diagnostic,
                        const std::string& function_name) {
  std::string message = "[" + diagnostic.code + "] " + diagnostic.message;
  if (!diagnostic.note.empty()) message += " (" + diagnostic.note + ")";
  SourceFrame frame;
  frame.location = diagnostic.location;
  frame.function_name = function_name;
  return Error(ErrorKind::kConversion, std::move(message), {frame});
}

namespace {

// The user-source location of a node (origin when the node descends from
// transformed code; for freshly parsed source origin == loc).
const SourceLocation& Loc(const lang::Node* node) {
  return node->origin.valid() ? node->origin : node->loc;
}

// True for symbols the lint should reason about: plain variable names,
// excluding AutoGraph-internal ag__ temporaries.
bool IsPlainUserName(const std::string& name) {
  return name.find('.') == std::string::npos &&
         name.find('[') == std::string::npos &&
         !StartsWith(name, "ag__");
}

void CollectStmts(const StmtList& body, std::vector<const lang::Stmt*>* out) {
  for (const StmtPtr& s : body) {
    out->push_back(s.get());
    switch (s->kind) {
      case StmtKind::kIf: {
        auto i = Cast<lang::IfStmt>(s);
        CollectStmts(i->body, out);
        CollectStmts(i->orelse, out);
        break;
      }
      case StmtKind::kWhile:
        CollectStmts(Cast<lang::WhileStmt>(s)->body, out);
        break;
      case StmtKind::kFor:
        CollectStmts(Cast<lang::ForStmt>(s)->body, out);
        break;
      default:
        break;
    }
  }
}

// ---- AG001: definite assignment --------------------------------------

void CheckMaybeUndefined(const ControlFlowGraph& cfg,
                         const std::vector<const lang::Stmt*>& stmts,
                         std::vector<Diagnostic>* out) {
  ReachingDefinitions defs(cfg);

  // Locals: symbols some CFG node writes. Reads of names never written
  // in the function resolve to globals/builtins and are not flagged.
  NameSet locals(cfg.names());
  for (const CfgNode& node : cfg.nodes()) {
    if (node.stmt != nullptr) locals |= node.writes;
  }

  for (const lang::Stmt* stmt : stmts) {
    const CfgNode& node =
        cfg.nodes()[static_cast<size_t>(cfg.NodeFor(stmt))];
    const NameSet& must = defs.DefinitelyDefinedIn(stmt);
    const NameSet& may = defs.MaybeDefinedIn(stmt);
    for (const std::string& r : node.reads) {
      if (!IsPlainUserName(r) || locals.count(r) == 0) continue;
      if (must.count(r) > 0 || may.count(r) == 0) continue;
      Diagnostic d;
      d.severity = Severity::kError;
      d.code = "AG001";
      d.message = "'" + r +
                  "' may be undefined here: it is assigned on only some "
                  "control-flow paths (e.g. a single branch of an `if`)";
      d.location = Loc(stmt);
      d.note = "initialize '" + r +
               "' before the conditional so every path defines it; staging "
               "would otherwise fail with an undefined-symbol error in "
               "functional form";
      out->push_back(std::move(d));
    }
  }
}

// ---- AG002 / AG003: branch and loop dtype/shape consistency ----------

void CheckTypeConsistency(const lang::FunctionDefStmt& fn,
                          std::vector<Diagnostic>* out) {
  ShapeInference inference(fn);
  for (const TypeIssue& issue : inference.issues()) {
    if (!IsPlainUserName(issue.var)) continue;
    Diagnostic d;
    d.location = Loc(issue.stmt);
    d.severity = Severity::kError;
    switch (issue.kind) {
      case TypeIssue::Kind::kBranchDType:
        d.code = "AG002";
        d.message = "'" + issue.var +
                    "' is bound to incompatible types across the branches "
                    "of this `if`: " + issue.after.str() + " vs " +
                    issue.before.str();
        d.note = "tf.cond requires both branches to produce the same dtype "
                 "for every threaded variable";
        break;
      case TypeIssue::Kind::kBranchShape:
        d.code = "AG002";
        d.message = "'" + issue.var +
                    "' is bound to incompatible shapes across the branches "
                    "of this `if`: " + issue.after.str() + " vs " +
                    issue.before.str();
        d.note = "tf.cond requires both branches to produce the same shape "
                 "for every threaded variable";
        break;
      case TypeIssue::Kind::kLoopDType:
        d.code = "AG003";
        d.message = "loop variable '" + issue.var +
                    "' changes dtype across iterations: " +
                    issue.before.str() + " on entry vs " +
                    issue.after.str() + " after one iteration";
        d.note = "tf.while_loop requires loop variables to keep a fixed "
                 "dtype; cast before the loop";
        break;
      case TypeIssue::Kind::kLoopShape:
        d.code = "AG003";
        d.message = "loop variable '" + issue.var +
                    "' changes shape across iterations: " +
                    issue.before.str() + " on entry vs " +
                    issue.after.str() + " after one iteration";
        d.note = "tf.while_loop requires shape-invariant loop variables; "
                 "pad or reshape to a fixed shape";
        break;
    }
    out->push_back(std::move(d));
  }
}

// ---- AG004: hidden side effects inside staged control flow -----------

void CheckHiddenSideEffects(const StmtList& body, int control_depth,
                            std::vector<Diagnostic>* out) {
  for (const StmtPtr& s : body) {
    switch (s->kind) {
      case StmtKind::kAssign:
      case StmtKind::kAugAssign: {
        if (control_depth == 0) break;
        const lang::ExprPtr& target =
            s->kind == StmtKind::kAssign
                ? Cast<lang::AssignStmt>(s)->target
                : Cast<lang::AugAssignStmt>(s)->target;
        std::set<std::string> writes;
        std::set<std::string> reads;
        CollectWrites(target, &writes, &reads);
        for (const std::string& w : writes) {
          const bool compound = w.find('.') != std::string::npos ||
                                EndsWith(w, "[]");
          if (!compound) continue;
          Diagnostic d;
          d.severity = Severity::kWarning;
          d.code = "AG004";
          d.message = "write to '" + w +
                      "' inside control flow is a hidden side effect: "
                      "functional form cannot thread compound targets, so "
                      "the write is lost if this construct stages";
          d.location = Loc(s.get());
          d.note = "assign to a local variable inside the control flow and "
                   "write '" + w + "' back once, after it";
          out->push_back(std::move(d));
        }
        break;
      }
      case StmtKind::kIf: {
        auto i = Cast<lang::IfStmt>(s);
        CheckHiddenSideEffects(i->body, control_depth + 1, out);
        CheckHiddenSideEffects(i->orelse, control_depth + 1, out);
        break;
      }
      case StmtKind::kWhile:
        CheckHiddenSideEffects(Cast<lang::WhileStmt>(s)->body,
                               control_depth + 1, out);
        break;
      case StmtKind::kFor:
        CheckHiddenSideEffects(Cast<lang::ForStmt>(s)->body,
                               control_depth + 1, out);
        break;
      default:
        break;
    }
  }
}

// ---- AG005: recursion ------------------------------------------------

void CheckRecursion(const StmtList& defs, const LintOptions& options,
                    std::vector<Diagnostic>* out) {
  CallGraph cg = CallGraph::Build(defs);
  for (const CallGraph::Cycle& cycle : cg.FindRecursion()) {
    Diagnostic d;
    d.code = "AG005";
    d.location = cycle.loc;
    const std::string shape = cycle.path.size() == 1
                                  ? "is recursive"
                                  : "is mutually recursive";
    d.message = "function '" + cycle.path.front() + "' " + shape + " (" +
                cycle.str() + ")";
    if (options.backend == LintBackend::kTF) {
      d.severity = Severity::kError;
      d.note = "the TF graph backend cannot stage recursive functions; "
               "rewrite as a loop or use the Lantern backend, whose IR is "
               "re-entrant";
      d.message += ": the TF graph IR cannot express recursion";
    } else {
      d.severity = Severity::kInfo;
      d.note = "recursion stages on the Lantern backend (re-entrant IR); "
               "ensure the base case does not depend on staged values";
    }
    out->push_back(std::move(d));
  }
}

// ---- AG006: unreachable code -----------------------------------------

bool IsTerminator(const StmtPtr& s) {
  return s->kind == StmtKind::kReturn || s->kind == StmtKind::kBreak ||
         s->kind == StmtKind::kContinue;
}

const char* TerminatorName(const StmtPtr& s) {
  switch (s->kind) {
    case StmtKind::kReturn: return "return";
    case StmtKind::kBreak: return "break";
    default: return "continue";
  }
}

void CheckUnreachable(const StmtList& body, std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < body.size(); ++i) {
    const StmtPtr& s = body[i];
    if (IsTerminator(s) && i + 1 < body.size()) {
      Diagnostic d;
      d.severity = Severity::kWarning;
      d.code = "AG006";
      d.message = std::string("unreachable code: this statement follows a "
                              "'") +
                  TerminatorName(s) + "' and can never execute";
      d.location = Loc(body[i + 1].get());
      d.note = "remove it, or restructure the control flow";
      out->push_back(std::move(d));
      // One report per statement list; later statements in this list are
      // unreachable for the same reason.
    }
    switch (s->kind) {
      case StmtKind::kIf: {
        auto stmt = Cast<lang::IfStmt>(s);
        CheckUnreachable(stmt->body, out);
        CheckUnreachable(stmt->orelse, out);
        break;
      }
      case StmtKind::kWhile:
        CheckUnreachable(Cast<lang::WhileStmt>(s)->body, out);
        break;
      case StmtKind::kFor:
        CheckUnreachable(Cast<lang::ForStmt>(s)->body, out);
        break;
      case StmtKind::kFunctionDef:
        CheckUnreachable(Cast<lang::FunctionDefStmt>(s)->body, out);
        break;
      default:
        break;
    }
    if (IsTerminator(s)) break;
  }
}

// ---- AG007: dead stores ----------------------------------------------

void CheckDeadStores(const ControlFlowGraph& cfg,
                     const std::vector<const lang::Stmt*>& stmts,
                     std::vector<Diagnostic>* out) {
  Liveness liveness(cfg);
  for (const lang::Stmt* stmt : stmts) {
    if (stmt->kind != StmtKind::kAssign &&
        stmt->kind != StmtKind::kAugAssign) {
      continue;
    }
    const CfgNode& node =
        cfg.nodes()[static_cast<size_t>(cfg.NodeFor(stmt))];
    const NameSet& live_out = liveness.LiveOut(stmt);
    for (const std::string& w : node.writes) {
      // Compound targets (`a.b`, `a[i]`) are side effects, not stores to
      // a local; `_`-prefixed names are the discard convention.
      if (!IsPlainUserName(w) || StartsWith(w, "_")) continue;
      if (live_out.count(w) > 0) continue;
      Diagnostic d;
      d.severity = Severity::kWarning;
      d.code = "AG007";
      d.message = "dead store: the value assigned to '" + w +
                  "' is never used — every path rewrites or discards it "
                  "before any read";
      d.location = Loc(stmt);
      d.note = "remove the assignment (the discarded expression still "
               "traces graph ops at staging time), or rename to '_" + w +
               "' if the discard is intentional";
      out->push_back(std::move(d));
    }
  }
}

void SortDiagnostics(std::vector<Diagnostic>* out) {
  std::stable_sort(out->begin(), out->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.location.line != b.location.line) {
                       return a.location.line < b.location.line;
                     }
                     if (a.location.column != b.location.column) {
                       return a.location.column < b.location.column;
                     }
                     return a.code < b.code;
                   });
}

void LintFunctionInto(const std::shared_ptr<lang::FunctionDefStmt>& fn,
                      const LintOptions& options, bool with_recursion,
                      std::vector<Diagnostic>* out) {
  // One CFG serves both dataflow checks (AG001, AG007).
  const ControlFlowGraph cfg = ControlFlowGraph::Build(fn->body, fn->params);
  std::vector<const lang::Stmt*> stmts;
  CollectStmts(fn->body, &stmts);
  CheckMaybeUndefined(cfg, stmts, out);
  CheckTypeConsistency(*fn, out);
  CheckHiddenSideEffects(fn->body, 0, out);
  if (with_recursion) {
    CheckRecursion(StmtList{fn}, options, out);
  }
  CheckUnreachable(fn->body, out);
  CheckDeadStores(cfg, stmts, out);
}

// Drops diagnostics whose code the spec deselects. Checks still *run*
// (several share one AST walk); the spec filters what is reported.
void ApplyChecksSpec(const LintOptions& options,
                     std::vector<Diagnostic>* out) {
  ValidateChecksSpec(options.checks);
  out->erase(std::remove_if(out->begin(), out->end(),
                            [&options](const Diagnostic& d) {
                              return !options.checks.Selects(d.code, true);
                            }),
             out->end());
}

}  // namespace

void ValidateChecksSpec(const PipelineSpec& checks) {
  auto known = [](const std::string& name) {
    if (name.size() != 5 || name.compare(0, 2, "AG") != 0) return false;
    return name >= "AG001" && name <= "AG007";
  };
  for (const std::string& name : checks.include) {
    if (!known(name)) {
      throw ValueError("aglint: unknown check '" + name +
                       "' in spec (known: AG001..AG007)");
    }
  }
  for (const std::string& name : checks.exclude) {
    if (!known(name)) {
      throw ValueError("aglint: unknown check '" + name +
                       "' in spec (known: AG001..AG007)");
    }
  }
}

std::vector<Diagnostic> LintFunction(
    const std::shared_ptr<lang::FunctionDefStmt>& fn,
    const LintOptions& options) {
  std::vector<Diagnostic> out;
  LintFunctionInto(fn, options, /*with_recursion=*/true, &out);
  SortDiagnostics(&out);
  ApplyChecksSpec(options, &out);
  return out;
}

std::vector<Diagnostic> LintModule(const lang::ModulePtr& module,
                                   const LintOptions& options) {
  std::vector<Diagnostic> out;
  for (const StmtPtr& s : module->body) {
    if (s->kind != StmtKind::kFunctionDef) continue;
    LintFunctionInto(Cast<lang::FunctionDefStmt>(s), options,
                     /*with_recursion=*/false, &out);
  }
  // Recursion over the whole module at once, so mutual recursion across
  // functions is caught and each cycle is reported exactly once.
  CheckRecursion(module->body, options, &out);
  SortDiagnostics(&out);
  ApplyChecksSpec(options, &out);
  return out;
}

}  // namespace ag::analysis
