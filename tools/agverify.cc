// agverify — static verifier for staged PyMini programs.
//
// Usage:
//   agverify [--fn=NAME] [--passes=SPEC] [--inject=FAULT] [-q]
//            <file.pym|dir>...
//
// Directories are searched recursively for *.pym files. Every top-level
// function (or just --fn) is staged with one float32 placeholder per
// parameter and audited at every stage of the back half of the
// pipeline:
//
//   1. traced     — graph well-formedness right after tracing
//                   (AGV101-105, see src/verify/verify.h);
//   2. per-pass   — graph::Optimize with verify_each_pass on, so the
//                   first pass to break an invariant is named; --passes
//                   selects the pipeline (same grammar as agprof:
//                   "licm,cse,-dce", "-fusion"), default: full pipeline.
//                   Pass names in the summary and in [pass:NAME]
//                   attributions come from the registry, so passes
//                   added later are attributable with no tool change;
//   3. optimized  — the full graph checker again on the final graph;
//   4. plans      — Session::CompilePlan for the fetches and for every
//                   Cond/While subgraph, audited for structure, move
//                   soundness, and schedule races (AGV201-214, see
//                   src/verify/plan_verify.h).
//
// --inject=FAULT corrupts the staged artifact of the first selected
// function and re-runs the checkers; the run then must report findings
// (CI uses this as its seeded-broken gate). Faults:
//   pending   +1 on a plan step's pending count          -> AGV201
//   chain     unlink a stateful-chain edge               -> AGV204
//   move      flag a multi-consumer edge kMoveAlways     -> AGV210/211
//   capture   drop a recorded subgraph capture           -> AGV103
//   dtype     flip a comparison node's recorded dtype    -> AGV104
//
// A function that fails to stage (e.g. needs non-scalar feeds) is
// reported as skipped and does not affect the exit status.
//
// Exit status: 0 when every staged function verified clean, 1 when any
// finding was reported (with --inject: when the fault was detected,
// i.e. the expected outcome), 2 on usage / IO problems or when an
// injected fault was NOT detected.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/api.h"
#include "exec/kernels.h"
#include "graph/optimize.h"
#include "lang/parser.h"
#include "verify/plan_verify.h"
#include "verify/verify.h"

namespace fs = std::filesystem;

namespace {

using ag::exec::Session;
using Plan = Session::Plan;

struct Counters {
  int files = 0;
  int functions = 0;
  int skipped = 0;
  int findings = 0;
};

void PrintUsage() {
  std::cerr
      << "usage: agverify [--fn=NAME] [--passes=SPEC] [--inject=FAULT] "
         "[-q] <file.pym|dir>...\n"
         "  --fn=NAME       verify only this function (default: every\n"
         "                  top-level def)\n"
         "  --passes=SPEC   pass pipeline to verify (e.g. "
         "--passes=-fusion\n"
         "                  or --passes=licm,cse,-dce); default: full "
         "pipeline\n"
         "  --inject=FAULT  corrupt the staged artifact, then expect the\n"
         "                  verifier to catch it; FAULT is one of\n"
         "                  pending|chain|move|capture|dtype\n"
         "  -q              only print findings (no per-function lines)\n";
}

std::vector<std::string> TopLevelFunctions(const ag::lang::ModulePtr& m) {
  std::vector<std::string> names;
  for (const ag::lang::StmtPtr& stmt : m->body) {
    if (stmt->kind == ag::lang::StmtKind::kFunctionDef) {
      names.push_back(ag::lang::Cast<ag::lang::FunctionDefStmt>(stmt)->name);
    }
  }
  return names;
}

void Report(const std::string& context,
            const std::vector<ag::verify::VerifyDiagnostic>& findings,
            Counters* counters) {
  for (const ag::verify::VerifyDiagnostic& d : findings) {
    std::cout << context << ": " << d.str() << "\n";
  }
  counters->findings += static_cast<int>(findings.size());
}

// Every FuncGraph reachable through subgraph attrs, outer-first.
void CollectFuncGraphs(const ag::graph::Graph& g,
                       std::vector<const ag::graph::FuncGraph*>* out) {
  for (const auto& n : g.nodes()) {
    for (const auto& [key, value] : n->attrs()) {
      const auto* sub =
          std::get_if<std::shared_ptr<ag::graph::Graph>>(&value);
      if (sub == nullptr || *sub == nullptr) continue;
      if (const auto* fg =
              dynamic_cast<const ag::graph::FuncGraph*>(sub->get())) {
        out->push_back(fg);
      }
      CollectFuncGraphs(**sub, out);
    }
  }
}

// Stages `fn_name` and runs every checker at every stage. Returns false
// when staging failed (the function is skipped, not failed).
bool VerifyFunction(ag::core::AutoGraph& agc, const std::string& context,
                    const std::string& fn_name,
                    const ag::PipelineSpec& pipeline, bool quiet,
                    Counters* counters) {
  ag::core::StagedFunction staged;
  try {
    const size_t num_params =
        agc.GetGlobal(fn_name).AsFunction()->params.size();
    std::vector<ag::core::StageArg> args;
    for (size_t i = 0; i < num_params; ++i) {
      args.push_back(
          ag::core::StageArg::Placeholder("arg" + std::to_string(i)));
    }
    ag::core::StageOptions options;
    options.optimize = false;
    staged = agc.Stage(fn_name, args, options);
  } catch (const ag::Error& e) {
    std::cerr << context << ": skipped (staging failed: " << e.what()
              << ")\n";
    ++counters->skipped;
    return false;
  }
  ++counters->functions;

  // Stage 1: the traced (unoptimized) graph.
  Report(context + " [traced]",
         ag::verify::VerifyGraphAndRoots(*staged.graph, staged.fetches),
         counters);

  // Stage 2: per-pass validation — the first broken invariant is
  // attributed to the pass that introduced it and reported here.
  ag::graph::OptimizeOptions opts;
  opts.pipeline = pipeline;
  opts.verify_each_pass = true;
  const ag::graph::OptimizeStats stats =
      ag::graph::Optimize(staged.graph.get(), &staged.fetches,
                          &ag::exec::EvaluatePureNode, opts);
  if (!stats.broken_pass.empty()) {
    std::cout << context << " [pass:" << stats.broken_pass
              << "]: " << stats.broken_finding << "\n";
    ++counters->findings;
    return true;  // the graph is broken; later stages would double-report
  }

  // Stage 3: the optimized graph.
  Report(context + " [optimized]",
         ag::verify::VerifyGraphAndRoots(*staged.graph, staged.fetches),
         counters);

  // Stage 4: the compiled plans — top-level fetches plus every
  // Cond/While subgraph (each executes through its own sub-plan).
  int plans = 0;
  try {
    const Plan top =
        staged.session->CompilePlan(staged.fetches, /*allow_args=*/false);
    ag::verify::PlanVerifyOptions popts;
    popts.allow_args = false;
    Report(context + " [plan]", ag::verify::VerifyPlan(top, popts),
           counters);
    ++plans;
    std::vector<const ag::graph::FuncGraph*> subgraphs;
    CollectFuncGraphs(*staged.graph, &subgraphs);
    for (const ag::graph::FuncGraph* fg : subgraphs) {
      const Plan sub = staged.session->CompilePlan(fg->returns,
                                                   /*allow_args=*/true);
      Report(context + " [subplan]", ag::verify::VerifyPlan(sub), counters);
      ++plans;
    }
  } catch (const ag::Error& e) {
    // Debug/AG_VERIFY builds self-check inside CompilePlan and throw.
    std::cout << context << " [plan]: " << e.what() << "\n";
    ++counters->findings;
  }

  if (!quiet) {
    std::ostringstream passes;
    for (const ag::graph::OptimizePassStat& p : stats.passes) {
      passes << " " << p.pass << (p.verify_findings == 0 ? "+" : "!");
    }
    std::cout << context << ": verified (passes:" << passes.str() << "; "
              << plans << " plan(s))\n";
  }
  return true;
}

// Corrupts the staged artifact of `fn_name` per `fault` and re-runs the
// matching checker. Returns the number of findings (0 = the fault went
// UNDETECTED), or -1 when the fault cannot be applied to this program.
int InjectAndVerify(ag::core::AutoGraph& agc, const std::string& context,
                    const std::string& fn_name, const std::string& fault) {
  const size_t num_params =
      agc.GetGlobal(fn_name).AsFunction()->params.size();
  std::vector<ag::core::StageArg> args;
  for (size_t i = 0; i < num_params; ++i) {
    args.push_back(
        ag::core::StageArg::Placeholder("arg" + std::to_string(i)));
  }
  ag::core::StagedFunction staged = agc.Stage(fn_name, args);

  auto report = [&](const std::vector<ag::verify::VerifyDiagnostic>& f) {
    for (const ag::verify::VerifyDiagnostic& d : f) {
      std::cout << context << " [inject=" << fault << "]: " << d.str()
                << "\n";
    }
    return static_cast<int>(f.size());
  };

  if (fault == "pending" || fault == "chain" || fault == "move") {
    Plan plan =
        staged.session->CompilePlan(staged.fetches, /*allow_args=*/false);
    ag::verify::PlanVerifyOptions popts;
    popts.allow_args = false;
    if (fault == "pending") {
      if (plan.steps.empty()) return -1;
      ++plan.steps.back().pending_init;
    } else if (fault == "chain") {
      // Unlink the chain edge between the first two stateful steps —
      // and rebalance the pending count so only AGV204/AGV214 fire.
      int first = -1;
      int second = -1;
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        if (!ag::verify::PlanStepIsStateful(plan.steps[i])) continue;
        if (first < 0) {
          first = static_cast<int>(i);
        } else {
          second = static_cast<int>(i);
          break;
        }
      }
      if (second < 0) return -1;  // needs two stateful steps
      std::vector<int>& succ =
          plan.steps[static_cast<size_t>(first)].successors;
      auto it = std::find(succ.begin(), succ.end(), second);
      if (it == succ.end()) return -1;
      succ.erase(it);
      --plan.steps[static_cast<size_t>(second)].pending_init;
    } else {  // move
      // Flag the first reference of a multi-consumer slot kMoveAlways.
      std::map<std::pair<int, int>, int> ref_count;
      for (const Plan::Step& s : plan.steps) {
        for (const Plan::InputRef& r : s.inputs) {
          if (r.step >= 0) ++ref_count[{r.step, r.output}];
        }
      }
      bool done = false;
      for (Plan::Step& s : plan.steps) {
        for (size_t j = 0; j < s.inputs.size() && !done; ++j) {
          const Plan::InputRef& r = s.inputs[j];
          if (r.step >= 0 && ref_count[{r.step, r.output}] > 1) {
            s.input_move[j] = Plan::kMoveAlways;
            done = true;
          }
        }
        if (done) break;
      }
      if (!done) return -1;  // every edge is already sole-consumer
    }
    return report(ag::verify::VerifyPlan(plan, popts));
  }

  if (fault == "capture") {
    for (const auto& n : staged.graph->nodes()) {
      for (const auto& [key, value] : n->attrs()) {
        const auto* sub =
            std::get_if<std::shared_ptr<ag::graph::Graph>>(&value);
        if (sub == nullptr || *sub == nullptr) continue;
        auto* fg = dynamic_cast<ag::graph::FuncGraph*>(sub->get());
        if (fg == nullptr || fg->captures.empty()) continue;
        fg->captures.pop_back();
        return report(ag::verify::VerifyGraph(*staged.graph));
      }
    }
    return -1;  // no captured subgraph to corrupt
  }

  if (fault == "dtype") {
    for (const auto& n : staged.graph->nodes()) {
      if (!ag::graph::InferredDtypeIsAuthoritative(n->op())) continue;
      n->set_output_dtype(0, n->output_dtype(0) == ag::DType::kBool
                                 ? ag::DType::kFloat32
                                 : ag::DType::kBool);
      return report(ag::verify::VerifyGraph(*staged.graph));
    }
    return -1;  // no node with a semantics-fixed dtype
  }

  std::cerr << "agverify: unknown --inject fault '" << fault << "'\n";
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fn_name;
  std::string inject;
  ag::PipelineSpec pipeline;
  bool quiet = false;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg.rfind("--fn=", 0) == 0) {
      fn_name = arg.substr(5);
    } else if (arg.rfind("--passes=", 0) == 0) {
      try {
        pipeline = ag::PipelineSpec::Parse(arg.substr(9));
        // Validate names against the pass table now so a typo is a
        // usage error (2), not a per-file verification failure.
        ag::graph::CheckGraphPipeline(pipeline);
      } catch (const ag::Error& e) {
        std::cerr << "agverify: " << e.what() << "\n";
        return 2;
      }
    } else if (arg.rfind("--inject=", 0) == 0) {
      inject = arg.substr(9);
    } else if (arg == "-q") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "agverify: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    PrintUsage();
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(input)) {
        if (entry.is_regular_file() && entry.path().extension() == ".pym") {
          files.push_back(entry.path());
        }
      }
    } else if (fs::exists(input, ec)) {
      files.push_back(input);
    } else {
      std::cerr << "agverify: no such file or directory: " << input.string()
                << "\n";
      return 2;
    }
  }

  Counters counters;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "agverify: cannot read " << path.string() << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();
    ++counters.files;

    try {
      std::vector<std::string> names;
      if (fn_name.empty()) {
        names = TopLevelFunctions(ag::lang::ParseStr(source, path.string()));
      } else {
        names.push_back(fn_name);
      }
      if (names.empty()) {
        std::cerr << "agverify: no function definitions in "
                  << path.string() << "\n";
        return 2;
      }

      ag::core::AutoGraph agc;
      agc.LoadSource(source, path.string());

      if (!inject.empty()) {
        const std::string context = path.string() + ": " + names.front();
        const int found = InjectAndVerify(agc, context, names.front(),
                                          inject);
        if (found < 0) {
          std::cerr << "agverify: cannot apply --inject=" << inject
                    << " to " << context << "\n";
          return 2;
        }
        if (found == 0) {
          std::cerr << "agverify: injected fault '" << inject
                    << "' was NOT detected — verifier gap\n";
          return 2;
        }
        std::cerr << "agverify: inject=" << inject << " detected ("
                  << found << " finding(s))\n";
        return 1;  // findings present, as the seeded-broken gate expects
      }

      for (const std::string& name : names) {
        VerifyFunction(agc, path.string() + ": " + name, name, pipeline,
                       quiet, &counters);
      }
    } catch (const ag::Error& e) {
      std::cerr << path.string() << ": " << e.what() << "\n";
      ++counters.findings;
    }
  }

  std::cerr << "agverify: " << counters.files << " file(s), "
            << counters.functions << " function(s) verified, "
            << counters.skipped << " skipped, " << counters.findings
            << " finding(s)\n";
  return counters.findings > 0 ? 1 : 0;
}
