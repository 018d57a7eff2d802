// Public AutoGraph-C++ API (the `@ag.convert()` / tf.function analog).
//
// Typical use:
//
//   ag::core::AutoGraph agc;
//   agc.LoadSource(R"(
//     def f(x):
//       if x > 0:
//         x = x * x
//       return x
//   )");
//
//   // Eager execution (imperative semantics, per-op dispatch):
//   Value y = agc.CallEager("f", {Value(Tensor::Scalar(3.f))});
//
//   // Staged execution (conversion + graph build + Session):
//   StagedFunction sf = agc.Stage("f", {StageArg::Placeholder("x")});
//   Tensor out = sf.Run1({Tensor::Scalar(3.f)});
//
// The staged path amortizes all conversion and interpretation cost: Run()
// only executes graph kernels.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "core/interpreter.h"
#include "core/modules.h"
#include "exec/session.h"
#include "graph/optimize.h"
#include "lang/parser.h"
#include "lang/unparser.h"
#include "obs/run_metadata.h"

namespace ag::core {

// How one function parameter is bound when staging.
struct StageArg {
  // A graph Placeholder fed at Run() time.
  static StageArg Placeholder(std::string name,
                              DType dtype = DType::kFloat32) {
    StageArg a;
    a.is_placeholder = true;
    a.name = std::move(name);
    a.dtype = dtype;
    return a;
  }
  // A fixed value baked into the trace (hyperparameters, functions,
  // objects, eager tensors -> constants).
  static StageArg Constant(Value v) {
    StageArg a;
    a.value = std::move(v);
    return a;
  }

  bool is_placeholder = false;
  std::string name;
  DType dtype = DType::kFloat32;
  Value value;
};

// Options for AutoGraph::Stage().
struct StageOptions {
  // When false, the traced graph is executed as-is (no graph passes).
  bool optimize = true;
  // Forwarded to graph::Optimize: pass-pipeline spec (e.g.
  // PipelineSpec::Parse("licm,cse,-dce")) and per-pass verification.
  graph::OptimizeOptions optimize_options;
};

// A converted, staged, ready-to-run function: graph + session.
//
// Run() accepts feeds either positionally (in feed_names order) or
// name-keyed — the unified Run surface shared with exec::Session — and
// takes optional trailing RunOptions/RunMetadata for per-op profiling.
struct StagedFunction {
  std::shared_ptr<graph::Graph> graph;
  std::vector<graph::Output> fetches;
  bool fetch_was_tuple = false;
  std::vector<std::string> feed_names;  // placeholder order for Run()
  std::unique_ptr<exec::Session> session;
  graph::OptimizeStats optimize_stats;
  // Cumulative observability record: staging phase timings (convert /
  // trace / optimize) plus every instrumented Run() merged in.
  obs::RunMetadata metadata;

  // One graph execution (one "Session.run call" in the paper's terms).
  // Feeds are positional, bound in feed_names order.
  std::vector<exec::RuntimeValue> Run(
      const std::vector<exec::RuntimeValue>& feeds,
      const obs::RunOptions* options = nullptr,
      obs::RunMetadata* run_metadata = nullptr);
  // Name-keyed overload (any order; names must match feed_names).
  std::vector<exec::RuntimeValue> Run(
      const std::map<std::string, exec::RuntimeValue>& feeds,
      const obs::RunOptions* options = nullptr,
      obs::RunMetadata* run_metadata = nullptr);
  // Single-fetch convenience.
  Tensor Run1(const std::vector<exec::RuntimeValue>& feeds,
              const obs::RunOptions* options = nullptr,
              obs::RunMetadata* run_metadata = nullptr);

  // Staging + optimization + cumulative run profile, human-readable.
  [[nodiscard]] std::string DebugString() const;
};

// The tf.function analog: a polymorphic staged callable that retraces
// per argument *signature* (dtype of each tensor argument) and caches one
// StagedFunction per signature — calling with a new dtype combination
// triggers one conversion+trace; subsequent calls reuse the graph.
class AutoGraph;

// Trace-cache statistics for a PolymorphicFunction.
struct CacheStats {
  int64_t hits = 0;    // calls served by a cached trace
  int64_t misses = 0;  // calls that triggered a conversion+trace
  size_t traces = 0;   // live cached signatures

  [[nodiscard]] std::string DebugString() const;
};

class PolymorphicFunction {
 public:
  PolymorphicFunction(AutoGraph* owner, std::string fn_name)
      : owner_(owner), fn_name_(std::move(fn_name)) {}

  // Executes with concrete values, tracing on a signature miss.
  std::vector<exec::RuntimeValue> operator()(
      const std::vector<exec::RuntimeValue>& args,
      const obs::RunOptions* options = nullptr,
      obs::RunMetadata* run_metadata = nullptr);

  [[nodiscard]] CacheStats cache_stats() const {
    CacheStats s = cache_stats_;
    s.traces = traces_.size();
    return s;
  }
  [[nodiscard]] std::string DebugString() const {
    return cache_stats().DebugString();
  }

 private:
  AutoGraph* owner_;
  std::string fn_name_;
  std::map<std::string, StagedFunction> traces_;
  CacheStats cache_stats_;
};

// Facade bundling globals + interpreter + source management.
class AutoGraph {
 public:
  explicit AutoGraph(Interpreter::Options options = {});
  // Top-level `def`s bind functions whose closure is the globals Env
  // itself — a shared_ptr cycle refcounting cannot free. Breaking it
  // here keeps every AutoGraph usage LeakSanitizer-clean.
  ~AutoGraph() { globals_->ClearBindings(); }
  AutoGraph(const AutoGraph&) = delete;
  AutoGraph& operator=(const AutoGraph&) = delete;

  // Parses PyMini source and binds its top-level functions (unconverted)
  // and assignments in the globals.
  void LoadSource(const std::string& source,
                  const std::string& filename = "<string>");

  [[nodiscard]] Value GetGlobal(const std::string& name) const;
  void SetGlobal(const std::string& name, Value value);

  // Eager (imperative) call of a loaded function. With RunOptions that
  // enable tracing, per-op dispatch events from the eager interpreter
  // (native tf.* calls, overloaded operators) are collected into
  // `run_metadata` — making the paper's eager-vs-staged overhead
  // directly visible in one trace format.
  Value CallEager(const std::string& fn_name, std::vector<Value> args,
                  const obs::RunOptions* options = nullptr,
                  obs::RunMetadata* run_metadata = nullptr);

  // Converts a function and returns the converted PyMini source (the
  // paper's "generated code can be inspected" property).
  [[nodiscard]] std::string ConvertedSource(const std::string& fn_name,
                                            lang::SourceMap* map = nullptr);

  // Runs the aglint staging-safety diagnostics over a loaded function
  // without converting it (see analysis/lint.h for the codes).
  [[nodiscard]] std::vector<analysis::Diagnostic> Lint(
      const std::string& fn_name,
      const analysis::LintOptions& options = {}) const;

  // Converts + traces + optimizes + builds a Session.
  [[nodiscard]] StagedFunction Stage(const std::string& fn_name,
                                     const std::vector<StageArg>& args,
                                     const StageOptions& options = {});
  [[nodiscard]] StagedFunction Stage(const Value& fn,
                                     const std::vector<StageArg>& args,
                                     const StageOptions& options = {});

  // tf.function analog over all-tensor arguments (see
  // PolymorphicFunction).
  [[nodiscard]] PolymorphicFunction Function(const std::string& fn_name) {
    return PolymorphicFunction(this, fn_name);
  }

  [[nodiscard]] Interpreter& interpreter() { return interpreter_; }
  [[nodiscard]] const EnvPtr& globals() const { return globals_; }

 private:
  EnvPtr globals_;
  Interpreter interpreter_;
};

}  // namespace ag::core
