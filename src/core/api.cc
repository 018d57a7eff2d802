#include "core/api.h"

#include <optional>
#include <sstream>

#include "core/operators.h"
#include "runtime/cancellation.h"
#include "tensor/simd/dispatch.h"

namespace ag::core {

namespace {

// Shared tail of both StagedFunction::Run overloads: executes the
// session with the prepared feed map, merging per-run metadata into the
// function's cumulative record and the caller's (when instrumented).
std::vector<exec::RuntimeValue> RunStaged(
    StagedFunction& fn, const std::map<std::string, exec::RuntimeValue>& feeds,
    const obs::RunOptions* options, obs::RunMetadata* run_metadata) {
  fn.metadata.runs += 1;  // cheap cumulative counter, even untraced
  if (options == nullptr) {
    return fn.session->Run(feeds, fn.fetches);
  }
  if (!options->enabled()) {
    // Uninstrumented is not bare: the documented parallel-but-unprofiled
    // config (step_stats=false) still carries threading knobs and the
    // interruption contract (deadline/cancel/max_while_iterations), so
    // the options must reach the session even with no metadata to merge.
    return fn.session->Run(feeds, fn.fetches, options, /*metadata=*/nullptr);
  }
  obs::RunMetadata local;
  // Merge even when the session throws: an interrupted (cancelled or
  // deadline-exceeded) run records its outcome in `local` on the way out,
  // and dropping it would hide the interrupt from the caller's metadata.
  const auto merge = [&] {
    local.runs = 0;  // already counted above
    fn.metadata.Merge(local);
    if (run_metadata != nullptr) {
      local.runs = 1;
      run_metadata->Merge(local);
    }
  };
  std::vector<exec::RuntimeValue> out;
  try {
    out = fn.session->Run(feeds, fn.fetches, options, &local);
  } catch (...) {
    merge();
    throw;
  }
  merge();
  return out;
}

}  // namespace

std::vector<exec::RuntimeValue> StagedFunction::Run(
    const std::vector<exec::RuntimeValue>& feeds,
    const obs::RunOptions* options, obs::RunMetadata* run_metadata) {
  if (feeds.size() != feed_names.size()) {
    throw ValueError("StagedFunction::Run: expected " +
                     std::to_string(feed_names.size()) + " feeds, got " +
                     std::to_string(feeds.size()));
  }
  std::map<std::string, exec::RuntimeValue> feed_map;
  for (size_t i = 0; i < feeds.size(); ++i) {
    feed_map.emplace(feed_names[i], feeds[i]);
  }
  return RunStaged(*this, feed_map, options, run_metadata);
}

std::vector<exec::RuntimeValue> StagedFunction::Run(
    const std::map<std::string, exec::RuntimeValue>& feeds,
    const obs::RunOptions* options, obs::RunMetadata* run_metadata) {
  if (feeds.size() != feed_names.size()) {
    throw ValueError("StagedFunction::Run: expected " +
                     std::to_string(feed_names.size()) + " feeds, got " +
                     std::to_string(feeds.size()));
  }
  for (const std::string& name : feed_names) {
    if (feeds.count(name) == 0) {
      throw ValueError("StagedFunction::Run: missing feed '" + name + "'");
    }
  }
  return RunStaged(*this, feeds, options, run_metadata);
}

Tensor StagedFunction::Run1(const std::vector<exec::RuntimeValue>& feeds,
                            const obs::RunOptions* options,
                            obs::RunMetadata* run_metadata) {
  std::vector<exec::RuntimeValue> out = Run(feeds, options, run_metadata);
  if (out.size() != 1) {
    throw ValueError("Run1 used on a function with " +
                     std::to_string(out.size()) + " outputs");
  }
  return exec::AsTensor(out[0]);
}

std::string StagedFunction::DebugString() const {
  std::ostringstream os;
  os << "StagedFunction: feeds=" << feed_names.size()
     << " fetches=" << fetches.size() << "\n"
     << optimize_stats.DebugString() << "\n";
  if (session != nullptr) os << session->stats().DebugString() << "\n";
  os << metadata.DebugString();
  return os.str();
}

std::string CacheStats::DebugString() const {
  std::ostringstream os;
  os << "CacheStats: hits=" << hits << " misses=" << misses
     << " traces=" << traces;
  return os.str();
}

std::vector<exec::RuntimeValue> PolymorphicFunction::operator()(
    const std::vector<exec::RuntimeValue>& args,
    const obs::RunOptions* options, obs::RunMetadata* run_metadata) {
  std::string signature;
  for (const exec::RuntimeValue& a : args) {
    if (exec::IsTensor(a)) {
      signature += DTypeName(exec::AsTensor(a).dtype());
      signature += ",";
    } else {
      signature += "list,";
    }
  }
  auto it = traces_.find(signature);
  if (it == traces_.end()) {
    ++cache_stats_.misses;
    std::vector<StageArg> stage_args;
    stage_args.reserve(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      const DType dtype = exec::IsTensor(args[i])
                              ? exec::AsTensor(args[i]).dtype()
                              : DType::kFloat32;
      stage_args.push_back(
          StageArg::Placeholder("arg" + std::to_string(i), dtype));
    }
    it = traces_
             .emplace(signature, owner_->Stage(fn_name_, stage_args))
             .first;
  } else {
    ++cache_stats_.hits;
  }
  return it->second.Run(args, options, run_metadata);
}

AutoGraph::AutoGraph(Interpreter::Options options)
    : globals_(BuildGlobals()),
      interpreter_(globals_, std::move(options)) {}

void AutoGraph::LoadSource(const std::string& source,
                           const std::string& filename) {
  lang::ModulePtr module = lang::ParseStr(source, filename);
  interpreter_.ExecTopLevel(module->body, globals_);
}

Value AutoGraph::GetGlobal(const std::string& name) const {
  return globals_->Lookup(name);
}

void AutoGraph::SetGlobal(const std::string& name, Value value) {
  globals_->Set(name, std::move(value));
}

Value AutoGraph::CallEager(const std::string& fn_name,
                           std::vector<Value> args,
                           const obs::RunOptions* options,
                           obs::RunMetadata* run_metadata) {
  Value fn = GetGlobal(fn_name);
  // Interruption works independently of instrumentation: the installed
  // CancelCheck is polled by the interpreter's while loops and by any
  // staged/lantern call made from inside the eager function. The check
  // also carries max_while_iterations — the interpreter has no other
  // transport for the loop bound — so it is installed even when only
  // the bound is set (cancellable() false).
  std::optional<runtime::CancelCheck> cancel;
  std::optional<runtime::CancelCheckScope> cancel_scope;
  if (options != nullptr && options->interruptible()) {
    cancel.emplace(options->cancel_token, options->deadline_ms,
                   options->inject_cancel_after_kernels,
                   options->max_while_iterations, options->deadline_ns);
    cancel_scope.emplace(&*cancel);
    // Admission poll: a call whose absolute deadline already passed (or
    // whose token is already cancelled) fails before interpreting a
    // single statement.
    cancel->Poll("CallEager entry");
  }
  // RunOptions::kernel_backend applies to eager dispatch too: the
  // scope pins every tensor kernel the interpreted body calls (and is
  // inherited by staged calls made from inside it).
  std::optional<tensor::simd::KernelBackendScope> backend_scope;
  if (options != nullptr && !options->kernel_backend.empty()) {
    backend_scope.emplace(tensor::simd::ResolveBackend(
        tensor::simd::ParseKernelBackend(options->kernel_backend),
        tensor::simd::Avx2Available()));
  }
  if (options == nullptr || !options->enabled()) {
    return interpreter_.CallCallable(fn, std::move(args));
  }
  obs::Tracer tracer;
  const int64_t t0 = obs::NowNs();
  Value result;
  try {
    obs::TracerInstallScope install(&tracer);
    result = interpreter_.CallCallable(fn, std::move(args));
  } catch (const Error& e) {
    if (run_metadata != nullptr &&
        (e.kind() == ErrorKind::kCancelled ||
         e.kind() == ErrorKind::kDeadlineExceeded)) {
      const int64_t now = obs::NowNs();
      obs::RunMetadata delta;
      delta.runs = 1;
      delta.run_wall_ns = now - t0;
      delta.interrupted_runs = 1;
      delta.interrupt_kind = e.kind() == ErrorKind::kCancelled
                                 ? "cancelled"
                                 : "deadline_exceeded";
      if (cancel.has_value() && cancel->tripped_at_ns() > 0) {
        delta.unwind_ns = now - cancel->tripped_at_ns();
        delta.unwind_samples_ns.push_back(delta.unwind_ns);
      }
      run_metadata->Merge(delta);
    }
    throw;
  }
  const int64_t wall = obs::NowNs() - t0;
  if (run_metadata != nullptr) {
    obs::RunMetadata delta;
    std::vector<obs::TraceEvent> events = tracer.Take();
    if (options->step_stats) {
      obs::AggregateEvents(events, &delta.step_stats);
    }
    if (options->trace) delta.trace_events = std::move(events);
    delta.phase_ns["run"] = wall;
    delta.runs = 1;
    delta.run_wall_ns = wall;
    run_metadata->Merge(delta);
  }
  return result;
}

std::vector<analysis::Diagnostic> AutoGraph::Lint(
    const std::string& fn_name,
    const analysis::LintOptions& options) const {
  Value fn = GetGlobal(fn_name);
  FunctionPtr f = fn.AsFunction();
  if (!f->def_node) {
    throw ValueError("Lint: '" + fn_name + "' has no source definition");
  }
  return analysis::LintFunction(f->def_node, options);
}

std::string AutoGraph::ConvertedSource(const std::string& fn_name,
                                       lang::SourceMap* map) {
  Value fn = GetGlobal(fn_name);
  FunctionPtr converted = interpreter_.ConvertFunctionValue(fn.AsFunction());
  if (!converted->def_node) {
    throw ValueError("ConvertedSource: '" + fn_name +
                     "' has no source definition");
  }
  return lang::AstToSource(
      std::static_pointer_cast<lang::Stmt>(converted->def_node), map);
}

StagedFunction AutoGraph::Stage(const std::string& fn_name,
                                const std::vector<StageArg>& args,
                                const StageOptions& options) {
  return Stage(GetGlobal(fn_name), args, options);
}

StagedFunction AutoGraph::Stage(const Value& fn,
                                const std::vector<StageArg>& args,
                                const StageOptions& options) {
  int64_t t = obs::NowNs();
  FunctionPtr converted = interpreter_.ConvertFunctionValue(fn.AsFunction());

  StagedFunction out;
  out.metadata.phase_ns["convert"] = obs::NowNs() - t;
  out.graph = std::make_shared<graph::Graph>();
  graph::GraphContext ctx(out.graph.get());

  graph::GraphContext* prev_ctx = interpreter_.graph_ctx();
  interpreter_.set_graph_ctx(&ctx);

  t = obs::NowNs();
  try {
    // Bind parameters: placeholders feed at run time; constants bake in.
    std::vector<Value> call_args;
    call_args.reserve(args.size());
    for (const StageArg& a : args) {
      if (a.is_placeholder) {
        graph::Output ph = graph::Placeholder(ctx, a.name, a.dtype);
        out.feed_names.push_back(a.name);
        call_args.emplace_back(ph);
      } else {
        call_args.push_back(a.value);
      }
    }

    // Trace: interpret the converted function over symbolic values.
    Value result = interpreter_.CallFunctionValue(converted,
                                                  std::move(call_args));
    std::vector<bool> shape;
    out.fetches = ops::FlattenToOutputs(interpreter_, result, &shape);
    out.fetch_was_tuple = shape[0];
  } catch (...) {
    interpreter_.set_graph_ctx(prev_ctx);
    throw;
  }
  interpreter_.set_graph_ctx(prev_ctx);
  out.metadata.phase_ns["trace"] = obs::NowNs() - t;

  if (options.optimize) {
    t = obs::NowNs();
    out.optimize_stats =
        graph::Optimize(out.graph.get(), &out.fetches,
                        &exec::EvaluatePureNode, options.optimize_options);
    out.metadata.phase_ns["optimize"] = obs::NowNs() - t;
    // With OptimizeOptions::verify_each_pass (AG_VERIFY_EACH_PASS=1),
    // a pass that broke a graph invariant must not reach execution:
    // the staged function would silently compute the wrong thing.
    if (!out.optimize_stats.broken_pass.empty()) {
      throw InternalError("optimization pass '" +
                          out.optimize_stats.broken_pass +
                          "' broke a graph invariant: " +
                          out.optimize_stats.broken_finding);
    }
  }
  out.session = std::make_unique<exec::Session>(out.graph.get());
  return out;
}

}  // namespace ag::core
