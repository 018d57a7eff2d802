// agprof — stage a PyMini function and profile its graph execution.
//
// Usage:
//   agprof [--fn=NAME] [--runs=N] [--feeds=v1,v2,...] [--passes=SPEC]
//          [--deadline-ms=N] [--trace-out=FILE] [--eager]
//          [--alloc-stats] <file.pym>
//
// The file is loaded, the chosen function (default: the first function
// defined in the file) is staged with one float32 placeholder per
// parameter, and run N times with step stats and tracing enabled. The
// cumulative per-op wall-time table is printed, and --trace-out writes
// a Chrome trace-event JSON viewable in chrome://tracing or Perfetto.
// --eager additionally profiles the unstaged (imperative) path for the
// same feeds, making the paper's eager-vs-staged overhead visible.
// --deadline-ms bounds each profiled Run(); a function that loops
// forever exits with status 1 and a DeadlineExceededError instead of
// hanging the tool. When any profiled run was interrupted, per-run
// unwind latency percentiles (p50/p90/p99/max) are reported.
// --alloc-stats prints the buffer-pool section: fresh allocations,
// pool hits and hit rate, peak live bytes, and current retained bytes.
// --passes selects the graph optimization pipeline (same grammar
// everywhere: "licm,cse,-dce", "-fusion", "default,-fusion"); the
// per-pass section of the report shows exactly the passes that ran, so
// A/B profiling a pass is `agprof --passes=default` vs
// `agprof --passes=-fusion`.
//
// Exit status: 0 on success, 1 on execution failure, 2 on usage / IO
// problems.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "graph/optimize.h"
#include "lang/parser.h"
#include "obs/chrome_trace.h"
#include "obs/run_metadata.h"
#include "support/strings.h"
#include "tensor/allocator.h"

namespace {

constexpr std::string_view kTool = "agprof";
using ag::ParseFeeds;
using ag::ParseIntFlag;

void PrintUsage() {
  std::cerr << "usage: agprof [--fn=NAME] [--runs=N] [--feeds=v1,v2,...]\n"
               "              [--passes=SPEC] [--deadline-ms=N] "
               "[--trace-out=FILE]\n"
               "              [--eager] <file.pym>\n"
               "  --fn=NAME        function to profile (default: first "
               "def in the file)\n"
               "  --passes=SPEC    graph pass pipeline spec (e.g. "
               "--passes=-fusion\n"
               "                   or --passes=licm,cse,-dce); default: "
               "full pipeline\n"
               "  --runs=N         number of instrumented Run() calls "
               "(default 10)\n"
               "  --feeds=v1,...   scalar float feed per parameter "
               "(default: 1.0 each)\n"
               "  --deadline-ms=N  per-Run() wall-clock budget; a run "
               "that exceeds it\n"
               "                   fails with DeadlineExceededError "
               "instead of hanging\n"
               "  --trace-out=FILE write Chrome trace-event JSON\n"
               "  --eager          also profile the eager (unstaged) "
               "path\n"
               "  --alloc-stats    print buffer-pool allocator counters\n";
}

// Nearest-rank percentile over the (sorted) samples.
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Unwind latency distribution over every interrupted run merged into
// `meta` — how fast cancelled/timed-out runs let go of the engine.
void PrintUnwindPercentiles(const ag::obs::RunMetadata& meta) {
  if (meta.unwind_samples_ns.empty()) return;
  std::vector<int64_t> sorted = meta.unwind_samples_ns;
  std::sort(sorted.begin(), sorted.end());
  std::cout << "unwind latency over " << sorted.size()
            << " interrupted run(s), us: p50="
            << Percentile(sorted, 50) / 1000
            << " p90=" << Percentile(sorted, 90) / 1000
            << " p99=" << Percentile(sorted, 99) / 1000
            << " max=" << sorted.back() / 1000 << "\n";
}

void PrintAllocStats(const ag::obs::RunMetadata& meta) {
  const int64_t requests = meta.alloc_count + meta.pool_hit_count;
  const ag::tensor::PoolStats pool = ag::tensor::BufferPool::Global().stats();
  std::cout << "== alloc stats (buffer pool) ==\n"
            << "fresh_allocs=" << meta.alloc_count << " alloc_bytes="
            << meta.alloc_bytes << "\n"
            << "pool_hits=" << meta.pool_hit_count << " hit_rate="
            << (requests > 0
                    ? (100 * meta.pool_hit_count + requests / 2) / requests
                    : 0)
            << "%\n"
            << "process peak: peak_live_bytes=" << pool.peak_live_bytes
            << " retained_bytes=" << pool.retained_bytes << "\n";
}

// First function defined at the top level of the module.
std::string FirstFunctionName(const ag::lang::ModulePtr& module) {
  for (const ag::lang::StmtPtr& stmt : module->body) {
    if (stmt->kind == ag::lang::StmtKind::kFunctionDef) {
      return ag::lang::Cast<ag::lang::FunctionDefStmt>(stmt)->name;
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string fn_name;
  std::string trace_out;
  std::string feeds_spec;
  std::string path;
  ag::core::StageOptions stage_options;
  int64_t runs = 10;
  int64_t deadline_ms = 0;
  bool eager = false;
  bool alloc_stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg.rfind("--fn=", 0) == 0) {
      fn_name = arg.substr(5);
    } else if (arg.rfind("--runs=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--runs", arg.substr(7), 1, &runs)) {
        PrintUsage();
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--deadline-ms", arg.substr(14), 1,
                        &deadline_ms)) {
        PrintUsage();
        return 2;
      }
    } else if (arg.rfind("--passes=", 0) == 0) {
      try {
        stage_options.optimize_options.pipeline =
            ag::PipelineSpec::Parse(arg.substr(9));
        // Validate names against the pass table now so a typo is a
        // usage error (2), not a per-file staging failure.
        ag::graph::CheckGraphPipeline(
            stage_options.optimize_options.pipeline);
      } catch (const ag::Error& e) {
        std::cerr << "agprof: " << e.what() << "\n";
        return 2;
      }
    } else if (arg.rfind("--feeds=", 0) == 0) {
      feeds_spec = arg.substr(8);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--eager") {
      eager = true;
    } else if (arg == "--alloc-stats") {
      alloc_stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "agprof: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "agprof: more than one input file\n";
      return 2;
    }
  }
  if (path.empty()) {
    PrintUsage();
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "agprof: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  ag::obs::RunMetadata meta;
  try {
    if (fn_name.empty()) {
      fn_name = FirstFunctionName(ag::lang::ParseStr(source, path));
      if (fn_name.empty()) {
        std::cerr << "agprof: no function definitions in " << path << "\n";
        return 2;
      }
    }

    ag::core::AutoGraph agc;
    agc.LoadSource(source, path);

    const size_t num_params =
        agc.GetGlobal(fn_name).AsFunction()->params.size();
    std::vector<float> feed_values(num_params, 1.0f);
    if (!feeds_spec.empty()) {
      if (!ParseFeeds(kTool, feeds_spec, &feed_values)) {
        PrintUsage();
        return 2;
      }
      if (feed_values.size() != num_params) {
        std::cerr << "agprof: " << fn_name << " takes " << num_params
                  << " parameter(s) but --feeds gave "
                  << feed_values.size() << "\n";
        return 2;
      }
    }

    std::vector<ag::core::StageArg> stage_args;
    std::vector<ag::exec::RuntimeValue> feeds;
    for (size_t i = 0; i < num_params; ++i) {
      stage_args.push_back(ag::core::StageArg::Placeholder(
          "arg" + std::to_string(i)));
      feeds.emplace_back(ag::Tensor::Scalar(feed_values[i]));
    }

    ag::core::StagedFunction staged =
        agc.Stage(fn_name, stage_args, stage_options);

    ag::obs::RunOptions options;
    options.trace = true;
    options.step_stats = true;
    options.deadline_ms = deadline_ms;  // 0 = unbounded
    for (int64_t i = 0; i < runs; ++i) {
      (void)staged.Run(feeds, &options, &meta);
    }

    std::cout << "== agprof: " << fn_name << " (" << path << "), staged, "
              << runs << " run(s) ==\n"
              << staged.optimize_stats.DebugString() << "\n"
              << meta.DebugString();
    PrintUnwindPercentiles(meta);

    if (eager) {
      ag::obs::RunMetadata eager_meta;
      for (int64_t i = 0; i < runs; ++i) {
        std::vector<ag::core::Value> args;
        for (float v : feed_values) {
          args.emplace_back(ag::Tensor::Scalar(v));
        }
        (void)agc.CallEager(fn_name, std::move(args), &options, &eager_meta);
      }
      std::cout << "\n== agprof: " << fn_name << ", eager, " << runs
                << " run(s) ==\n"
                << eager_meta.DebugString();
      meta.Merge(eager_meta);
    }

    if (alloc_stats) PrintAllocStats(meta);

    if (!trace_out.empty()) {
      const std::string json = ag::obs::ToChromeTraceJson(meta);
      std::string error;
      int num_events = 0;
      if (!ag::obs::ValidateChromeTraceJson(json, &error, &num_events)) {
        std::cerr << "agprof: internal error: exported trace does not "
                     "validate: " << error << "\n";
        return 1;
      }
      std::ofstream out(trace_out);
      if (!out) {
        std::cerr << "agprof: cannot write " << trace_out << "\n";
        return 2;
      }
      out << json;
      std::cout << "\nwrote " << trace_out << " (" << num_events
                << " events)\n";
    }
  } catch (const ag::Error& e) {
    std::cerr << "agprof: " << e.what() << "\n";
    // An interrupted profile still reports what it measured — notably
    // the unwind latency of the run(s) that died.
    PrintUnwindPercentiles(meta);
    if (alloc_stats) PrintAllocStats(meta);
    return 1;
  }
  return 0;
}
