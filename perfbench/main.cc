// agbench — the repository benchmark.
//
//   agbench --workload <beam_decode|rnn_serve|cold_start_pym|cold_start_agc>
//           --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs bound to one CPU (see PinToOneCpu). Prints a human-readable
// report, then an `info` line (machine, build, seed, tail sample count,
// traced breakdown) and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the five end-to-end ones; with
// --trace 1 they are every per-layer metric (0 for a layer the workload
// does not reach). See perfbench/README.md for what each one means.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "harness.h"

namespace agbench {
namespace {

// Every per-layer metric a traced run prints, with its unit.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"lang.parse_us", "us"},
    {"transforms.convert_us", "us"},
    {"analysis.reaching_defs_us", "us"},
    {"core.trace_us", "us"},
    {"graph.optimize_us", "us"},
    {"graph.nodes_out", "count"},
    {"exec.first_run_us", "us"},
    {"exec.plans_compiled", "count"},
    {"artifact.read_us", "us"},
    {"artifact.decode_us", "us"},
    {"artifact.crc_us", "us"},
    {"verify.load_us", "us"},
    {"artifact.install_us", "us"},
    {"artifact.load_allocs", "count"},
    {"exec.run_us", "us"},
    {"exec.kernels_per_run", "count"},
    {"exec.while_iters_per_run", "count"},
    {"exec.kernel_us.LogSoftmax", "us"},
    {"exec.kernel_us.MatMul", "us"},
    {"exec.kernel_us.Add", "us"},
    {"exec.kernel_us.TopK", "us"},
    {"exec.kernel_us.FusedElementwise", "us"},
    {"exec.kernel_us.other", "us"},
    {"exec.unattributed_us", "us"},
    {"tensor.allocs_per_run", "count"},
    {"tensor.pool_hit_ratio", "ratio"},
    {"serve.roundtrip_us", "us"},
    {"serve.core_call_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.engine_us", "us"},
    {"serve.batch_size_mean", "requests"},
    {"serve.batched_share", "ratio"},
    {"serve.failed", "count"},
    {"serve.rejected_full", "count"},
    {"tensor.retained_mb", "MiB"},
    {"tensor.peak_live_mb", "MiB"},
    {"tensor.allocs_per_request", "count"},
    {"unattributed_us", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "agbench: %s\nusage: agbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               message);
  return 2;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

void Print(const Args& args, RunResult& result) {
  if (args.trace) {
    // A layer the workload never reaches did no work per op.
    for (const auto& [name, unit] : kPerLayer) {
      if (result.metrics.count(name) == 0) result.Set(name, 0.0, unit);
    }
  }
  for (const auto& [name, m] : result.metrics) {
    std::printf("%-34s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  result.info["workload"] = Quote(args.workload);
  result.info["seed"] = JsonNumber(static_cast<double>(args.seed));
  result.info["seconds"] = JsonNumber(args.seconds);
  result.info["trace"] = args.trace ? "true" : "false";
  std::string info;
  for (const auto& [key, json] : result.info) {
    info += (info.empty() ? "" : ", ") + Quote(key) + ": " + json;
  }
  std::printf("info {%s}\n", info.c_str());

  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + Quote(name) + ": {\"value\": " +
               JsonNumber(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  const bool correct = result.checks_ok && result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
}

}  // namespace
}  // namespace agbench

int main(int argc, char** argv) {
  using namespace agbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "beam_decode") run = RunBeamDecode;
  if (args.workload == "rnn_serve") run = RunRnnServe;
  if (args.workload == "cold_start_pym") run = RunColdStartPym;
  if (args.workload == "cold_start_agc") run = RunColdStartAgc;
  if (run == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());

  const int cpu = PinToOneCpu();
  try {
    RunResult result = run(args);
    result.info["pinned_cpu"] = JsonNumber(cpu);
    RecordMachineInfo(&result);
    Print(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
