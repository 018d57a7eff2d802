// cold_start_pym and cold_start_agc: one process start to its first
// result, from source or from the compiled artifact, on the same module
// (the RNN pair, beam_search and a generated 32-block function).
//
//   cold_start_pym  fresh AutoGraph: LoadSource, bind globals, stage all
//                   four functions, first dynamic_rnn Run.
//   cold_start_agc  StageFromArtifact of the module's .agc, first
//                   dynamic_rnn Run.
//
// Both first results must equal the .pym-staged reference bit for bit.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/reaching_definitions.h"
#include "core/artifact_io.h"
#include "harness.h"
#include "inputs.h"
#include "lang/parser.h"
#include "tensor/allocator.h"
#include "tensor/tensor_ops.h"

namespace agbench {
namespace {

using ag::Tensor;
using ag::core::AutoGraph;
using ag::core::StagedFunction;
using ag::exec::RuntimeValue;

constexpr int kWarmupOps = 5;

double UsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-3; }

std::vector<RuntimeValue> AsFeeds(const std::vector<Tensor>& t) {
  return {t.begin(), t.end()};
}

// A started module, kept alive until the op's clock has stopped so its
// teardown is not measured.
struct Started {
  std::unique_ptr<AutoGraph> agc;
  std::vector<std::pair<std::string, StagedFunction>> fns;
  std::map<std::string, StagedFunction> loaded;
  std::vector<RuntimeValue> out;
  double wall_us = 0.0;  // the start itself, without traced extras
};

bool SameAsReference(const std::vector<RuntimeValue>& out,
                     const std::vector<Tensor>& ref) {
  return out.size() == ref.size() &&
         BitEqual(ag::exec::AsTensor(out[0]), ref[0]) &&
         BitEqual(ag::exec::AsTensor(out[1]), ref[1]);
}

// Parse + bind + stage everything + first Run, with per-layer times
// when `b` is non-null.
Started StartFromSource(const ColdStartModule& module, Breakdown* b) {
  Started s;
  const int64_t t0 = NowNs();
  s.agc = std::make_unique<AutoGraph>();
  int64_t t = NowNs();
  s.agc->LoadSource(module.source, "cold_start.pym");
  if (b != nullptr) b->rows["lang.parse_us"] = UsSince(t);
  InstallModuleGlobals(*s.agc, module);
  s.fns = StageModule(*s.agc);
  StagedFunction& rnn = s.fns[1].second;
  t = NowNs();
  s.out = rnn.Run(AsFeeds(module.first_feeds));
  s.wall_us = UsSince(t0);
  if (b == nullptr) return s;
  b->rows["exec.first_run_us"] = UsSince(t);
  // Staging phases as AutoGraph::Stage records them, summed over the
  // four functions.
  const std::pair<const char*, const char*> kPhases[] = {
      {"convert", "transforms.convert_us"},
      {"trace", "core.trace_us"},
      {"optimize", "graph.optimize_us"}};
  for (const auto& [phase, row] : kPhases) {
    double& us = b->rows[row];
    for (const auto& [name, fn] : s.fns) {
      auto it = fn.metadata.phase_ns.find(phase);
      if (it != fn.metadata.phase_ns.end()) us += static_cast<double>(it->second) * 1e-3;
    }
  }
  return s;
}

// The reference: the module staged from source, checked once against
// the eager interpreter.
std::vector<Tensor> Reference(const ColdStartModule& module, RunResult* result) {
  Started s = StartFromSource(module, nullptr);
  std::vector<Tensor> ref = {ag::exec::AsTensor(s.out[0]), ag::exec::AsTensor(s.out[1])};
  std::vector<ag::core::Value> args(module.first_feeds.begin(), module.first_feeds.end());
  const ag::core::Value eager = s.agc->CallEager("dynamic_rnn", std::move(args));
  const auto& elts = eager.AsTuple()->elts;
  if (!ag::AllClose(elts[0].AsTensor(), ref[0], kEagerTolerance) ||
      !ag::AllClose(elts[1].AsTensor(), ref[1], kEagerTolerance)) {
    result->checks_ok = false;
  }
  return ref;
}

void SaveModule(const ColdStartModule& module, const std::string& path) {
  Started s = StartFromSource(module, nullptr);
  std::vector<std::pair<std::string, const StagedFunction*>> fns;
  for (const auto& [name, fn] : s.fns) fns.emplace_back(name, &fn);
  ag::core::SaveArtifact(path, fns);
}

// First-run counters shared by both workloads.
void ReportFirstRun(const StagedFunction& rnn, int64_t kernels0, int64_t allocs,
                    RunResult* result) {
  result->Set("exec.kernels_per_run",
              static_cast<double>(rnn.session->stats().kernel_invocations.load() - kernels0),
              "count");
  result->Set("exec.plans_compiled",
              static_cast<double>(rnn.session->stats().plans_compiled.load()), "count");
  result->Set("tensor.allocs_per_run", static_cast<double>(allocs), "count");
}

// Timed phase shared by both workloads: `start(b)` performs one cold
// start (with per-layer rows when `b` is non-null). With --trace 1 every
// other op is traced.
void TimedPhase(const Args& args, const std::vector<Tensor>& ref,
                const std::function<Started(Breakdown*)>& start,
                SetupSampler* sampler, RunResult* result) {
  for (int i = 0; i < kWarmupOps; ++i) {
    if (!SameAsReference(start(nullptr).out, ref)) result->checks_ok = false;
  }
  Samples untraced;
  Samples traced;
  BreakdownMean breakdown;
  const std::vector<Window> windows = RunFor(args.seconds, [&](int64_t i) {
    const bool trace = args.trace && i % 2 == 1;
    Breakdown b;
    Started s = start(trace ? &b : nullptr);
    const double wall_us = s.wall_us;
    result->Count(SameAsReference(s.out, ref));
    if (!trace) {
      untraced.Add(wall_us);
      return;
    }
    traced.Add(wall_us);
    b.wall_us = wall_us;
    breakdown.Add(b);
  }, args.trace ? nullptr : sampler);
  if (!args.trace) {
    SetLatencyMetrics(untraced, windows, *sampler, result);
    return;
  }
  breakdown.Report("unattributed_us", result);
  ReportTraceOverhead(untraced, traced, result);
}

}  // namespace

RunResult RunColdStartPym(const Args& args) {
  RunResult result;
  const ColdStartModule module = MakeColdStartModule(args.seed);
  const std::vector<Tensor> ref = Reference(module, &result);
  // Set-up = building the reference (stage from source, first Run, eager
  // check), sampled across the timed phase.
  SetupSampler sampler([&] { (void)Reference(module, &result); }, [] {},
                       args.seconds / kSetupSamplesPerRun);
  TimedPhase(args, ref, [&](Breakdown* b) { return StartFromSource(module, b); },
             &sampler, &result);
  if (!args.trace) return result;
  // Exact counters and the reaching-definitions time, off the clock.
  AutoGraph agc;
  agc.LoadSource(module.source, "cold_start.pym");
  InstallModuleGlobals(agc, module);
  auto fns = StageModule(agc);
  double nodes = 0.0;
  for (const auto& [name, fn] : fns) nodes += static_cast<double>(fn.graph->num_nodes());
  result.Set("graph.nodes_out", nodes, "count");
  StagedFunction& rnn = fns[1].second;
  const int64_t kernels0 = rnn.session->stats().kernel_invocations.load();
  const int64_t allocs0 = ag::tensor::ThreadAllocCount();
  (void)rnn.Run(AsFeeds(module.first_feeds));
  ReportFirstRun(rnn, kernels0, ag::tensor::ThreadAllocCount() - allocs0, &result);
  const auto generated = ag::lang::ParseEntity(GeneratedFunctionSource(args.seed));
  Samples reaching;
  for (int i = 0; i < 50; ++i) {
    const int64_t t0 = NowNs();
    const auto cfg = ag::analysis::ControlFlowGraph::Build(generated->body, generated->params);
    const ag::analysis::ReachingDefinitions defs(cfg);
    reaching.Add(UsSince(t0));
  }
  result.Set("analysis.reaching_defs_us", reaching.Median(), "us");
  return result;
}

RunResult RunColdStartAgc(const Args& args) {
  RunResult result;
  const ColdStartModule module = MakeColdStartModule(args.seed);
  const std::string path =
      args.workdir + "/cold_start_" + std::to_string(getpid()) + ".agc";
  const std::vector<Tensor> ref = Reference(module, &result);
  SaveModule(module, path);
  // Set-up = the .pym staging + SaveArtifact that produce the file,
  // sampled across the timed phase into a second file.
  const std::string sample_path = path + ".setup";
  SetupSampler sampler([&] { SaveModule(module, sample_path); },
                       [&] { std::remove(sample_path.c_str()); },
                       args.seconds / kSetupSamplesPerRun);
  TimedPhase(
      args, ref,
      [&](Breakdown* b) {
        Started s;
        const int64_t t0 = NowNs();
        s.loaded = ag::core::StageFromArtifact(path);
        const double stage_us = UsSince(t0);
        int64_t t = NowNs();
        s.out = s.loaded.at("dynamic_rnn").Run(AsFeeds(module.first_feeds));
        s.wall_us = UsSince(t0);
        if (b != nullptr) {
          b->rows["exec.first_run_us"] = UsSince(t);
          // Reader cost from a separate ReadArtifact of the same file;
          // install is what StageFromArtifact adds on top of it.
          t = NowNs();
          (void)ag::artifact::ReadArtifact(path);
          b->rows["artifact.read_us"] = UsSince(t);
          b->rows["artifact.install_us"] = stage_us - b->rows["artifact.read_us"];
        }
        return s;
      },
      &sampler, &result);
  if (!args.trace) {
    std::remove(path.c_str());
    return result;
  }

  // The reader split into decode / CRC / verifier shares, off the clock:
  // medians of ReadArtifact with the checks switched off one by one.
  const auto read_us = [&](bool checksums, bool verify) {
    ag::artifact::ReadOptions options;
    options.verify_checksums = checksums;
    options.verify = verify;
    Samples s;
    for (int i = 0; i < 50; ++i) {
      const int64_t t0 = NowNs();
      (void)ag::artifact::ReadArtifact(path, options);
      s.Add(UsSince(t0));
    }
    return s.Median();
  };
  const double full = read_us(true, true);
  const double no_verify = read_us(true, false);
  const double decode = read_us(false, false);
  result.Set("artifact.decode_us", decode, "us");
  result.Set("artifact.crc_us", no_verify - decode, "us");
  result.Set("verify.load_us", full - no_verify, "us");

  const int64_t allocs0 = ag::tensor::ThreadAllocCount();
  auto loaded = ag::core::StageFromArtifact(path);
  result.Set("artifact.load_allocs",
             static_cast<double>(ag::tensor::ThreadAllocCount() - allocs0), "count");
  StagedFunction& rnn = loaded.at("dynamic_rnn");
  const int64_t kernels0 = rnn.session->stats().kernel_invocations.load();
  const int64_t run_allocs0 = ag::tensor::ThreadAllocCount();
  (void)rnn.Run(AsFeeds(module.first_feeds));
  ReportFirstRun(rnn, kernels0, ag::tensor::ThreadAllocCount() - run_allocs0, &result);
  std::remove(path.c_str());
  return result;
}

}  // namespace agbench
