// beam_decode: one staged Run of Appendix D.1 beam_search per op,
// closed loop, one caller thread. The executor and the tensor kernels do
// all the work; serve, artifact and the front end do none.
#include <optional>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "tensor/allocator.h"
#include "tensor/tensor_ops.h"

namespace agbench {
namespace {

using ag::Tensor;
using ag::core::AutoGraph;
using ag::core::StagedFunction;
using ag::core::Value;

constexpr int kSearches = 16;   // distinct start states, cycled
constexpr int kWarmupOps = 20;

// The op kinds whose kernel time the traced run reports by name; the
// rest is summed as "other".
const char* const kNamedOps[] = {"LogSoftmax", "MatMul", "Add", "TopK",
                                 "FusedElementwise"};

struct Staged {
  AutoGraph agc;
  StagedFunction fn;
};

std::vector<ag::exec::RuntimeValue> AsFeeds(const std::vector<Tensor>& t) {
  return {t.begin(), t.end()};
}

// Tokens and step count exactly, scores within the eager tolerance.
bool Matches(const std::vector<ag::exec::RuntimeValue>& out,
             const std::vector<Tensor>& ref) {
  return out.size() == 3 &&
         ag::AllClose(ag::exec::AsTensor(out[0]), ref[0], kEagerTolerance) &&
         BitEqual(ag::exec::AsTensor(out[1]), ref[1]) &&
         ag::exec::AsTensor(out[2]).scalar_int() == ref[2].scalar_int();
}

}  // namespace

RunResult RunBeamDecode(const Args& args) {
  RunResult result;
  const ag::workloads::BeamConfig config = BeamDecodeConfig(args.seed);
  const ag::workloads::BeamInputs weights = ag::workloads::MakeBeamInputs(config);
  const std::vector<std::vector<Tensor>> searches =
      MakeBeamFeeds(config, args.seed, kSearches);

  // Set-up = LoadSource + Stage + first Run. One instance serves the
  // timed phase; setup_s is the median of fresh set-ups sampled across it.
  const auto set_up = [&](std::optional<Staged>& s) {
    s.emplace();
    ag::workloads::InstallBeamSearch(s->agc, config, weights);
    s->fn = s->agc.Stage(
        "beam_search",
        {ag::core::StageArg::Placeholder("state"),
         ag::core::StageArg::Placeholder("scores"),
         ag::core::StageArg::Placeholder("tokens", ag::DType::kInt32)});
    (void)s->fn.Run(AsFeeds(searches[0]));
  };
  std::optional<Staged> staged;
  set_up(staged);
  std::optional<Staged> sampled;
  SetupSampler sampler([&] { set_up(sampled); }, [&] { sampled.reset(); },
                       args.seconds / kSetupSamplesPerRun);

  // References from the eager interpreter, never from the staged path.
  std::vector<std::vector<Tensor>> refs;
  for (const std::vector<Tensor>& feeds : searches) {
    Value out = staged->agc.CallEager(
        "beam_search", {Value(feeds[0]), Value(feeds[1]), Value(feeds[2])});
    const auto& elts = out.AsTuple()->elts;
    refs.push_back({elts[0].AsTensor(), elts[1].AsTensor(),
                    Tensor::ScalarInt(elts[2].AsInt())});
  }

  StagedFunction& fn = staged->fn;
  for (int i = 0; i < kWarmupOps; ++i) {
    if (!Matches(fn.Run(AsFeeds(searches[i % kSearches])), refs[i % kSearches])) {
      result.checks_ok = false;
    }
  }

  Samples untraced;
  Samples traced;
  BreakdownMean breakdown;
  int64_t hits = 0, acquires = 0;
  const std::vector<Window> windows = RunFor(args.seconds, [&](int64_t i) {
    const size_t k = static_cast<size_t>(i % kSearches);
    const std::vector<ag::exec::RuntimeValue> feeds = AsFeeds(searches[k]);
    // With --trace 1, every other op runs with step stats so the two
    // halves see the same machine phases.
    if (!args.trace || i % 2 == 0) {
      const int64_t t0 = NowNs();
      const auto out = fn.Run(feeds);
      untraced.Add(static_cast<double>(NowNs() - t0) * 1e-3);
      result.Count(Matches(out, refs[k]));
      return;
    }
    ag::obs::RunOptions options;
    options.step_stats = true;
    ag::obs::RunMetadata meta;
    const ag::tensor::PoolStats pool0 = ag::tensor::BufferPool::Global().stats();
    const int64_t t0 = NowNs();
    const auto out = fn.Run(feeds, &options, &meta);
    const double wall_us = static_cast<double>(NowNs() - t0) * 1e-3;
    const ag::tensor::PoolStats pool1 = ag::tensor::BufferPool::Global().stats();
    hits += pool1.pool_hit_count - pool0.pool_hit_count;
    acquires += (pool1.pool_hit_count - pool0.pool_hit_count) +
                (pool1.alloc_count - pool0.alloc_count);
    traced.Add(wall_us);
    result.Count(Matches(out, refs[k]));

    Breakdown b;
    b.wall_us = wall_us;
    for (const char* op : kNamedOps) b.rows[std::string("exec.kernel_us.") + op] = 0.0;
    b.rows["exec.kernel_us.other"] = 0.0;
    for (const ag::obs::NodeStats& node : meta.step_stats.nodes) {
      std::string row = "exec.kernel_us.other";
      for (const char* op : kNamedOps) {
        if (node.op == op) row = std::string("exec.kernel_us.") + op;
      }
      b.rows[row] += static_cast<double>(node.total_ns) * 1e-3;
    }
    breakdown.Add(b);
  }, args.trace ? nullptr : &sampler);

  if (!args.trace) {
    SetLatencyMetrics(untraced, windows, sampler, &result);
    return result;
  }
  // Exact counters: one more pass over every search, after the timed
  // phase, so they do not depend on how many ops the run completed.
  int64_t kernels = 0, while_iters = 0, allocs = 0;
  for (const std::vector<Tensor>& search : searches) {
    ag::obs::RunOptions options;
    options.step_stats = true;
    ag::obs::RunMetadata meta;
    const int64_t kernels0 = fn.session->stats().kernel_invocations.load();
    const int64_t allocs0 = ag::tensor::ThreadAllocCount();
    (void)fn.Run(AsFeeds(search), &options, &meta);
    allocs += ag::tensor::ThreadAllocCount() - allocs0;
    kernels += fn.session->stats().kernel_invocations.load() - kernels0;
    while_iters += meta.while_iterations;
  }
  const auto per_run = [](int64_t total) {
    return static_cast<double>(total) / static_cast<double>(kSearches);
  };
  breakdown.Report("exec.unattributed_us", &result);
  result.Set("exec.run_us", traced.Mean(), "us");
  result.Set("exec.kernels_per_run", per_run(kernels), "count");
  result.Set("exec.while_iters_per_run", per_run(while_iters), "count");
  result.Set("tensor.allocs_per_run", per_run(allocs), "count");
  result.Set("tensor.pool_hit_ratio",
             acquires > 0 ? static_cast<double>(hits) / static_cast<double>(acquires)
                          : 0.0,
             "ratio");
  ReportTraceOverhead(untraced, traced, &result);
  return result;
}

}  // namespace agbench
