// rnn_serve: one dynamic_rnn request per op over loopback TCP, through
// the in-process serve::TcpServer and serve::Client. The server loads
// the function from an .agc with 2 workers and max_batch 4; 4
// connections run a closed loop, each waiting for its reply, so the
// queue stays non-empty and batches form. Every thread shares the one
// CPU agbench is bound to (PinToOneCpu in harness.h).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_io.h"
#include "harness.h"
#include "inputs.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tensor/allocator.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace agbench {
namespace {

using ag::Tensor;

constexpr int kConnections = 4;
constexpr int kRequests = 64;  // distinct requests, cycled
// Requests per episode. Each episode starts from a cold buffer pool and
// serves the same number of requests, so every run covers the same
// pool-growth regime and peak_rss_mb does not depend on how many
// requests a run completes (served traffic grows the pool toward its
// retention cap).
constexpr int64_t kEpisodeRequests = 2000;

ag::serve::ServerOptions Options() {
  ag::serve::ServerOptions options;
  options.workers = 2;
  options.max_batch = 4;
  return options;
}

// A listening server; members destruct in reverse, transport first.
struct Server {
  std::unique_ptr<ag::serve::ServerCore> core;
  std::unique_ptr<ag::serve::TcpServer> tcp;
};

bool Matches(const std::vector<Tensor>& out, const std::vector<Tensor>& ref) {
  return out.size() == 2 && ag::AllClose(out[0], ref[0], kEagerTolerance) &&
         ag::AllClose(out[1], ref[1], kEagerTolerance);
}

// One closed-loop phase: `call(conn, i, &us)` issues request i on
// connection `conn`, stores its latency and returns whether the reply
// was correct; each connection thread waits for its reply before the
// next request.
struct LoopOutcome {
  Samples latency;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;

  void Merge(const LoopOutcome& o) {
    latency.Append(o.latency);
    attempted += o.attempted;
    failed += o.failed;
    wall_s += o.wall_s;
  }
};

using Call = std::function<bool(int, int64_t, double*)>;

// One episode: kEpisodeRequests requests from a cold buffer pool.
LoopOutcome Episode(const Call& call) {
  ag::tensor::BufferPool::Global().TrimAll();
  std::vector<LoopOutcome> per(kConnections);
  std::vector<std::thread> threads;
  const int64_t t0 = NowNs();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoopOutcome& mine = per[static_cast<size_t>(c)];
      for (int64_t i = c; i < kEpisodeRequests; i += kConnections) {
        double us = 0.0;
        bool ok = false;
        try {
          ok = call(c, i, &us);
        } catch (const std::exception&) {
          ok = false;
        }
        mine.latency.Add(us);
        ++mine.attempted;
        if (!ok) ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopOutcome all;
  for (const LoopOutcome& o : per) all.Merge(o);
  all.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return all;
}

// Whole episodes until `seconds` have passed, taking set-up samples
// between episodes.
std::vector<LoopOutcome> Episodes(double seconds, const Call& call,
                                  SetupSampler* sampler) {
  std::vector<LoopOutcome> episodes;
  double wall_s = 0.0;
  size_t requests = 0;
  while (wall_s < seconds) {
    episodes.push_back(Episode(call));
    wall_s += episodes.back().wall_s;
    requests += episodes.back().latency.size();
    (void)sampler->Sample(requests);
  }
  return episodes;
}

}  // namespace

RunResult RunRnnServe(const Args& args) {
  RunResult result;
  const ag::workloads::RnnConfig config = RnnRequestConfig(args.seed);
  const ag::workloads::RnnInputs weights = ag::workloads::MakeRnnInputs(config);
  const std::vector<std::vector<Tensor>> requests =
      MakeRnnFeeds(config, args.seed, kRequests);
  const std::string path =
      args.workdir + "/rnn_serve_" + std::to_string(getpid()) + ".agc";

  // The artifact is written, and the references computed by the eager
  // interpreter, before any clock starts.
  std::vector<std::vector<Tensor>> refs;
  {
    ag::core::AutoGraph agc;
    ag::workloads::InstallRnn(agc, weights);
    const ag::core::StagedFunction fn = StageDynamicRnn(agc);
    ag::core::SaveArtifact(path, {{"dynamic_rnn", &fn}});
    for (const std::vector<Tensor>& feeds : requests) {
      const ag::core::Value out = agc.CallEager(
          "dynamic_rnn", {ag::core::Value(feeds[0]), ag::core::Value(feeds[1]),
                          ag::core::Value(feeds[2])});
      refs.push_back({out.AsTuple()->elts[0].AsTensor(),
                      out.AsTuple()->elts[1].AsTensor()});
    }
  }

  // Set-up = server time-to-ready: LoadArtifact + Start + listen. One
  // server takes the traffic; setup_s is the median of fresh servers
  // started between episodes.
  const auto start = [&](Server& s) {
    s.core = std::make_unique<ag::serve::ServerCore>(Options());
    s.core->LoadArtifact(path);
    s.core->Start();
    s.tcp = std::make_unique<ag::serve::TcpServer>(s.core.get(), 0);
    s.tcp->Start();
  };
  Server server;
  start(server);
  Server sampled;
  SetupSampler sampler([&] { start(sampled); },
                       [&] {
                         sampled.tcp.reset();
                         sampled.core.reset();
                       },
                       args.seconds / kSetupSamplesPerRun);

  std::vector<ag::serve::Client> clients;
  for (int c = 0; c < kConnections; ++c) clients.emplace_back(server.tcp->port());
  const auto tcp_call = [&](int c, int64_t i, double* us) {
    const size_t k = static_cast<size_t>(i % kRequests);
    const int64_t t0 = NowNs();
    ag::serve::WireResponse reply =
        clients[static_cast<size_t>(c)].Call("dynamic_rnn", requests[k]);
    *us = static_cast<double>(NowNs() - t0) * 1e-3;
    return reply.ok && Matches(reply.outputs, refs[k]);
  };

  const LoopOutcome warmup = Episode(tcp_call);
  if (warmup.failed > 0) result.checks_ok = false;

  const auto count = [&](const LoopOutcome& o) {
    result.attempted += o.attempted;
    result.failed += o.failed;
  };
  if (!args.trace) {
    // Each episode is one window of the timed phase.
    Samples latency;
    std::vector<Window> windows;
    for (const LoopOutcome& e : Episodes(args.seconds, tcp_call, &sampler)) {
      count(e);
      windows.push_back(Window{latency.size(), latency.size() + e.latency.size(), e.wall_s});
      latency.Append(e.latency);
    }
    SetLatencyMetrics(latency, windows, sampler, &result);
    std::remove(path.c_str());
    return result;
  }

  // Traced run: rounds of three episodes, so all three see the same host
  // phases: the TCP loop untraced, the TCP loop with server and pool
  // counters read around it, and the same traffic through
  // ServerCore::Call in process (no transport). Then the engine alone.
  const double quarter = args.seconds / 4.0;
  ag::serve::ServerCore& core = *server.core;
  const Call in_process_call = [&](int, int64_t i, double* us) {
    const size_t k = static_cast<size_t>(i % kRequests);
    ag::serve::Request request;
    request.fn = "dynamic_rnn";
    request.feeds = requests[k];
    const int64_t t0 = NowNs();
    const ag::serve::Reply reply = core.Call(std::move(request));
    *us = static_cast<double>(NowNs() - t0) * 1e-3;
    return reply.ok && Matches(reply.outputs, refs[k]);
  };
  LoopOutcome untraced;
  LoopOutcome traced;
  LoopOutcome in_process;
  int64_t succeeded = 0, batched_runs_n = 0, batch_requests_n = 0;
  int64_t wait_ns = 0, allocs = 0;
  while (untraced.wall_s + traced.wall_s + in_process.wall_s < 3.0 * quarter) {
    untraced.Merge(Episode(tcp_call));
    const ag::serve::ServeStats stats0 = core.stats();
    const int64_t wait0 = core.metadata().queue_wait_ns;
    const int64_t allocs0 = ag::tensor::BufferPool::Global().stats().alloc_count;
    traced.Merge(Episode(tcp_call));
    allocs += ag::tensor::BufferPool::Global().stats().alloc_count - allocs0;
    wait_ns += core.metadata().queue_wait_ns - wait0;
    const ag::serve::ServeStats stats1 = core.stats();
    succeeded += stats1.succeeded - stats0.succeeded;
    batched_runs_n += stats1.batched_runs - stats0.batched_runs;
    batch_requests_n += stats1.batch_requests - stats0.batch_requests;
    in_process.Merge(Episode(in_process_call));
  }
  const ag::tensor::PoolStats pool = ag::tensor::BufferPool::Global().stats();
  const ag::serve::ServeStats stats = core.stats();
  count(untraced);
  count(traced);
  count(in_process);

  const auto served = static_cast<double>(succeeded);
  const auto batched_runs = static_cast<double>(batched_runs_n);
  const auto batch_requests = static_cast<double>(batch_requests_n);
  const double engine_runs = batched_runs + (served - batch_requests);
  const double rows_per_run = engine_runs > 0 ? served / engine_runs : 1.0;

  // The engine alone: one Run of the served function on a stacked batch
  // of the mean rows per served Run, in process.
  auto loaded = ag::core::StageFromArtifact(path);
  ag::core::StagedFunction& fn = loaded.at("dynamic_rnn");
  const auto rows = static_cast<int64_t>(std::lround(std::max(1.0, rows_per_run)));
  ag::Rng rng(args.seed);
  const std::vector<ag::exec::RuntimeValue> stacked = {
      rng.Normal(ag::Shape({rows, config.seq_len, config.input_size})),
      rng.Normal(ag::Shape({rows, config.hidden}), 0.0f, 0.1f),
      Tensor::Full(ag::Shape({rows}), static_cast<float>(config.seq_len),
                   ag::DType::kInt32)};
  Samples engine;
  RunFor(quarter, [&](int64_t) {
    const int64_t t0 = NowNs();
    (void)fn.Run(stacked);
    engine.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  });

  const double roundtrip = traced.latency.Mean();
  const double core_call = in_process.latency.Mean();
  const double queue_wait =
      served > 0 ? static_cast<double>(wait_ns) * 1e-3 / served : 0.0;
  Breakdown b;
  b.wall_us = roundtrip;
  b.rows["serve.transport_us"] = roundtrip - core_call;
  b.rows["serve.queue_wait_us"] = queue_wait;
  b.rows["serve.engine_us"] = engine.Mean();
  BreakdownMean breakdown;
  breakdown.Add(b);
  breakdown.Report("unattributed_us", &result);

  result.Set("serve.roundtrip_us", roundtrip, "us");
  result.Set("serve.core_call_us", core_call, "us");
  result.Set("serve.batch_size_mean",
             batched_runs > 0 ? batch_requests / batched_runs : 0.0, "requests");
  result.Set("serve.batched_share", served > 0 ? batch_requests / served : 0.0, "ratio");
  result.Set("serve.failed", static_cast<double>(stats.failed), "count");
  result.Set("serve.rejected_full", static_cast<double>(stats.rejected_full), "count");
  const double mib = 1024.0 * 1024.0;
  result.Set("tensor.retained_mb", static_cast<double>(pool.retained_bytes) / mib, "MiB");
  result.Set("tensor.peak_live_mb", static_cast<double>(pool.peak_live_bytes) / mib, "MiB");
  result.Set("tensor.allocs_per_request",
             served > 0 ? static_cast<double>(allocs) / served : 0.0, "count");
  ReportTraceOverhead(untraced.latency, traced.latency, &result);
  std::remove(path.c_str());
  return result;
}

}  // namespace agbench
