// agbench harness: command line, timing, latency statistics, metric
// output and the machine/build record every result carries.
//
// A workload fills one RunResult. With --trace 0 it reports the five
// end-to-end metrics (p50_us, tail_us, ops_per_s, peak_rss_mb,
// setup_s); with --trace 1 it reports the per-layer metrics instead.
// main.cc prints the result; its last stdout line is the JSON object
// {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace agbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  // scratch files (the .agc) go here
};

// Monotonic nanoseconds.
[[nodiscard]] int64_t NowNs();

// `v` with all its digits, as JSON text.
[[nodiscard]] std::string JsonNumber(double v);

// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Set false by any check that is not tied to one counted op (a
  // warm-up or reference mismatch); `failed > 0` also makes it false.
  bool checks_ok = true;
  std::map<std::string, Metric> metrics;
  // Extra facts saved with the result (tail percentile and its sample
  // count, set-up repetitions, the traced breakdown, ...), each value
  // already encoded as JSON text.
  std::map<std::string, std::string> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one op and its outcome.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Latency samples in microseconds.
class Samples {
 public:
  void Add(double us) { us_.push_back(us); }
  void Append(const Samples& other) {
    us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  }
  // Samples [begin, end).
  [[nodiscard]] Samples Slice(size_t begin, size_t end) const;
  [[nodiscard]] size_t size() const { return us_.size(); }
  [[nodiscard]] double Percentile(double p) const;  // p in [0, 100]
  [[nodiscard]] double Median() const;
  [[nodiscard]] double Mean() const;
  // p90, or p50 with fewer than 100 samples (the highest of the two
  // with at least 10 samples beyond it); `percentile` receives which.
  // p99 spread 20-66% between runs of identical code on a noisy
  // 4-vCPU host, wider than any bound a gate can use.
  [[nodiscard]] double Tail(double* percentile) const;

 private:
  std::vector<double> us_;
};

// One stretch of a timed phase: the latency samples [begin, end) of the
// phase and the wall time their ops took.
struct Window {
  size_t begin = 0;
  size_t end = 0;
  double wall_s = 0.0;
};

// Times the workload's set-up repeatedly, spread over the whole timed
// phase: Sample() runs every set-up that has come due (one per
// `interval_s`, stretched so sampling stays within a tenth of the run)
// and returns the nanoseconds it spent, which the timed loop leaves out
// of its own wall time. `position` is the number of latency samples
// taken so far, which places each set-up in a window of the phase.
class SetupSampler {
 public:
  SetupSampler(std::function<void()> setup, std::function<void()> teardown,
               double interval_s);

  int64_t Sample(size_t position);
  // Median of the set-ups taken inside `windows` (a set-up right after
  // a window's last op counts for it); of all set-ups if none was.
  [[nodiscard]] double MedianSeconds(const std::vector<Window>& windows) const;
  [[nodiscard]] int64_t count() const { return static_cast<int64_t>(taken_.size()); }

 private:
  std::function<void()> setup_;
  std::function<void()> teardown_;
  int64_t interval_ns_;
  int64_t next_due_ns_ = 0;
  std::vector<std::pair<size_t, double>> taken_;  // (position, seconds)
};

// Set-up samples wanted per run; the interval is seconds / this.
inline constexpr double kSetupSamplesPerRun = 400.0;

// Windows a single-thread timed phase is cut into.
inline constexpr double kWindowsPerRun = 48.0;

// Calls `op(i)` for i = 0, 1, ... until `seconds` have passed, taking
// set-up samples between ops when `sampler` is non-null. Op i is sample
// i of its phase. Returns the phase cut into windows of about
// `seconds / kWindowsPerRun` of op wall time each (set-up sampling left
// out), the last one possibly shorter.
std::vector<Window> RunFor(double seconds, const std::function<void(int64_t)>& op,
                           SetupSampler* sampler = nullptr);

// The share of a run's windows the timing metrics come from: those
// with the highest median latency.
//
// The host the bounds were set on (4 vCPUs of a shared machine) runs
// the same code at two speeds, in phases of seconds to minutes, with no
// system time, page faults or CPU migration behind them. The slow speed
// is there in every run; a fast one, up to 1.6x faster, comes and goes.
// Whole-run medians of identical code spread 10-22% (IQR over median)
// between runs, the slowest eighth of windows 2.5-5.4%. A change of the
// program's own speed shows in every window, so it shows in the slowest.
inline constexpr double kKeptShare = 0.125;

// Records the end-to-end metrics of a timed phase whose samples are cut
// into `windows`. p50_us, tail_us and ops_per_s come from the kept
// windows (kKeptShare of them, rounded up), pooled; setup_s is the
// median of the set-ups taken in them; peak_rss_mb is the process's
// peak.
void SetLatencyMetrics(const Samples& samples, const std::vector<Window>& windows,
                       const SetupSampler& sampler, RunResult* result);

// Binds this process, and every thread it starts later, to one CPU:
// the highest-numbered one it may run on. Returns that CPU, or -1 if
// binding failed. On the shared host the bounds were set on, a load
// spread over all 4 vCPUs lost 8-17% of its CPU time to other guests
// (steal) and rnn_serve runs then served up to 2x fewer requests per
// second; on one vCPU steal stayed near 1%, and a cross-vCPU wake-up
// costs more than handing a request over on the same CPU.
int PinToOneCpu();

// Peak resident set of this process in MiB.
[[nodiscard]] double PeakRssMb();

// nproc, CPU model, build type, kernel backend, buffer-pool cap.
void RecordMachineInfo(RunResult* result);

// Bitwise equality of shape, dtype and contents.
[[nodiscard]] bool BitEqual(const ag::Tensor& a, const ag::Tensor& b);

// The staged-vs-eager tolerance the repository's own tests use.
inline constexpr float kEagerTolerance = 1e-4f;

// Per-layer rows of one traced op, in microseconds. The rows plus an
// unattributed remainder add up to `wall_us`.
struct Breakdown {
  double wall_us = 0.0;
  std::map<std::string, double> rows;
};

// Mean breakdown over traced ops (means add up; medians would not).
class BreakdownMean {
 public:
  void Add(const Breakdown& b);
  // Writes every row mean and the unattributed remainder (named
  // `unattributed_name`) into `result` as metrics, and the whole
  // breakdown as info["breakdown"].
  void Report(const std::string& unattributed_name, RunResult* result) const;

 private:
  int64_t n_ = 0;
  double wall_sum_ = 0.0;
  std::map<std::string, double> row_sums_;
};

// Tracing overhead: traced vs untraced median wall of the same op,
// interleaved so both see the same machine phases.
void ReportTraceOverhead(const Samples& untraced, const Samples& traced,
                         RunResult* result);

// Workloads (one file each).
RunResult RunBeamDecode(const Args& args);
RunResult RunRnnServe(const Args& args);
RunResult RunColdStartPym(const Args& args);
RunResult RunColdStartAgc(const Args& args);

}  // namespace agbench
