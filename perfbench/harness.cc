#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "tensor/allocator.h"
#include "tensor/simd/dispatch.h"

namespace agbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

std::string JsonNumber(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double Samples::Percentile(double p) const {
  std::vector<double> sorted = us_;
  std::sort(sorted.begin(), sorted.end());
  return SortedQuantile(sorted, p / 100.0);
}

Samples Samples::Slice(size_t begin, size_t end) const {
  Samples out;
  out.us_.assign(us_.begin() + static_cast<std::ptrdiff_t>(begin),
                 us_.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

double Samples::Median() const { return Percentile(50.0); }

double Samples::Mean() const {
  if (us_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : us_) sum += v;
  return sum / static_cast<double>(us_.size());
}

double Samples::Tail(double* percentile) const {
  const auto n = static_cast<double>(us_.size());
  *percentile = n * 0.1 >= 10.0 ? 90.0 : 50.0;
  return Percentile(*percentile);
}

SetupSampler::SetupSampler(std::function<void()> setup,
                           std::function<void()> teardown, double interval_s)
    : setup_(std::move(setup)),
      teardown_(std::move(teardown)),
      interval_ns_(static_cast<int64_t>(interval_s * 1e9)) {}

int64_t SetupSampler::Sample(size_t position) {
  const int64_t start = NowNs();
  if (next_due_ns_ == 0) next_due_ns_ = start;
  for (; next_due_ns_ <= start; next_due_ns_ += interval_ns_) {
    const int64_t t0 = NowNs();
    setup_();
    taken_.emplace_back(position, static_cast<double>(NowNs() - t0) * 1e-9);
    teardown_();
  }
  // Sampling never takes more than a tenth of the run.
  const int64_t now = NowNs();
  next_due_ns_ = std::max(next_due_ns_, now + 9 * (now - start));
  return now - start;
}

double SetupSampler::MedianSeconds(const std::vector<Window>& windows) const {
  std::vector<double> inside;
  std::vector<double> all;
  for (const auto& [position, seconds] : taken_) {
    all.push_back(seconds);
    for (const Window& w : windows) {
      if (position > w.begin && position <= w.end) inside.push_back(seconds);
    }
  }
  std::vector<double>& sorted = inside.empty() ? all : inside;
  std::sort(sorted.begin(), sorted.end());
  return SortedQuantile(sorted, 0.5);
}

std::vector<Window> RunFor(double seconds, const std::function<void(int64_t)>& op,
                           SetupSampler* sampler) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const auto window_ns = static_cast<int64_t>(seconds * 1e9 / kWindowsPerRun);
  std::vector<Window> windows;
  Window window;
  int64_t window_op_ns = 0;
  for (int64_t i = 0; NowNs() < end; ++i) {
    const int64_t t0 = NowNs();
    op(i);
    window_op_ns += NowNs() - t0;
    window.end = static_cast<size_t>(i) + 1;
    if (window_op_ns >= window_ns) {
      window.wall_s = static_cast<double>(window_op_ns) * 1e-9;
      windows.push_back(window);
      window = Window{window.end, window.end, 0.0};
      window_op_ns = 0;
    }
    if (sampler != nullptr) (void)sampler->Sample(window.end);
  }
  if (window.end > window.begin) {
    window.wall_s = static_cast<double>(window_op_ns) * 1e-9;
    windows.push_back(window);
  }
  return windows;
}

void SetLatencyMetrics(const Samples& samples, const std::vector<Window>& windows,
                       const SetupSampler& sampler, RunResult* result) {
  std::vector<std::pair<double, const Window*>> by_median;
  for (const Window& w : windows) {
    if (w.end > w.begin) by_median.emplace_back(samples.Slice(w.begin, w.end).Median(), &w);
  }
  std::sort(by_median.begin(), by_median.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const auto kept_n = static_cast<size_t>(
      std::ceil(kKeptShare * static_cast<double>(by_median.size())));
  Samples kept;
  std::vector<Window> kept_windows;
  double kept_wall_s = 0.0;
  std::string medians_json;
  for (size_t i = 0; i < by_median.size(); ++i) {
    const Window& w = *by_median[i].second;
    if (i < kept_n) {
      kept.Append(samples.Slice(w.begin, w.end));
      kept_windows.push_back(w);
      kept_wall_s += w.wall_s;
    }
    medians_json += (medians_json.empty() ? "" : ", ") + JsonNumber(by_median[i].first);
  }

  double percentile = 0.0;
  const double tail = kept.Tail(&percentile);
  result->Set("p50_us", kept.Median(), "us");
  result->Set("tail_us", tail, "us");
  result->Set("ops_per_s", static_cast<double>(kept.size()) / kept_wall_s, "1/s");
  result->Set("setup_s", sampler.MedianSeconds(kept_windows), "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  const auto quantiles = [](const Samples& s) {
    return "{\"p50\": " + JsonNumber(s.Median()) + ", \"p90\": " +
           JsonNumber(s.Percentile(90.0)) + ", \"p99\": " + JsonNumber(s.Percentile(99.0)) +
           "}";
  };
  result->info["latency_us_kept"] = quantiles(kept);
  result->info["latency_us_all"] = quantiles(samples);
  result->info["windows"] =
      "{\"run\": " + JsonNumber(static_cast<double>(by_median.size())) +
      ", \"kept\": " + JsonNumber(static_cast<double>(kept_n)) +
      ", \"median_us_kept_first\": [" + medians_json + "]}";
  result->info["tail_percentile"] = JsonNumber(percentile);
  result->info["tail_samples"] = JsonNumber(static_cast<double>(kept.size()));
  result->info["timed_wall_s"] = JsonNumber(kept_wall_s);
  result->info["setup_samples"] = JsonNumber(static_cast<double>(sampler.count()));
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

double PeakRssMb() {
  // VmHWM is the peak RSS of this process image. ru_maxrss would also
  // count the launching process's peak from before exec, which the
  // kernel carries over.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void RecordMachineInfo(RunResult* result) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string quoted;
  for (char c : cpu) {
    if (c != '"' && c != '\\') quoted += c;
  }
  namespace simd = ag::tensor::simd;
  result->info["nproc"] = JsonNumber(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  result->info["cpu"] = "\"" + quoted + "\"";
  result->info["build_type"] = "\"" AGBENCH_BUILD_TYPE "\"";
  result->info["kernel_backend"] =
      std::string("\"") + simd::KernelBackendName(simd::ProcessDefaultBackend()) + "\"";
  result->info["buffer_pool_cap_mb"] = JsonNumber(
      static_cast<double>(ag::tensor::BufferPool::Global().retained_cap_bytes()) /
      (1024.0 * 1024.0));
}

bool BitEqual(const ag::Tensor& a, const ag::Tensor& b) {
  if (!a.defined() || !b.defined()) return false;
  if (a.dtype() != b.dtype() || !(a.shape() == b.shape())) return false;
  const auto n = static_cast<size_t>(a.num_elements());
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

void BreakdownMean::Add(const Breakdown& b) {
  ++n_;
  wall_sum_ += b.wall_us;
  for (const auto& [name, us] : b.rows) row_sums_[name] += us;
}

void BreakdownMean::Report(const std::string& unattributed_name,
                           RunResult* result) const {
  if (n_ == 0) return;
  const double n = static_cast<double>(n_);
  double rows_sum = 0.0;
  std::string rows_json;
  for (const auto& [name, sum] : row_sums_) {
    result->Set(name, sum / n, "us");
    rows_sum += sum / n;
    rows_json += (rows_json.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                 JsonNumber(sum / n);
  }
  const double wall = wall_sum_ / n;
  result->Set(unattributed_name, wall - rows_sum, "us");
  result->info["breakdown"] =
      "{\"ops\": " + JsonNumber(n) + ", \"wall_us\": " + JsonNumber(wall) +
      ", \"unattributed_us\": " + JsonNumber(wall - rows_sum) +
      ", \"rows\": {" + rows_json + "}}";
}

void ReportTraceOverhead(const Samples& untraced, const Samples& traced,
                         RunResult* result) {
  const double base = untraced.Median();
  const double overhead = base > 0.0 ? traced.Median() / base - 1.0 : 0.0;
  result->Set("trace.overhead_pct", 100.0 * overhead, "%");
}

}  // namespace agbench
