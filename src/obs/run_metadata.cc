#include "obs/run_metadata.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ag::obs {

namespace {

std::string FormatNs(int64_t ns) {
  std::ostringstream os;
  os << std::fixed;
  if (ns >= 1000000000) {
    os << std::setprecision(3) << static_cast<double>(ns) / 1e9 << " s";
  } else if (ns >= 1000000) {
    os << std::setprecision(3) << static_cast<double>(ns) / 1e6 << " ms";
  } else {
    os << std::setprecision(3) << static_cast<double>(ns) / 1e3 << " us";
  }
  return os.str();
}

// Roofline rates from cumulative counters: bytes/ns is exactly GB/s and
// flops/ns exactly GFLOP/s, so no unit constant is needed. Returns "-"
// when the numerator is unknown (0) so absent estimates don't print as
// an impossibly slow kernel.
std::string FormatRate(int64_t amount, int64_t total_ns) {
  if (amount <= 0 || total_ns <= 0) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(2)
     << static_cast<double>(amount) / static_cast<double>(total_ns);
  return os.str();
}

}  // namespace

std::string NodeStats::DebugString() const {
  std::ostringstream os;
  os << name << " (" << op << "): count=" << count
     << " total=" << FormatNs(total_ns) << " bytes=" << output_bytes
     << " allocs=" << alloc_count
     << " gflops=" << FormatRate(flops, total_ns)
     << " gbs=" << FormatRate(input_bytes + output_bytes, total_ns);
  if (!backend.empty()) os << " backend=" << backend;
  return os.str();
}

int64_t StepStats::TotalNodeExecutions() const {
  int64_t total = 0;
  for (const NodeStats& n : nodes) total += n.count;
  return total;
}

int64_t StepStats::TotalNodeNs() const {
  int64_t total = 0;
  for (const NodeStats& n : nodes) total += n.total_ns;
  return total;
}

void RunMetadata::Merge(const RunMetadata& other) {
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (size_t i = 0; i < step_stats.nodes.size(); ++i) {
    const NodeStats& n = step_stats.nodes[i];
    index[{n.name, n.op}] = i;
  }
  for (const NodeStats& n : other.step_stats.nodes) {
    auto it = index.find({n.name, n.op});
    if (it == index.end()) {
      index[{n.name, n.op}] = step_stats.nodes.size();
      step_stats.nodes.push_back(n);
    } else {
      NodeStats& mine = step_stats.nodes[it->second];
      mine.count += n.count;
      mine.total_ns += n.total_ns;
      mine.output_bytes += n.output_bytes;
      mine.alloc_count += n.alloc_count;
      mine.flops += n.flops;
      mine.input_bytes += n.input_bytes;
      if (!n.backend.empty()) mine.backend = n.backend;
    }
  }
  trace_events.insert(trace_events.end(), other.trace_events.begin(),
                      other.trace_events.end());
  for (const auto& [phase, ns] : other.phase_ns) phase_ns[phase] += ns;
  while_iterations += other.while_iterations;
  cond_true_taken += other.cond_true_taken;
  cond_false_taken += other.cond_false_taken;
  runs += other.runs;
  run_wall_ns += other.run_wall_ns;
  interrupted_runs += other.interrupted_runs;
  if (!other.interrupt_kind.empty()) interrupt_kind = other.interrupt_kind;
  unwind_ns += other.unwind_ns;
  unwind_samples_ns.insert(unwind_samples_ns.end(),
                           other.unwind_samples_ns.begin(),
                           other.unwind_samples_ns.end());
  queue_wait_ns += other.queue_wait_ns;
  batched_runs += other.batched_runs;
  batch_requests += other.batch_requests;
  batch_size_max = std::max(batch_size_max, other.batch_size_max);
  alloc_count += other.alloc_count;
  alloc_bytes += other.alloc_bytes;
  pool_hit_count += other.pool_hit_count;
}

std::string RunMetadata::DebugString() const {
  std::ostringstream os;
  os << "RunMetadata: runs=" << runs << " wall=" << FormatNs(run_wall_ns)
     << " node_execs=" << step_stats.TotalNodeExecutions()
     << " while_iters=" << while_iterations << " cond_taken=["
     << cond_true_taken << " true, " << cond_false_taken << " false]\n";
  if (interrupted_runs > 0) {
    os << "interrupted: " << interrupted_runs << " run(s), last="
       << interrupt_kind << " unwind=" << FormatNs(unwind_ns) << "\n";
  }
  if (queue_wait_ns > 0 || batched_runs > 0) {
    os << "serving: queue_wait=" << FormatNs(queue_wait_ns);
    if (batched_runs > 0) {
      os << " batched_runs=" << batched_runs
         << " batch_requests=" << batch_requests << " avg_batch="
         << (batch_requests + batched_runs / 2) / batched_runs
         << " max_batch=" << batch_size_max;
    }
    os << "\n";
  }
  if (alloc_count > 0 || pool_hit_count > 0) {
    const int64_t requests = alloc_count + pool_hit_count;
    os << "alloc: fresh=" << alloc_count << " (" << alloc_bytes
       << " bytes) pool_hits=" << pool_hit_count << " hit_rate="
       << (requests > 0 ? (100 * pool_hit_count + requests / 2) / requests : 0)
       << "%\n";
  }
  if (!phase_ns.empty()) {
    os << "phases:";
    for (const auto& [phase, ns] : phase_ns) {
      os << " " << phase << "=" << FormatNs(ns);
    }
    os << "\n";
  }
  if (!step_stats.nodes.empty()) {
    std::vector<const NodeStats*> sorted;
    sorted.reserve(step_stats.nodes.size());
    for (const NodeStats& n : step_stats.nodes) sorted.push_back(&n);
    std::sort(sorted.begin(), sorted.end(),
              [](const NodeStats* a, const NodeStats* b) {
                return a->total_ns > b->total_ns;
              });
    const int64_t total = std::max<int64_t>(1, step_stats.TotalNodeNs());
    os << std::left << std::setw(28) << "node" << std::setw(20) << "op"
       << std::right << std::setw(10) << "count" << std::setw(14) << "total"
       << std::setw(12) << "avg" << std::setw(8) << "%" << std::setw(14)
       << "bytes" << std::setw(10) << "allocs" << std::setw(10) << "gflops"
       << std::setw(9) << "gbs" << "  " << std::left << "backend" << "\n";
    for (const NodeStats* n : sorted) {
      std::string name = n->name.size() > 26 ? n->name.substr(0, 26) : n->name;
      os << std::left << std::setw(28) << name << std::setw(20) << n->op
         << std::right << std::setw(10) << n->count << std::setw(14)
         << FormatNs(n->total_ns) << std::setw(12)
         << FormatNs(n->count > 0 ? n->total_ns / n->count : 0)
         << std::setw(7)
         << (100 * n->total_ns + total / 2) / total << "%" << std::setw(14)
         << n->output_bytes << std::setw(10) << n->alloc_count
         << std::setw(10) << FormatRate(n->flops, n->total_ns) << std::setw(9)
         << FormatRate(n->input_bytes + n->output_bytes, n->total_ns) << "  "
         << std::left << (n->backend.empty() ? "-" : n->backend) << "\n";
    }
  }
  return os.str();
}

void AggregateEvents(const std::vector<TraceEvent>& events,
                     StepStats* stats) {
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (size_t i = 0; i < stats->nodes.size(); ++i) {
    index[{stats->nodes[i].name, stats->nodes[i].op}] = i;
  }
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::kComplete) continue;
    auto [it, inserted] =
        index.emplace(std::make_pair(e.name, e.category), stats->nodes.size());
    if (inserted) {
      NodeStats n;
      n.name = e.name;
      n.op = e.category;
      stats->nodes.push_back(std::move(n));
    }
    NodeStats& n = stats->nodes[it->second];
    ++n.count;
    n.total_ns += e.dur_ns;
  }
}

void RunRecorder::RecordNode(const std::string& name, const std::string& op,
                             int64_t start_ns, int64_t end_ns,
                             int64_t output_bytes, int64_t alloc_count,
                             int64_t flops, int64_t input_bytes,
                             const std::string& backend) {
  if (options_.trace) {
    tracer_.AddComplete(name + " (" + op + ")", "op", start_ns, end_ns);
  }
  if (!options_.step_stats) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = index_.emplace(std::make_pair(name, op),
                                       stats_.nodes.size());
  if (inserted) {
    NodeStats n;
    n.name = name;
    n.op = op;
    stats_.nodes.push_back(std::move(n));
  }
  NodeStats& n = stats_.nodes[it->second];
  ++n.count;
  n.total_ns += end_ns - start_ns;
  n.output_bytes += output_bytes;
  n.alloc_count += alloc_count;
  n.flops += flops;
  n.input_bytes += input_bytes;
  if (!backend.empty()) n.backend = backend;
}

void RunRecorder::RecordPhase(const std::string& phase, int64_t dur_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ns_[phase] += dur_ns;
}

void RunRecorder::CountWhileIteration() {
  std::lock_guard<std::mutex> lock(mu_);
  ++while_iterations_;
}

void RunRecorder::CountCondBranch(bool taken) {
  std::lock_guard<std::mutex> lock(mu_);
  if (taken) {
    ++cond_true_;
  } else {
    ++cond_false_;
  }
}

void RunRecorder::Finish(RunMetadata* meta) {
  if (meta == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  RunMetadata delta;
  delta.step_stats = std::move(stats_);
  stats_.nodes.clear();
  if (options_.trace) delta.trace_events = tracer_.Take();
  delta.phase_ns = std::move(phase_ns_);
  phase_ns_.clear();
  delta.while_iterations = while_iterations_;
  delta.cond_true_taken = cond_true_;
  delta.cond_false_taken = cond_false_;
  meta->Merge(delta);
}

}  // namespace ag::obs
