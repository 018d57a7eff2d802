// Ablation — source code transformation cost: how long the conversion
// pipeline (parse -> analyses -> 12 passes -> functional form) takes for
// functions of 1 to 128 nested-control-flow blocks. Conversion runs once
// per function and is amortized over every subsequent execution; this
// bench quantifies the one-time cost. The control-flow pass's liveness
// and reaching definitions run as one bit-vector fixpoint over the
// function's interned names (analysis/cfg.h), so the 128-block row
// shows how that cost grows with the name count.
#include <benchmark/benchmark.h>

#include <sstream>

#include "lang/parser.h"
#include "transforms/passes.h"

namespace ag::transforms {
namespace {

// Builds a function with `blocks` nested-control-flow blocks.
std::string MakeSource(int blocks) {
  std::ostringstream os;
  os << "def f(x):\n";
  os << "  total = 0\n";
  for (int i = 0; i < blocks; ++i) {
    os << "  i" << i << " = 0\n";
    os << "  while i" << i << " < x:\n";
    os << "    if i" << i << " % 2 == 0:\n";
    os << "      total = total + i" << i << "\n";
    os << "    else:\n";
    os << "      total = total - 1\n";
    os << "    i" << i << " = i" << i << " + 1\n";
  }
  os << "  return total\n";
  return os.str();
}

void BM_Conversion(benchmark::State& state) {
  const std::string source = MakeSource(static_cast<int>(state.range(0)));
  auto fn = lang::ParseEntity(source);
  int64_t statements = 0;
  for (auto _ : state) {
    auto converted = ConvertFunctionAst(fn);
    statements += static_cast<int64_t>(converted->body.size());
    benchmark::DoNotOptimize(converted);
  }
  state.counters["conversions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_ParseOnly(benchmark::State& state) {
  const std::string source = MakeSource(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::ParseEntity(source));
  }
}

BENCHMARK(BM_Conversion)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ParseOnly)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ag::transforms
