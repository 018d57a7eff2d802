#include "inputs.h"

#include <cstdio>
#include <sstream>

#include "tensor/rng.h"

namespace agbench {

using ag::DType;
using ag::Rng;
using ag::Shape;
using ag::Tensor;
using ag::core::StageArg;

ag::workloads::BeamConfig BeamDecodeConfig(uint64_t seed) {
  ag::workloads::BeamConfig config;
  config.beam = 8;
  config.vocab = 128;
  config.hidden = 64;
  config.max_len = 64;
  config.eos_bias = 1.0f;
  config.seed = seed;
  return config;
}

std::vector<std::vector<Tensor>> MakeBeamFeeds(
    const ag::workloads::BeamConfig& config, uint64_t seed, int count) {
  Rng rng(seed ^ 0x5eedbea3ULL);
  std::vector<std::vector<Tensor>> feeds;
  for (int i = 0; i < count; ++i) {
    feeds.push_back({rng.Normal(Shape({config.beam, config.hidden})),
                     Tensor::Zeros(Shape({config.beam})),
                     rng.UniformInt(Shape({config.beam}), config.vocab)});
  }
  return feeds;
}

ag::workloads::RnnConfig RnnRequestConfig(uint64_t seed) {
  ag::workloads::RnnConfig config;
  config.batch = 1;
  config.seq_len = 16;
  config.input_size = 64;
  config.hidden = 256;
  config.seed = seed;
  return config;
}

std::vector<std::vector<Tensor>> MakeRnnFeeds(
    const ag::workloads::RnnConfig& config, uint64_t seed, int count) {
  Rng rng(seed ^ 0x5eed7a11ULL);
  std::vector<std::vector<Tensor>> feeds;
  for (int i = 0; i < count; ++i) {
    feeds.push_back(
        {rng.Normal(Shape({config.batch, config.seq_len, config.input_size})),
         rng.Normal(Shape({config.batch, config.hidden}), 0.0f, 0.1f),
         Tensor::Full(Shape({config.batch}),
                      static_cast<float>(config.seq_len), DType::kInt32)});
  }
  return feeds;
}

ag::core::StagedFunction StageDynamicRnn(ag::core::AutoGraph& agc) {
  return agc.Stage("dynamic_rnn",
                   {StageArg::Placeholder("input_data"),
                    StageArg::Placeholder("initial_state"),
                    StageArg::Placeholder("sequence_len", DType::kInt32)});
}

namespace {

// Block templates of the generated function. `{k}` is the block index
// and `{c0}`..`{c3}` its constants; every template reads the float
// placeholder `x` and updates the tensor `total`, so each block stages
// as graph control flow whatever the seed.
const char* const kTemplates[4] = {
    // while with an if/else inside
    "  i{k} = 0.0\n"
    "  while i{k} < x + {c0}:\n"
    "    if i{k} > {c1}:\n"
    "      total = total + i{k} * {c2}\n"
    "    else:\n"
    "      total = total - {c3}\n"
    "    i{k} = i{k} + 1.0\n",
    // if/else on the running value
    "  if total > {c0}:\n"
    "    total = total * {c1}\n"
    "  else:\n"
    "    total = total + {c2}\n",
    // while with an early break
    "  j{k} = 0.0\n"
    "  while j{k} < x:\n"
    "    j{k} = j{k} + {c0}\n"
    "    if j{k} > {c1}:\n"
    "      break\n"
    "  total = total + j{k}\n",
    // nested if
    "  if x > {c0}:\n"
    "    if total < {c1}:\n"
    "      total = total + {c2}\n"
    "    else:\n"
    "      total = total - {c2}\n"
    "  else:\n"
    "    total = total * {c3}\n",
};

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

}  // namespace

std::string GeneratedFunctionSource(uint64_t seed) {
  Rng rng(seed ^ 0x5eedc0deULL);
  std::ostringstream os;
  os << "\ndef generated(x):\n  total = x * 0.5\n";
  for (int k = 0; k < kGeneratedBlocks; ++k) {
    std::string block = kTemplates[k % 4];
    ReplaceAll(&block, "{k}", std::to_string(k));
    for (int c = 0; c < 4; ++c) {
      // Distinct per (block, slot), so no two constants of the function
      // coincide and CSE merges the same nodes for every seed.
      char text[32];
      std::snprintf(text, sizeof(text), "%.3f",
                    1.0 + 0.01 * (k * 4 + c) + 0.001 * rng.NextInt(10));
      ReplaceAll(&block, "{c" + std::to_string(c) + "}", text);
    }
    os << block;
  }
  os << "  return total\n";
  return os.str();
}

ColdStartModule MakeColdStartModule(uint64_t seed) {
  ColdStartModule module;
  module.source = ag::workloads::DynamicRnnSource() +
                  ag::workloads::BeamSearchSource() +
                  GeneratedFunctionSource(seed);
  const ag::workloads::RnnConfig rnn_config = RnnRequestConfig(seed);
  module.rnn = ag::workloads::MakeRnnInputs(rnn_config);
  module.beam_config = BeamDecodeConfig(seed);
  module.beam = ag::workloads::MakeBeamInputs(module.beam_config);
  module.first_feeds = MakeRnnFeeds(rnn_config, seed, 1).front();
  return module;
}

void InstallModuleGlobals(ag::core::AutoGraph& agc,
                          const ColdStartModule& module) {
  using ag::core::Value;
  agc.SetGlobal("w_xh", Value(module.rnn.w_xh));
  agc.SetGlobal("w_hh", Value(module.rnn.w_hh));
  agc.SetGlobal("b_h", Value(module.rnn.b_h));
  const ag::workloads::BeamConfig& beam = module.beam_config;
  agc.SetGlobal("w_tok", Value(module.beam.w_tok));
  agc.SetGlobal("w_ss", Value(module.beam.w_ss));
  agc.SetGlobal("w_so", Value(module.beam.w_so));
  agc.SetGlobal("b_o", Value(module.beam.b_o));
  agc.SetGlobal("beam", Value(beam.beam));
  agc.SetGlobal("vocab", Value(beam.vocab));
  agc.SetGlobal("max_len", Value(beam.max_len));
  agc.SetGlobal("num_beams", Value(static_cast<double>(beam.beam)));
}

std::vector<std::pair<std::string, ag::core::StagedFunction>> StageModule(
    ag::core::AutoGraph& agc) {
  std::vector<std::pair<std::string, ag::core::StagedFunction>> fns;
  fns.emplace_back("rnn_cell",
                   agc.Stage("rnn_cell", {StageArg::Placeholder("x"),
                                          StageArg::Placeholder("h")}));
  fns.emplace_back("dynamic_rnn", StageDynamicRnn(agc));
  fns.emplace_back(
      "beam_search",
      agc.Stage("beam_search",
                {StageArg::Placeholder("state"), StageArg::Placeholder("scores"),
                 StageArg::Placeholder("tokens", DType::kInt32)}));
  fns.emplace_back("generated",
                   agc.Stage("generated", {StageArg::Placeholder("x")}));
  return fns;
}

}  // namespace agbench
