// Seeded inputs of the agbench workloads: weights, request feeds, and
// the cold-start module (the RNN pair, beam_search and a generated
// function of 32 while/if blocks). The same seed gives the same inputs;
// the program under test only ever sees what these functions return.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"

namespace agbench {

// Appendix D.1 beam search: vocab 128, beam 8, hidden 64, max_len 64,
// eos_bias 1.0; weights from `seed`.
[[nodiscard]] ag::workloads::BeamConfig BeamDecodeConfig(uint64_t seed);

// Start states of `count` searches (state, scores, tokens), all drawn
// from `seed` — the per-op inputs of beam_decode.
[[nodiscard]] std::vector<std::vector<ag::Tensor>> MakeBeamFeeds(
    const ag::workloads::BeamConfig& config, uint64_t seed, int count);

// dynamic_rnn with batch 1, seq_len 16, input 64, hidden 256; weights
// from `seed`.
[[nodiscard]] ag::workloads::RnnConfig RnnRequestConfig(uint64_t seed);

// `count` dynamic_rnn requests (input_data, initial_state,
// sequence_len), every sequence full length so cross-request batches
// stay row-wise.
[[nodiscard]] std::vector<std::vector<ag::Tensor>> MakeRnnFeeds(
    const ag::workloads::RnnConfig& config, uint64_t seed, int count);

// Stages dynamic_rnn (the served function) with typed placeholders.
[[nodiscard]] ag::core::StagedFunction StageDynamicRnn(
    ag::core::AutoGraph& agc);

// Number of while/if blocks in the generated cold-start function.
inline constexpr int kGeneratedBlocks = 32;

// `def generated(x)`: kGeneratedBlocks blocks cycling through four
// fixed templates. The seed picks the constants only: shuffling the
// block order changed the cost of staging the module by 12-15% between
// seeds, and each benchmark run uses another seed.
[[nodiscard]] std::string GeneratedFunctionSource(uint64_t seed);

// The cold-start module: its source, its globals, and the feeds of the
// first dynamic_rnn request.
struct ColdStartModule {
  std::string source;
  ag::workloads::RnnInputs rnn;
  ag::workloads::BeamConfig beam_config;
  ag::workloads::BeamInputs beam;
  std::vector<ag::Tensor> first_feeds;
};

[[nodiscard]] ColdStartModule MakeColdStartModule(uint64_t seed);

// Binds the module's weights and hyperparameters as globals.
void InstallModuleGlobals(ag::core::AutoGraph& agc,
                          const ColdStartModule& module);

// Stages every top-level function of the module, as a serving process
// does before its first request: rnn_cell, dynamic_rnn, beam_search and
// generated, in that order.
[[nodiscard]] std::vector<std::pair<std::string, ag::core::StagedFunction>>
StageModule(ag::core::AutoGraph& agc);

}  // namespace agbench
