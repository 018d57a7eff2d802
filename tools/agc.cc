// agc — compile PyMini modules to .agc artifacts, and inspect them.
//
// Usage:
//   agc compile <model.pym> -o <model.agc> [--passes=SPEC] [--fn=NAME]
//   agc inspect <model.agc>
//   agc corrupt <model.agc> -o <out.agc> --mode=MODE [--section=NAME]
//
// compile stages every top-level function of the module (one float32
// placeholder per parameter, like agserve) and serializes the optimized
// graphs, every compiled execution plan, the variable snapshots, and
// the tensor payloads into one .agc container — everything a loader
// needs to serve the module with zero parse/trace/optimize/plan-compile
// work. --passes selects the optimization pipeline (same grammar as
// agprof/agverify: "licm,cse,-dce", "-fusion"); --fn compiles only one
// function.
//
// inspect prints the artifact's section table (sizes, checksums), meta
// (producer, source, pass pipeline), and per-function plan statistics.
//
// corrupt is the testing aid behind CI's corrupt-artifact regressions
// (the artifact analog of `agverify --inject`): it makes one precise
// mutation that a correct loader must detect. Modes:
//   flip      flip one payload byte in --section=NAME  -> CRC mismatch
//   truncate  drop the file's last 16 bytes            -> size mismatch
//   magic     overwrite the header magic               -> not an artifact
//   version   bump the format version                  -> clear refusal
//
// Exit status: 0 on success, 1 on a detected failure (inspect on a bad
// artifact, compile finding nothing stageable), 2 on usage/IO problems.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/crc32c.h"
#include "core/api.h"
#include "core/artifact_io.h"
#include "graph/optimize.h"
#include "lang/parser.h"

namespace {

void PrintUsage() {
  std::cerr
      << "usage: agc compile <model.pym> -o <model.agc> [--passes=SPEC]\n"
         "                   [--fn=NAME]\n"
         "       agc inspect <model.agc>\n"
         "       agc corrupt <model.agc> -o <out.agc> --mode=MODE\n"
         "                   [--section=NAME]\n"
         "  -o FILE         output artifact path\n"
         "  --passes=SPEC   optimization pipeline (e.g. licm,cse,-dce);\n"
         "                  default: full pipeline\n"
         "  --fn=NAME       compile only this function\n"
         "  --mode=MODE     corruption to apply: flip | truncate | magic\n"
         "                  | version\n"
         "  --section=NAME  section for --mode=flip: meta | graphs |\n"
         "                  plans | variables | tensors\n";
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(
             static_cast<uint8_t>(bytes[offset + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(
             static_cast<uint8_t>(bytes[offset + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

int Compile(const std::string& input, const std::string& output,
            const std::string& passes_spec, const std::string& only_fn) {
  std::string source;
  if (!ReadFile(input, &source)) {
    std::cerr << "agc: cannot read " << input << "\n";
    return 2;
  }
  ag::core::StageOptions stage_options;
  if (!passes_spec.empty()) {
    try {
      stage_options.optimize_options.pipeline =
          ag::PipelineSpec::Parse(passes_spec);
      ag::graph::CheckGraphPipeline(stage_options.optimize_options.pipeline);
    } catch (const ag::Error& e) {
      std::cerr << "agc: " << e.what() << "\n";
      return 2;
    }
  }

  ag::core::AutoGraph agc;
  agc.LoadSource(source, input);
  const ag::lang::ModulePtr module = ag::lang::ParseStr(source, input);
  std::vector<std::pair<std::string, ag::core::StagedFunction>> staged;
  for (const ag::lang::StmtPtr& stmt : module->body) {
    if (stmt->kind != ag::lang::StmtKind::kFunctionDef) continue;
    const std::string name =
        ag::lang::Cast<ag::lang::FunctionDefStmt>(stmt)->name;
    if (!only_fn.empty() && name != only_fn) continue;
    try {
      const size_t num_params =
          agc.GetGlobal(name).AsFunction()->params.size();
      std::vector<ag::core::StageArg> args;
      args.reserve(num_params);
      for (size_t i = 0; i < num_params; ++i) {
        args.push_back(
            ag::core::StageArg::Placeholder("arg" + std::to_string(i)));
      }
      staged.emplace_back(name, agc.Stage(name, args, stage_options));
    } catch (const ag::Error& e) {
      std::cerr << "agc: warning: cannot stage " << name << ": "
                << e.what() << "\n";
    }
  }
  if (staged.empty()) {
    std::cerr << "agc: no stageable functions in " << input << "\n";
    return 1;
  }

  ag::core::SaveArtifactOptions save_options;
  save_options.source_path = input;
  save_options.pipeline = passes_spec;
  std::vector<std::pair<std::string, const ag::core::StagedFunction*>> refs;
  refs.reserve(staged.size());
  for (const auto& [name, sf] : staged) refs.emplace_back(name, &sf);
  try {
    ag::core::SaveArtifact(output, refs, save_options);
  } catch (const ag::Error& e) {
    std::cerr << "agc: " << e.what() << "\n";
    return 2;
  }
  std::cout << "agc: compiled " << staged.size() << " function(s) from "
            << input << " -> " << output << "\n";
  return 0;
}

int Inspect(const std::string& input) {
  ag::artifact::InspectInfo info;
  try {
    (void)ag::artifact::ReadArtifact(input, {}, &info);
  } catch (const ag::Error& e) {
    std::cerr << "agc: " << e.what() << "\n";
    return 1;
  }
  std::cout << info.DebugString();
  return 0;
}

int Corrupt(const std::string& input, const std::string& output,
            const std::string& mode, const std::string& section) {
  std::string bytes;
  if (!ReadFile(input, &bytes)) {
    std::cerr << "agc: cannot read " << input << "\n";
    return 2;
  }
  if (bytes.size() < ag::artifact::kHeaderBytes) {
    std::cerr << "agc: " << input << " is too small to be an artifact\n";
    return 2;
  }
  if (mode == "truncate") {
    bytes.resize(bytes.size() > 16 ? bytes.size() - 16 : 0);
  } else if (mode == "magic") {
    bytes[0] = 'X';
  } else if (mode == "version") {
    bytes[4] = static_cast<char>(static_cast<uint8_t>(bytes[4]) + 1);
  } else if (mode == "flip") {
    // Find the named section via the table and flip one byte in the
    // middle of its payload, leaving the recorded CRC stale.
    const uint32_t section_count = ReadU32(bytes, 12);
    bool flipped = false;
    for (uint32_t i = 0; i < section_count; ++i) {
      const size_t entry = ag::artifact::kHeaderBytes +
                           static_cast<size_t>(i) *
                               ag::artifact::kSectionEntryBytes;
      if (entry + ag::artifact::kSectionEntryBytes > bytes.size()) break;
      const uint32_t id = ReadU32(bytes, entry);
      if (section != ag::artifact::SectionName(id)) continue;
      const uint64_t offset = ReadU64(bytes, entry + 8);
      const uint64_t size = ReadU64(bytes, entry + 16);
      if (size == 0 || offset + size > bytes.size()) {
        std::cerr << "agc: section '" << section << "' is empty or "
                     "out of bounds\n";
        return 2;
      }
      bytes[offset + size / 2] =
          static_cast<char>(bytes[offset + size / 2] ^ 0x5A);
      flipped = true;
      break;
    }
    if (!flipped) {
      std::cerr << "agc: no section named '" << section << "' in "
                << input << "\n";
      return 2;
    }
  } else {
    std::cerr << "agc: unknown --mode '" << mode << "'\n";
    return 2;
  }
  if (!WriteFile(output, bytes)) {
    std::cerr << "agc: cannot write " << output << "\n";
    return 2;
  }
  std::cout << "agc: wrote corrupted (" << mode << ") artifact to "
            << output << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  std::string input;
  std::string output;
  std::string passes;
  std::string only_fn;
  std::string mode;
  std::string section = "tensors";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "-o") {
      if (i + 1 >= argc) {
        std::cerr << "agc: -o needs a path\n";
        return 2;
      }
      output = argv[++i];
    } else if (arg.rfind("--passes=", 0) == 0) {
      passes = arg.substr(9);
    } else if (arg.rfind("--fn=", 0) == 0) {
      only_fn = arg.substr(5);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--section=", 0) == 0) {
      section = arg.substr(10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "agc: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::cerr << "agc: more than one input file\n";
      return 2;
    }
  }
  if (input.empty()) {
    PrintUsage();
    return 2;
  }
  if (command == "compile") {
    if (output.empty()) {
      std::cerr << "agc: compile needs -o <model.agc>\n";
      return 2;
    }
    return Compile(input, output, passes, only_fn);
  }
  if (command == "inspect") {
    return Inspect(input);
  }
  if (command == "corrupt") {
    if (output.empty() || mode.empty()) {
      std::cerr << "agc: corrupt needs -o <out.agc> and --mode=MODE\n";
      return 2;
    }
    return Corrupt(input, output, mode, section);
  }
  std::cerr << "agc: unknown command '" << command << "'\n";
  PrintUsage();
  return 2;
}
