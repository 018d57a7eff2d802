// .agc reader — mmap-first loader for compiled artifacts.
//
// Validation ladder (every rung throws a structured Error(kValue); a
// corrupted or hand-edited artifact must never segfault):
//   1. size / magic / format version / declared-file-size checks;
//   2. section table bounds + table CRC32C;
//   3. per-section CRC32C (catches truncation and byte flips anywhere);
//   4. bounds-checked structural decode — every index (node, graph,
//      step, payload offset) is range-checked against what has already
//      been decoded, and element counts are bounded by the bytes
//      actually present (ByteReader::Count);
//   5. plan/return cross-checks (a plan must have been compiled for the
//      exact return endpoints it is installed against);
//   6. the AGV1xx graph checkers and AGV2xx plan checkers — the same
//      static verifiers `agverify` runs — over everything loaded.
//
// Tensors: with ReadOptions::map_tensors the payload section is served
// zero-copy — each Tensor borrows the file mapping via
// Tensor::FromExternal, and the mapping lives until the last such
// Tensor dies. Mapped buffers report CanReuse()==false, so in-place
// kernels copy instead of mutating the (read-only) file pages.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/bytes.h"
#include "artifact/crc32c.h"
#include "exec/kernels.h"
#include "graph/ops.h"
#include "support/error.h"
#include "verify/plan_verify.h"
#include "verify/verify.h"

namespace ag::artifact {
namespace {

using exec::Session;
using graph::FuncGraph;
using graph::Graph;
using graph::Node;
using graph::Output;

// The bytes of one artifact file: an mmap'd region when the kernel
// allows it, a heap copy otherwise. shared_ptr-owned — with
// map_tensors, every loaded Tensor holds a reference, so the mapping
// outlives the ArtifactModule for exactly as long as any weight does.
struct MappedFile {
  const uint8_t* data = nullptr;
  size_t size = 0;
  void* map_base = nullptr;  // non-null: munmap on destruction
  std::vector<uint8_t> heap;

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (map_base != nullptr) ::munmap(map_base, size);
  }
};

std::shared_ptr<MappedFile> OpenArtifactFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw ValueError("artifact: cannot open '" + path +
                     "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw ValueError("artifact: cannot stat '" + path + "': " + err);
  }
  auto file = std::make_shared<MappedFile>();
  file->size = static_cast<size_t>(st.st_size);
  if (file->size > 0) {
    // MAP_POPULATE prefaults the mapping in one syscall: the checksum
    // pass touches every page anyway, and batching the page-table work
    // beats taking a soft fault per 4 KiB of weights.
#ifdef MAP_POPULATE
    constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
    constexpr int kMapFlags = MAP_PRIVATE;
#endif
    void* base = ::mmap(nullptr, file->size, PROT_READ, kMapFlags, fd, 0);
    if (base != MAP_FAILED) {
      file->map_base = base;
      file->data = static_cast<const uint8_t*>(base);
    } else {
      // Heap fallback: same bytes, same ownership story — external
      // tensors then borrow the heap copy instead of file pages.
      file->heap.resize(file->size);
      size_t done = 0;
      while (done < file->size) {
        const ssize_t n = ::read(fd, file->heap.data() + done,
                                 file->size - done);
        if (n <= 0) {
          ::close(fd);
          throw ValueError("artifact: short read from '" + path + "'");
        }
        done += static_cast<size_t>(n);
      }
      file->data = file->heap.data();
    }
  }
  ::close(fd);
  return file;
}

// Context for resolving tensor payload references.
struct TensorSource {
  const uint8_t* base = nullptr;
  size_t size = 0;
  // Non-null: serve payloads zero-copy, owned by this holder.
  std::shared_ptr<const void> owner;
};

Tensor ReadTensorRef(ByteReader& r, const TensorSource& src) {
  const uint8_t dtype_code = r.U8();
  if (dtype_code > static_cast<uint8_t>(DType::kInt8)) {
    r.Fail("unknown dtype code " + std::to_string(dtype_code));
  }
  const uint32_t rank = r.U32();
  if (rank > 64) r.Fail("implausible tensor rank " + std::to_string(rank));
  std::vector<int64_t> dims(rank);
  int64_t product = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    dims[i] = r.I64();
    if (dims[i] < 0 || (dims[i] > 0 && product > (int64_t{1} << 40) / dims[i])) {
      r.Fail("implausible tensor dimension " + std::to_string(dims[i]));
    }
    product *= dims[i];
  }
  const int64_t elems = r.I64();
  if (elems != product) {
    r.Fail("tensor element count " + std::to_string(elems) +
           " does not match its shape (" + std::to_string(product) + ")");
  }
  const uint64_t offset = r.U64();
  const uint64_t bytes = static_cast<uint64_t>(elems) * sizeof(float);
  if (offset % alignof(float) != 0 || offset > src.size ||
      bytes > src.size - offset) {
    r.Fail("tensor payload [" + std::to_string(offset) + ", +" +
           std::to_string(bytes) + ") escapes the tensor-data section (" +
           std::to_string(src.size) + " bytes)");
  }
  const auto* payload = reinterpret_cast<const float*>(src.base + offset);
  Shape shape{std::move(dims)};
  const auto dtype = static_cast<DType>(dtype_code);
  if (src.owner != nullptr) {
    return Tensor::FromExternal(payload, std::move(shape), dtype, src.owner);
  }
  std::vector<float> values(static_cast<size_t>(elems));
  std::memcpy(values.data(), payload, static_cast<size_t>(bytes));
  return Tensor::FromVector(std::move(values), std::move(shape), dtype);
}

// One function's decoded graph table: graph 0 is the top-level graph,
// the rest are While/Cond (and fused) subgraphs in pre-order — the same
// numbering the writer used, so (graph, node) indices in the plans
// section resolve against it directly.
struct GraphTable {
  std::vector<std::shared_ptr<Graph>> graphs;

  [[nodiscard]] Node* NodeAt(ByteReader& r, uint32_t gi, uint32_t ni) const {
    if (gi >= graphs.size()) {
      r.Fail("graph index " + std::to_string(gi) + " out of range");
    }
    const auto& nodes = graphs[gi]->nodes();
    if (ni >= nodes.size()) {
      r.Fail("node index " + std::to_string(ni) + " out of range for graph " +
             std::to_string(gi));
    }
    return nodes[ni].get();
  }

  [[nodiscard]] Output OutputAt(ByteReader& r, uint32_t gi,
                                uint32_t ni) const {
    Node* node = NodeAt(r, gi, ni);
    const int32_t index = r.I32();
    if (index < 0 || index >= node->num_outputs()) {
      r.Fail("output index " + std::to_string(index) +
             " out of range for node '" + node->name() + "'");
    }
    return Output{node, index};
  }
};

void ReadGraphTable(ByteReader& r, ArtifactFunction& fn, GraphTable& table,
                    const TensorSource& tensors) {
  const uint32_t num_feeds = r.Count(4);
  fn.feed_names.reserve(num_feeds);
  for (uint32_t i = 0; i < num_feeds; ++i) fn.feed_names.push_back(r.Str());
  const uint8_t tuple = r.U8();
  if (tuple > 1) r.Fail("fetch_was_tuple flag out of range");
  fn.fetch_was_tuple = tuple != 0;

  const uint32_t num_graphs = r.Count(2);
  if (num_graphs == 0) r.Fail("function has no graphs");
  // Subgraph attrs reference graphs that decode later (pre-order puts
  // children after parents), so they are recorded here and patched once
  // every graph of the function exists. The strictly-forward constraint
  // checked below doubles as a cycle guard: graph-attr references form
  // a DAG by construction.
  struct SubgraphPatch {
    Node* node;
    std::string key;
    uint32_t graph_index;
  };
  std::vector<SubgraphPatch> patches;

  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    const uint8_t is_func = r.U8();
    if (is_func > 1) r.Fail("graph kind flag out of range");
    std::shared_ptr<Graph> g;
    FuncGraph* fg = nullptr;
    int32_t num_explicit_args = 0;
    if (is_func != 0) {
      num_explicit_args = r.I32();
      if (num_explicit_args < 0) r.Fail("negative num_explicit_args");
      auto owned = std::make_shared<FuncGraph>();
      fg = owned.get();
      g = std::move(owned);
    } else {
      g = std::make_shared<Graph>();
    }
    table.graphs.push_back(g);

    const uint32_t num_nodes = r.Count(8);
    // Optimization passes rewire inputs after nodes are created, so
    // creation order is NOT topological: a node may reference a
    // later-created node. Decode in two passes — create every node
    // first (empty inputs), then patch the recorded input references.
    // Cycles this representation could encode are caught by the AGV101
    // checker that runs over every loaded graph.
    struct PendingInputs {
      Node* node;
      std::vector<std::pair<uint32_t, int32_t>> refs;  // (node, output)
    };
    std::vector<PendingInputs> pending;
    pending.reserve(num_nodes);
    for (uint32_t ni = 0; ni < num_nodes; ++ni) {
      const std::string name = r.Str();
      const std::string op = r.Str();
      const uint32_t num_outputs = r.U32();
      if (num_outputs > (uint32_t{1} << 20)) {
        r.Fail("implausible output count for node '" + name + "'");
      }
      const uint32_t num_inputs = r.Count(8);
      std::vector<std::pair<uint32_t, int32_t>> input_refs;
      input_refs.reserve(num_inputs);
      for (uint32_t i = 0; i < num_inputs; ++i) {
        const uint32_t in_ni = r.U32();
        if (in_ni >= num_nodes) {
          r.Fail("node '" + name + "' input references node " +
                 std::to_string(in_ni) + " out of range");
        }
        input_refs.emplace_back(in_ni, r.I32());
      }
      std::vector<std::pair<int, std::pair<uint8_t, bool>>> out_types;
      out_types.reserve(num_outputs);
      for (uint32_t i = 0; i < num_outputs; ++i) {
        const uint8_t dt = r.U8();
        if (dt > static_cast<uint8_t>(DType::kInt8)) {
          r.Fail("unknown dtype code in node '" + name + "'");
        }
        const uint8_t is_list = r.U8();
        if (is_list > 1) r.Fail("output is_list flag out of range");
        out_types.emplace_back(static_cast<int>(i),
                               std::make_pair(dt, is_list != 0));
      }
      graph::AttrMap attrs;
      std::vector<std::pair<std::string, uint32_t>> node_patches;
      const uint32_t num_attrs = r.Count(5);
      // The writer iterates the node's std::map, so keys arrive sorted:
      // hinting every insert at end() makes each one O(1). A file with
      // unsorted keys (hand-built or corrupted past the CRC) still
      // decodes correctly — a wrong hint only costs the normal lookup.
      for (uint32_t i = 0; i < num_attrs; ++i) {
        std::string key = r.Str();
        const uint8_t tag = r.U8();
        switch (tag) {
          case 0:
            attrs.emplace_hint(attrs.end(), std::move(key), r.I64());
            break;
          case 1:
            attrs.emplace_hint(attrs.end(), std::move(key), r.F64());
            break;
          case 2:
            attrs.emplace_hint(attrs.end(), std::move(key), r.Str());
            break;
          case 3:
            attrs.emplace_hint(attrs.end(), std::move(key),
                               ReadTensorRef(r, tensors));
            break;
          case 4: {
            const uint8_t dt = r.U8();
            if (dt > static_cast<uint8_t>(DType::kInt8)) {
              r.Fail("unknown dtype code in attr '" + key + "'");
            }
            attrs.emplace_hint(attrs.end(), std::move(key),
                               static_cast<DType>(dt));
            break;
          }
          case 5: {
            const uint32_t sub = r.U32();
            if (sub <= gi || sub >= num_graphs) {
              r.Fail("subgraph attr '" + key + "' references graph " +
                     std::to_string(sub) +
                     " (must be a strictly later graph of this function)");
            }
            node_patches.emplace_back(std::move(key), sub);
            break;
          }
          case 6: {
            const uint32_t n = r.Count(4);
            std::vector<int> ints(n);
            for (uint32_t k = 0; k < n; ++k) ints[k] = r.I32();
            attrs.emplace_hint(attrs.end(), std::move(key),
                               std::move(ints));
            break;
          }
          default:
            r.Fail("unknown attr tag " + std::to_string(tag) +
                   " for attr '" + key + "'");
        }
      }
      Node* node = g->AddNamedNode(name, op, /*inputs=*/{},
                                   std::move(attrs),
                                   static_cast<int>(num_outputs));
      for (const auto& [idx, type] : out_types) {
        node->set_output_dtype(idx, static_cast<DType>(type.first));
        node->set_output_is_list(idx, type.second);
      }
      for (auto& [key, sub] : node_patches) {
        patches.push_back(SubgraphPatch{node, std::move(key), sub});
      }
      pending.push_back(PendingInputs{node, std::move(input_refs)});
    }
    for (PendingInputs& p : pending) {
      std::vector<Output> inputs;
      inputs.reserve(p.refs.size());
      for (const auto& [in_ni, out_idx] : p.refs) {
        Node* producer = g->nodes()[in_ni].get();
        if (out_idx < 0 || out_idx >= producer->num_outputs()) {
          r.Fail("node '" + p.node->name() +
                 "' input output-index out of range");
        }
        inputs.push_back(Output{producer, out_idx});
      }
      *p.node->mutable_inputs() = std::move(inputs);
    }

    if (fg != nullptr) {
      fg->set_num_explicit_args(num_explicit_args);
      const uint32_t num_captures = r.Count(12);
      for (uint32_t i = 0; i < num_captures; ++i) {
        const uint32_t cg = r.U32();
        if (cg >= gi) {
          r.Fail("capture references graph " + std::to_string(cg) +
                 " which is not an enclosing graph");
        }
        fg->captures.push_back(table.OutputAt(r, cg, r.U32()));
      }
      const uint32_t num_capture_args = r.Count(4);
      if (num_capture_args != num_captures) {
        r.Fail("capture_args/captures size mismatch");
      }
      for (uint32_t i = 0; i < num_capture_args; ++i) {
        Node* arg = table.NodeAt(r, gi, r.U32());
        if (arg->op() != "Arg") {
          r.Fail("capture arg '" + arg->name() + "' is not an Arg node");
        }
        fg->capture_args.push_back(arg);
      }
      const uint32_t num_returns = r.Count(12);
      for (uint32_t i = 0; i < num_returns; ++i) {
        const uint32_t rg = r.U32();
        if (rg != gi) r.Fail("subgraph return endpoint outside the subgraph");
        fg->returns.push_back(table.OutputAt(r, rg, r.U32()));
      }
    }
  }

  for (const SubgraphPatch& p : patches) {
    p.node->SetAttr(p.key, table.graphs[p.graph_index]);
  }

  const uint32_t num_fetches = r.Count(12);
  fn.fetches.reserve(num_fetches);
  for (uint32_t i = 0; i < num_fetches; ++i) {
    const uint32_t fg_idx = r.U32();
    if (fg_idx != 0) r.Fail("fetch endpoint outside the top-level graph");
    fn.fetches.push_back(table.OutputAt(r, fg_idx, r.U32()));
  }
  fn.graph = table.graphs.front();
}

// exec::BindStep, with a failure (a malformed attr in a file not yet
// verified) reported as an artifact error.
exec::BoundStep Bind(const ByteReader& r, const graph::Node& node) {
  try {
    return exec::BindStep(node);
  } catch (const Error& e) {
    r.Fail("plan step for node '" + node.name() + "': " + e.message());
  }
}

Session::Plan ReadPlan(ByteReader& r, const GraphTable& table) {
  Session::Plan plan;
  const uint32_t num_steps = r.Count(18);
  const int steps_total = static_cast<int>(num_steps);
  plan.steps.reserve(num_steps);
  for (uint32_t si = 0; si < num_steps; ++si) {
    const uint32_t gi = r.U32();
    const uint32_t ni = r.U32();
    const graph::Node* node = table.NodeAt(r, gi, ni);
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(Session::Plan::Kind::kAssign)) {
      r.Fail("unknown plan step kind " + std::to_string(kind));
    }
    // The op table's kind, the one CompilePlan assigns: a kind byte that
    // disagrees is rejected before it can misexecute.
    if (static_cast<Session::Plan::Kind>(kind) !=
        graph::KindForOp(node->op())) {
      r.Fail("plan step kind disagrees with op '" + node->op() +
             "' of node '" + node->name() + "'");
    }
    // Kernel pointers and decoded attrs are process-local: bound here
    // exactly as CompilePlan binds them, never serialized. A kernel op
    // with no registered kernel fails the bind.
    Session::Plan::Step step(Bind(r, *node));
    const uint32_t num_inputs = r.Count(9);
    step.inputs.reserve(num_inputs);
    for (uint32_t i = 0; i < num_inputs; ++i) {
      Session::Plan::InputRef in{r.I32(), r.I32()};
      if (in.step < -1 || in.step >= static_cast<int>(si)) {
        // Plan order is topological: inputs reference earlier steps
        // only (or -1 for function args).
        r.Fail("plan step input references step " +
               std::to_string(in.step) + " out of order");
      }
      if (in.output < 0) r.Fail("negative plan input output index");
      if (in.step >= 0 &&
          in.output >= plan.steps[static_cast<size_t>(in.step)]
                           .node->num_outputs()) {
        r.Fail("plan input output index out of range");
      }
      step.inputs.push_back(in);
    }
    step.input_move.reserve(num_inputs);
    for (uint32_t i = 0; i < num_inputs; ++i) {
      const uint8_t m = r.U8();
      if (m > Session::Plan::kMoveAlways) {
        r.Fail("unknown input move flag " + std::to_string(m));
      }
      step.input_move.push_back(m);
    }
    const uint32_t num_succ = r.Count(4);
    step.successors.reserve(num_succ);
    for (uint32_t i = 0; i < num_succ; ++i) {
      const int32_t s = r.I32();
      if (s < 0 || s >= steps_total) {
        r.Fail("plan successor index out of range");
      }
      step.successors.push_back(s);
    }
    step.pending_init = r.I32();
    if (step.pending_init < 0 || step.pending_init > steps_total) {
      r.Fail("plan pending count out of range");
    }
    plan.steps.push_back(std::move(step));
  }
  const uint32_t num_returns = r.Count(8);
  plan.returns.reserve(num_returns);
  for (uint32_t i = 0; i < num_returns; ++i) {
    Session::Plan::InputRef ret{r.I32(), r.I32()};
    if (ret.step < -1 || ret.step >= steps_total) {
      r.Fail("plan return references step out of range");
    }
    if (ret.output < 0) r.Fail("negative plan return output index");
    if (ret.step >= 0 &&
        ret.output >=
            plan.steps[static_cast<size_t>(ret.step)].node->num_outputs()) {
      r.Fail("plan return output index out of range");
    }
    plan.returns.push_back(ret);
  }
  plan.returns_move.reserve(num_returns);
  for (uint32_t i = 0; i < num_returns; ++i) {
    const uint8_t m = r.U8();
    if (m > 1) r.Fail("unknown return move flag");
    plan.returns_move.push_back(m);
  }
  const uint32_t args_used = r.Count(1);
  plan.args_used.reserve(args_used);
  for (uint32_t i = 0; i < args_used; ++i) {
    plan.args_used.push_back(static_cast<char>(r.U8() != 0 ? 1 : 0));
  }
  return plan;
}

// A deserialized plan is only installed against return endpoints it was
// actually compiled for: each plan return must resolve to the same
// (node, output index) the graph-side return list names. This closes
// the CRC-valid-but-reshuffled hole (e.g. a hand-edited artifact
// pairing a plan with the wrong subgraph) that the per-plan AGV
// checkers — which never see the graph-side returns — cannot.
void CheckPlanMatchesReturns(ByteReader& r, const Session::Plan& plan,
                             const std::vector<Output>& returns,
                             const std::string& what) {
  if (plan.returns.size() != returns.size()) {
    r.Fail(what + ": plan returns " + std::to_string(plan.returns.size()) +
           " values, graph expects " + std::to_string(returns.size()));
  }
  for (size_t i = 0; i < returns.size(); ++i) {
    const auto& ret = plan.returns[i];
    const Output& expect = returns[i];
    if (ret.step < 0) {
      // Pass-through of a function argument: legal only when the
      // graph-side return is the matching Arg endpoint.
      if (expect.node->op() != "Arg" ||
          expect.node->attr<int64_t>("index") != ret.output) {
        r.Fail(what + ": plan return " + std::to_string(i) +
               " passes through an argument the graph does not return");
      }
      continue;
    }
    const auto& step = plan.steps[static_cast<size_t>(ret.step)];
    if (step.node != expect.node || ret.output != expect.index) {
      r.Fail(what + ": plan return " + std::to_string(i) +
             " resolves to '" + step.node->name() +
             "' but the graph returns '" + expect.node->name() + "'");
    }
  }
}

struct SectionView {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

std::string HumanBytes(uint64_t n) {
  std::ostringstream os;
  if (n >= (uint64_t{1} << 20)) {
    os << (n >> 20) << "." << ((n & ((uint64_t{1} << 20) - 1)) * 10 >> 20)
       << " MiB";
  } else if (n >= 1024) {
    os << (n >> 10) << "." << ((n & 1023) * 10 >> 10) << " KiB";
  } else {
    os << n << " B";
  }
  return os.str();
}

}  // namespace

std::string InspectInfo::DebugString() const {
  std::ostringstream os;
  os << "agc artifact: format v" << format_version << ", " << file_size
     << " bytes\n";
  os << "  producer: " << producer << "\n";
  os << "  source:   " << (source_path.empty() ? "<unknown>" : source_path)
     << "\n";
  os << "  pipeline: " << (pipeline.empty() ? "<default>" : pipeline)
     << "\n";
  os << "sections:\n";
  for (const SectionInfo& s : sections) {
    os << "  " << s.name;
    for (size_t pad = s.name.size(); pad < 10; ++pad) os << ' ';
    os << " offset=" << s.offset << " size=" << s.size << " ("
       << HumanBytes(s.size) << ") crc=0x" << std::hex << s.crc << std::dec
       << (s.crc_ok ? " ok" : " MISMATCH") << "\n";
  }
  os << "functions (" << functions.size() << "):\n";
  for (const FunctionInfo& f : functions) {
    os << "  " << f.name << ": feeds=" << f.feeds << " graphs=" << f.graphs
       << " nodes=" << f.nodes << " top_plan_steps=" << f.top_plan_steps
       << " sub_plans=" << f.sub_plans << " (steps=" << f.sub_plan_steps
       << ") variables=" << f.variables << "\n";
  }
  os << "tensor data: " << HumanBytes(tensor_bytes) << "\n";
  return os.str();
}

ArtifactModule ReadArtifact(const std::string& path,
                            const ReadOptions& options, InspectInfo* info) {
  std::shared_ptr<MappedFile> file = OpenArtifactFile(path);
  InspectInfo local_info;
  InspectInfo& out_info = info != nullptr ? *info : local_info;
  out_info = InspectInfo{};
  out_info.file_size = file->size;

  if (file->size < kHeaderBytes) {
    throw ValueError("artifact: '" + path + "' is too small to be an "
                     "artifact (" + std::to_string(file->size) + " bytes)");
  }
  ByteReader header(file->data, kHeaderBytes, "header of '" + path + "'");
  const uint32_t magic = header.U32();
  if (magic != kMagic) {
    throw ValueError("artifact: '" + path +
                     "' is not an AutoGraph artifact (bad magic)");
  }
  const uint32_t version = header.U32();
  out_info.format_version = version;
  if (version != kFormatVersion) {
    throw ValueError(
        "artifact: '" + path + "' uses format version " +
        std::to_string(version) + ", but this build only reads version " +
        std::to_string(kFormatVersion) +
        " — recompile the artifact with this build's agc");
  }
  header.U32();  // flags (reserved)
  const uint32_t section_count = header.U32();
  const uint64_t declared_size = header.U64();
  const uint32_t table_crc = header.U32();
  if (declared_size != file->size) {
    throw ValueError("artifact: '" + path + "' is truncated: header "
                     "declares " + std::to_string(declared_size) +
                     " bytes, file has " + std::to_string(file->size));
  }
  if (section_count == 0 || section_count > 4096) {
    throw ValueError("artifact: '" + path + "' has an implausible section "
                     "count (" + std::to_string(section_count) + ")");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > file->size) {
    throw ValueError("artifact: '" + path +
                     "' section table extends past end of file");
  }
  if (options.verify_checksums &&
      Crc32c(file->data + kHeaderBytes, table_bytes) != table_crc) {
    throw ValueError("artifact: '" + path +
                     "' section table checksum mismatch (corrupted file)");
  }

  ByteReader table(file->data + kHeaderBytes, table_bytes,
                   "section table of '" + path + "'");
  std::map<uint32_t, SectionView> views;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionInfo s;
    s.id = table.U32();
    s.crc = table.U32();
    s.offset = table.U64();
    s.size = table.U64();
    s.name = SectionName(s.id);
    if (s.offset < kHeaderBytes + table_bytes || s.offset > file->size ||
        s.size > file->size - s.offset) {
      throw ValueError("artifact: '" + path + "' section '" + s.name +
                       "' extends past end of file");
    }
    s.crc_ok = !options.verify_checksums ||
               Crc32c(file->data + s.offset, s.size) == s.crc;
    out_info.sections.push_back(s);
    if (!s.crc_ok) {
      throw ValueError("artifact: '" + path + "' section '" + s.name +
                       "' checksum mismatch (corrupted file)");
    }
    if (!views.emplace(s.id, SectionView{file->data + s.offset, s.size})
             .second) {
      throw ValueError("artifact: '" + path + "' has a duplicate '" +
                       s.name + "' section");
    }
  }
  for (const SectionId required :
       {SectionId::kMeta, SectionId::kGraphs, SectionId::kPlans,
        SectionId::kVariables, SectionId::kTensorData}) {
    if (views.count(static_cast<uint32_t>(required)) == 0) {
      throw ValueError("artifact: '" + path + "' is missing the '" +
                       SectionName(static_cast<uint32_t>(required)) +
                       "' section");
    }
  }

  const SectionView meta_view = views.at(static_cast<uint32_t>(SectionId::kMeta));
  const SectionView graphs_view =
      views.at(static_cast<uint32_t>(SectionId::kGraphs));
  const SectionView plans_view =
      views.at(static_cast<uint32_t>(SectionId::kPlans));
  const SectionView vars_view =
      views.at(static_cast<uint32_t>(SectionId::kVariables));
  const SectionView tensor_view =
      views.at(static_cast<uint32_t>(SectionId::kTensorData));
  out_info.tensor_bytes = tensor_view.size;

  TensorSource tensors;
  tensors.base = tensor_view.data;
  tensors.size = tensor_view.size;
  if (options.map_tensors) tensors.owner = file;

  ArtifactModule module;

  ByteReader meta(meta_view.data, meta_view.size, "meta section");
  module.producer = meta.Str();
  module.source_path = meta.Str();
  module.pipeline = meta.Str();
  out_info.producer = module.producer;
  out_info.source_path = module.source_path;
  out_info.pipeline = module.pipeline;
  const uint32_t num_functions = meta.Count(4);
  std::vector<std::string> meta_names;
  meta_names.reserve(num_functions);
  for (uint32_t i = 0; i < num_functions; ++i) {
    meta_names.push_back(meta.Str());
  }

  ByteReader graphs(graphs_view.data, graphs_view.size, "graphs section");
  if (graphs.Count(4) != num_functions) {
    graphs.Fail("function count disagrees with the meta section");
  }
  std::vector<GraphTable> tables(num_functions);
  for (uint32_t i = 0; i < num_functions; ++i) {
    ArtifactFunction fn;
    fn.name = graphs.Str();
    if (fn.name != meta_names[i]) {
      graphs.Fail("function name '" + fn.name +
                  "' disagrees with the meta section ('" + meta_names[i] +
                  "')");
    }
    ReadGraphTable(graphs, fn, tables[i], tensors);
    module.functions.push_back(std::move(fn));
  }

  ByteReader plans(plans_view.data, plans_view.size, "plans section");
  if (plans.Count(4) != num_functions) {
    plans.Fail("function count disagrees with the meta section");
  }
  for (uint32_t i = 0; i < num_functions; ++i) {
    ArtifactFunction& fn = module.functions[i];
    fn.top_plan = ReadPlan(plans, tables[i]);
    CheckPlanMatchesReturns(plans, fn.top_plan, fn.fetches,
                            "function '" + fn.name + "' top plan");
    for (const auto& ret : fn.top_plan.returns) {
      if (ret.step < 0) {
        plans.Fail("function '" + fn.name +
                   "' top plan returns a function argument");
      }
    }
    const uint32_t num_sub = plans.Count(8);
    for (uint32_t s = 0; s < num_sub; ++s) {
      const uint32_t gi = plans.U32();
      if (gi >= tables[i].graphs.size()) {
        plans.Fail("sub-plan graph index out of range");
      }
      auto* fg = dynamic_cast<FuncGraph*>(tables[i].graphs[gi].get());
      if (fg == nullptr) {
        plans.Fail("sub-plan attached to a non-function graph");
      }
      for (const auto& [existing, plan] : fn.sub_plans) {
        if (existing == fg) plans.Fail("duplicate sub-plan for one graph");
      }
      Session::Plan plan = ReadPlan(plans, tables[i]);
      CheckPlanMatchesReturns(plans, plan, fg->returns,
                              "function '" + fn.name + "' sub-plan " +
                                  std::to_string(s));
      fn.sub_plans.emplace_back(fg, std::move(plan));
    }
  }

  ByteReader vars(vars_view.data, vars_view.size, "variables section");
  if (vars.Count(4) != num_functions) {
    vars.Fail("function count disagrees with the meta section");
  }
  for (uint32_t i = 0; i < num_functions; ++i) {
    const uint32_t num_vars = vars.Count(8);
    for (uint32_t v = 0; v < num_vars; ++v) {
      std::string name = vars.Str();
      Tensor value = ReadTensorRef(vars, tensors);
      module.functions[i].variables.emplace(std::move(name),
                                            std::move(value));
    }
  }

  // Inspection record before the (optional) semantic verification so
  // `agc inspect` can describe even artifacts that fail AGV checks.
  for (uint32_t i = 0; i < num_functions; ++i) {
    const ArtifactFunction& fn = module.functions[i];
    FunctionInfo fi;
    fi.name = fn.name;
    fi.feeds = fn.feed_names.size();
    fi.graphs = tables[i].graphs.size();
    for (const auto& g : tables[i].graphs) fi.nodes += g->num_nodes();
    fi.top_plan_steps = fn.top_plan.steps.size();
    fi.sub_plans = fn.sub_plans.size();
    for (const auto& [g, p] : fn.sub_plans) {
      fi.sub_plan_steps += p.steps.size();
    }
    fi.variables = fn.variables.size();
    out_info.functions.push_back(fi);
  }

  if (options.verify) {
    for (const ArtifactFunction& fn : module.functions) {
      const auto graph_findings =
          verify::VerifyGraphAndRoots(*fn.graph, fn.fetches);
      if (!graph_findings.empty()) {
        throw ValueError("artifact: loaded graph for function '" + fn.name +
                         "' failed verification (" +
                         std::to_string(graph_findings.size()) +
                         " finding(s)):\n" +
                         verify::FormatFindings(graph_findings));
      }
      verify::PlanVerifyOptions top_opts;
      top_opts.allow_args = false;
      const auto top_findings = verify::VerifyPlan(fn.top_plan, top_opts);
      if (!top_findings.empty()) {
        throw ValueError("artifact: loaded top plan for function '" +
                         fn.name + "' failed verification (" +
                         std::to_string(top_findings.size()) +
                         " finding(s)):\n" +
                         verify::FormatFindings(top_findings));
      }
      for (size_t s = 0; s < fn.sub_plans.size(); ++s) {
        verify::PlanVerifyOptions sub_opts;
        sub_opts.allow_args = true;
        const auto findings =
            verify::VerifyPlan(fn.sub_plans[s].second, sub_opts);
        if (!findings.empty()) {
          throw ValueError("artifact: loaded sub-plan " + std::to_string(s) +
                           " for function '" + fn.name +
                           "' failed verification (" +
                           std::to_string(findings.size()) +
                           " finding(s)):\n" +
                           verify::FormatFindings(findings));
        }
      }
    }
  }

  return module;
}

}  // namespace ag::artifact
