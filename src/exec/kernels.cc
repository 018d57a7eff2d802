#include "exec/kernels.h"

#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <unordered_map>

#include "graph/fusion.h"
#include "support/error.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"

namespace ag::exec {

namespace {
thread_local RngRunState* t_rng_run_state = nullptr;
}  // namespace

RngRunScope::RngRunScope(RngRunState* state) : previous_(t_rng_run_state) {
  t_rng_run_state = state;
}

RngRunScope::~RngRunScope() { t_rng_run_state = previous_; }

RngRunState* CurrentRngRunState() { return t_rng_run_state; }

namespace {

using graph::Node;

// ---- counter-based random streams ----
//
// splitmix64: a cheap, well-mixed 64-bit finalizer; seeds one fresh
// engine per (node stream, invocation) pair.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stream id for a random node: FNV-1a over the node name (stable across
// stagings — node names are deterministic), salted per op kind and by an
// optional "seed" attr.
uint64_t NodeStreamSeed(const Node& n, uint64_t salt) {
  uint64_t h = 1469598103934665603ULL ^ salt;
  for (char c : n.name()) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  if (n.HasAttr("seed")) {
    h ^= Mix64(static_cast<uint64_t>(n.attr<int64_t>("seed")));
  }
  return h;
}

// This node's invocation index within the current run (or within the
// process-wide fallback stream when no run is active).
uint64_t NextRngInvocation(const Node& n) {
  RngRunState* state = t_rng_run_state;
  if (state == nullptr) {
    static auto* fallback = new RngRunState();
    state = fallback;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  return state->counts[&n]++;
}

template <typename Dist>
Tensor FillRandom(const Node& n, uint64_t salt, Dist dist) {
  std::mt19937_64 engine(
      Mix64(NodeStreamSeed(n, salt) + Mix64(NextRngInvocation(n))));
  const std::vector<int>& dims = n.attr<std::vector<int>>("shape");
  std::vector<int64_t> d64(dims.begin(), dims.end());
  Shape shape{std::move(d64)};
  std::vector<float> out(static_cast<size_t>(shape.num_elements()));
  for (float& v : out) v = dist(engine);
  return Tensor::FromVector(std::move(out), std::move(shape));
}

// Writes a one-output kernel's result into the step's slot (keeping the
// slot's capacity; see Kernel).
void One(std::vector<RuntimeValue>& out, RuntimeValue value) {
  out.clear();
  out.push_back(std::move(value));
}

void Two(std::vector<RuntimeValue>& out, RuntimeValue a, RuntimeValue b) {
  out.clear();
  out.push_back(std::move(a));
  out.push_back(std::move(b));
}

using In = std::vector<RuntimeValue>;

Kernel Unary(Tensor (*fn)(const Tensor&)) {
  return [fn](const BoundStep&, In& in, In& out) {
    One(out, fn(AsTensor(in[0])));
  };
}

Kernel Binary(Tensor (*fn)(const Tensor&, const Tensor&)) {
  return [fn](const BoundStep&, In& in, In& out) {
    One(out, fn(AsTensor(in[0]), AsTensor(in[1])));
  };
}

// Moving adapters for ops with in-place rvalue overloads. The
// function-pointer parameter type picks the && overload out of the
// overload set, and TakeTensor hands the op whatever ownership the
// executor left in the input slot: sole-owned when this step was the
// value's last use (liveness moved it in), shared otherwise — the op's
// own refcount check then decides between in-place and copy.
Kernel UnaryM(Tensor (*fn)(Tensor&&)) {
  return [fn](const BoundStep&, In& in, In& out) {
    One(out, fn(TakeTensor(in[0])));
  };
}

Kernel BinaryM(Tensor (*fn)(Tensor&&, Tensor&&)) {
  return [fn](const BoundStep&, In& in, In& out) {
    One(out, fn(TakeTensor(in[0]), TakeTensor(in[1])));
  };
}

Kernel Reduce(Tensor (*fn)(const Tensor&, int, bool)) {
  return [fn](const BoundStep& b, In& in, In& out) {
    One(out, fn(AsTensor(in[0]), b.axis, b.keepdims));
  };
}

const std::unordered_map<std::string, Kernel>& Registry() {
  static const auto* kRegistry = [] {
    auto* r = new std::unordered_map<std::string, Kernel>();
    auto& reg = *r;

    reg["Const"] = [](const BoundStep& b, In&, In& out) { One(out, b.value); };
    reg["NoOp"] = [](const BoundStep&, In&, In& out) {
      One(out, Tensor::Scalar(0.0f));
    };

    // Elementwise binary — moving adapters so dead inputs are reused.
    reg["Add"] = BinaryM(&Add);
    reg["Sub"] = BinaryM(&Sub);
    reg["Mul"] = BinaryM(&Mul);
    reg["Div"] = BinaryM(&Div);
    reg["FloorDiv"] = BinaryM(&FloorDiv);
    reg["Mod"] = BinaryM(&Mod);
    reg["Pow"] = BinaryM(&Pow);
    reg["Maximum"] = BinaryM(&Maximum);
    reg["Minimum"] = BinaryM(&Minimum);
    reg["Less"] = BinaryM(&Less);
    reg["LessEqual"] = BinaryM(&LessEqual);
    reg["Greater"] = BinaryM(&Greater);
    reg["GreaterEqual"] = BinaryM(&GreaterEqual);
    reg["Equal"] = BinaryM(&Equal);
    reg["NotEqual"] = BinaryM(&NotEqual);
    reg["LogicalAnd"] = BinaryM(&LogicalAnd);
    reg["LogicalOr"] = BinaryM(&LogicalOr);

    // Elementwise unary.
    reg["Neg"] = UnaryM(&Neg);
    reg["Exp"] = UnaryM(&Exp);
    reg["Log"] = UnaryM(&Log);
    reg["Tanh"] = UnaryM(&Tanh);
    reg["Sigmoid"] = UnaryM(&Sigmoid);
    reg["Relu"] = UnaryM(&Relu);
    reg["Sqrt"] = UnaryM(&Sqrt);
    reg["Abs"] = UnaryM(&Abs);
    reg["Square"] = UnaryM(&Square);
    reg["Sin"] = UnaryM(&Sin);
    reg["Cos"] = UnaryM(&Cos);
    reg["LogicalNot"] = UnaryM(&LogicalNot);
    reg["Softmax"] = Unary(&Softmax);
    reg["LogSoftmax"] = Unary(&LogSoftmax);

    // Whole elementwise chains collapsed by the fusion pass: one kernel
    // invocation, zero intermediate tensors. The inputs move into a
    // per-thread buffer that keeps its capacity, so a call allocates no
    // vector, and FusedEval takes them by reference, so a dead
    // full-shape operand's buffer becomes the output. FusedEval runs no
    // kernel, so one thread never uses the buffer twice at once; it is
    // emptied when the step ends, so it holds no input past it.
    reg["FusedElementwise"] = [](const BoundStep& b, In& in, In& out) {
      thread_local std::vector<Tensor> inputs;
      struct Drop {
        ~Drop() { inputs.clear(); }
      } drop;
      for (RuntimeValue& v : in) inputs.push_back(TakeTensor(v));
      One(out, FusedEval(*b.program, inputs));
    };

    reg["MatMul"] = Binary(&MatMul);
    reg["Quantize"] = [](const BoundStep& b, In& in, In& out) {
      const Node& n = *b.node;
      One(out, Quantize(AsTensor(in[0]),
                        static_cast<float>(n.attr<double>("scale")),
                        static_cast<int32_t>(n.attr<int64_t>("zero_point"))));
    };
    reg["Dequantize"] = [](const BoundStep& b, In& in, In& out) {
      const Node& n = *b.node;
      One(out, Dequantize(AsTensor(in[0]),
                          static_cast<float>(n.attr<double>("scale")),
                          static_cast<int32_t>(n.attr<int64_t>("zero_point"))));
    };
    reg["QuantizedMatMul"] = [](const BoundStep& b, In& in, In& out) {
      const Node& n = *b.node;
      One(out, QuantizedMatMul(
                   AsTensor(in[0]), AsTensor(in[1]),
                   static_cast<float>(n.attr<double>("w_scale")),
                   static_cast<int32_t>(n.attr<int64_t>("w_zero_point"))));
    };
    reg["SoftmaxCrossEntropy"] = Binary(&SoftmaxCrossEntropy);
    reg["SoftmaxCrossEntropyGrad"] = Binary(&SoftmaxCrossEntropyGrad);

    // Reductions.
    reg["ReduceSum"] = Reduce(&ReduceSum);
    reg["ReduceMean"] = Reduce(&ReduceMean);
    reg["ReduceMax"] = Reduce(&ReduceMax);
    reg["ReduceMin"] = Reduce(&ReduceMin);
    reg["ArgMax"] = [](const BoundStep& b, In& in, In& out) {
      One(out, ArgMax(AsTensor(in[0]), b.axis));
    };

    // Shape manipulation.
    reg["Reshape"] = [](const BoundStep& b, In& in, In& out) {
      One(out, Reshape(AsTensor(in[0]), b.shape));
    };
    reg["Transpose"] = [](const BoundStep& b, In& in, In& out) {
      One(out, Transpose(AsTensor(in[0]),
                         b.node->attr<std::vector<int>>("perm")));
    };
    reg["Concat"] = [](const BoundStep& b, In& in, In& out) {
      std::vector<Tensor> parts;
      parts.reserve(in.size());
      for (const RuntimeValue& v : in) parts.push_back(AsTensor(v));
      One(out, Concat(parts, b.axis));
    };
    reg["Pack"] = [](const BoundStep&, In& in, In& out) {
      std::vector<Tensor> parts;
      parts.reserve(in.size());
      for (const RuntimeValue& v : in) parts.push_back(AsTensor(v));
      One(out, Stack(parts));
    };
    reg["Shape"] = [](const BoundStep&, In& in, In& out) {
      const Shape& s = AsTensor(in[0]).shape();
      std::vector<float> dims;
      dims.reserve(static_cast<size_t>(s.rank()));
      for (int64_t d : s.dims()) dims.push_back(static_cast<float>(d));
      One(out, Tensor::FromVector(std::move(dims), Shape({s.rank()}),
                                  DType::kInt32));
    };
    reg["Size"] = [](const BoundStep&, In& in, In& out) {
      One(out, Tensor::ScalarInt(AsTensor(in[0]).num_elements()));
    };
    reg["Dim0"] = [](const BoundStep&, In& in, In& out) {
      const Tensor& t = AsTensor(in[0]);
      if (t.rank() < 1) throw RuntimeError("Dim0 of a scalar tensor");
      One(out, Tensor::ScalarInt(t.shape().dim(0)));
    };
    reg["Assert"] = [](const BoundStep& b, In& in, In& out) {
      if (!AsTensor(in[0]).scalar_bool()) {
        const Node& n = *b.node;
        throw RuntimeError("assertion failed: " +
                           (n.HasAttr("message")
                                ? n.attr<std::string>("message")
                                : std::string("<no message>")));
      }
      One(out, std::move(in[0]));
    };
    reg["Cast"] = [](const BoundStep& b, In& in, In& out) {
      // Rvalue Cast: rewrites the buffer in place when sole-owned.
      One(out, TakeTensor(in[0]).Cast(b.node->attr<DType>("dtype")));
    };
    reg["ZerosLike"] = [](const BoundStep&, In& in, In& out) {
      const Tensor& t = AsTensor(in[0]);
      One(out, Tensor::Zeros(t.shape(), t.dtype()));
    };
    reg["OnesLike"] = [](const BoundStep&, In& in, In& out) {
      const Tensor& t = AsTensor(in[0]);
      One(out, Tensor::Ones(t.shape(), t.dtype()));
    };

    reg["ExpandDims"] = [](const BoundStep& b, In& in, In& out) {
      One(out, ExpandDims(AsTensor(in[0]), b.axis));
    };
    // Reshapes input 0 to the shape of input 1 (same element count).
    reg["ReshapeLike"] = [](const BoundStep&, In& in, In& out) {
      One(out, AsTensor(in[0]).Reshaped(AsTensor(in[1]).shape()));
    };
    // Reduce-sums input 0 down to the shape of input 1 (gradient routing
    // for broadcasting binary ops; see autodiff/graph_grad.cc).
    reg["SumToShapeOf"] = [](const BoundStep&, In& in, In& out) {
      One(out, SumToShape(AsTensor(in[0]), AsTensor(in[1]).shape()));
    };

    // Indexing / selection.
    reg["IndexAxis0"] = [](const BoundStep&, In& in, In& out) {
      One(out, IndexAxis0(AsTensor(in[0]), AsTensor(in[1]).scalar_int()));
    };
    reg["SetItemAxis0"] = [](const BoundStep&, In& in, In& out) {
      // Read index before consuming in[0] (distinct slots, but keep the
      // order obvious); the rvalue overload patches just the row when
      // the target is sole-owned.
      const int64_t index = AsTensor(in[1]).scalar_int();
      One(out, SetItemAxis0(TakeTensor(in[0]), index, AsTensor(in[2])));
    };
    // Contiguous row slice [start, start+len) along axis 0.
    reg["SliceRows"] = [](const BoundStep& b, In& in, In& out) {
      const Tensor& x = AsTensor(in[0]);
      const auto start = b.node->attr<int64_t>("start");
      const auto len = b.node->attr<int64_t>("len");
      if (x.rank() < 1 || start < 0 || start + len > x.shape().dim(0)) {
        throw RuntimeError("SliceRows out of range");
      }
      One(out, SliceAxis(x, 0, start, len));
    };
    reg["Gather"] = Binary(&Gather);
    reg["Where"] = [](const BoundStep&, In& in, In& out) {
      One(out, Where(AsTensor(in[0]), AsTensor(in[1]), AsTensor(in[2])));
    };
    reg["OneHot"] = [](const BoundStep& b, In& in, In& out) {
      One(out, OneHot(AsTensor(in[0]), b.node->attr<int64_t>("depth")));
    };
    reg["Range"] = [](const BoundStep&, In& in, In& out) {
      One(out, Range(AsTensor(in[0]).scalar_int()));
    };
    reg["TopK"] = [](const BoundStep& b, In& in, In& out) {
      auto [values, indices] = TopK(AsTensor(in[0]), b.k);
      Two(out, std::move(values), std::move(indices));
    };

    // Random ops (stateful; excluded from folding/CSE by IsPureOp).
    // Counter-based: each node has its own stream, advanced once per
    // invocation per run, so parallel == sequential bit-for-bit.
    reg["RandomNormal"] = [](const BoundStep& b, In&, In& out) {
      One(out, FillRandom(*b.node, /*salt=*/12345,
                          std::normal_distribution<float>(0.0f, 1.0f)));
    };
    reg["RandomUniform"] = [](const BoundStep& b, In&, In& out) {
      One(out, FillRandom(
                   *b.node, /*salt=*/54321,
                   std::uniform_real_distribution<float>(0.0f, 1.0f)));
    };

    // Print: logs at graph runtime (the staged form of `print`).
    reg["Print"] = [](const BoundStep&, In& in, In& out) {
      for (const RuntimeValue& v : in) {
        if (IsTensor(v)) {
          std::cout << AsTensor(v).DebugString() << " ";
        } else {
          std::cout << "<TensorList len=" << AsList(v)->size() << "> ";
        }
      }
      std::cout << "\n";
      One(out, in.empty() ? RuntimeValue(Tensor()) : std::move(in[0]));
    };

    // TensorList ops.
    reg["TensorListNew"] = [](const BoundStep&, In&, In& out) {
      One(out, std::make_shared<TensorList>());
    };
    reg["TensorListPushBack"] = [](const BoundStep&, In& in, In& out) {
      // Consume the incoming handle: when the executor moved the last
      // live reference in (the staged While append idiom), PushBackMove
      // appends in place instead of copying the whole list.
      One(out, TensorList::PushBackMove(TakeList(in[0]), TakeTensor(in[1])));
    };
    reg["TensorListPopBack"] = [](const BoundStep&, In& in, In& out) {
      auto [list, last] = AsList(in[0])->PopBack();
      Two(out, std::move(list), std::move(last));
    };
    reg["TensorListStack"] = [](const BoundStep&, In& in, In& out) {
      const TensorListPtr& list = AsList(in[0]);
      if (list->size() == 0) {
        throw RuntimeError("cannot stack an empty TensorList");
      }
      One(out, Stack(list->items()));
    };
    reg["TensorListGet"] = [](const BoundStep&, In& in, In& out) {
      One(out, AsList(in[0])->at(AsTensor(in[1]).scalar_int()));
    };
    reg["TensorListSet"] = [](const BoundStep&, In& in, In& out) {
      One(out, AsList(in[0])->Set(AsTensor(in[1]).scalar_int(),
                                  AsTensor(in[2])));
    };
    reg["TensorListLen"] = [](const BoundStep&, In& in, In& out) {
      One(out, Tensor::ScalarInt(AsList(in[0])->size()));
    };

    return r;
  }();
  return *kRegistry;
}

}  // namespace

bool HasKernel(const std::string& op) { return Registry().count(op) > 0; }

std::vector<std::string> KernelOps() {
  std::vector<std::string> ops;
  ops.reserve(Registry().size());
  for (const auto& [op, kernel] : Registry()) ops.push_back(op);
  return ops;
}

const Kernel& FindKernel(const std::string& op) {
  auto it = Registry().find(op);
  if (it == Registry().end()) {
    throw RuntimeError("no kernel registered for op '" + op + "'");
  }
  return it->second;
}

namespace {

const graph::FuncGraph& SubgraphAttr(const Node& node,
                                     const std::string& key) {
  const auto* fg = dynamic_cast<const graph::FuncGraph*>(
      node.attr<std::shared_ptr<graph::Graph>>(key).get());
  if (fg == nullptr) {
    throw InternalError("node '" + node.name() + "' attr '" + key +
                        "' is not a function graph");
  }
  return *fg;
}

size_t CountAttr(const Node& node, const std::string& key) {
  const auto count = node.attr<int64_t>(key);
  if (count < 0) {
    throw InternalError("node '" + node.name() + "' attr '" + key +
                        "' is negative");
  }
  return static_cast<size_t>(count);
}

}  // namespace

BoundStep BindStep(const Node& node) {
  BoundStep b;
  b.node = &node;
  const std::string& op = node.op();
  b.kind = graph::KindForOp(op);
  if (b.kind == graph::StepKind::kCond) {
    b.subgraphs[0] = &SubgraphAttr(node, "then_branch");
    b.subgraphs[1] = &SubgraphAttr(node, "else_branch");
    b.ncaps = CountAttr(node, "then_ncaps");
    return b;
  }
  if (b.kind == graph::StepKind::kWhile) {
    b.subgraphs[0] = &SubgraphAttr(node, "cond");
    b.subgraphs[1] = &SubgraphAttr(node, "body");
    b.ncaps = CountAttr(node, "cond_ncaps");
    b.num_loop_vars = CountAttr(node, "num_loop_vars");
    return b;
  }
  if (b.kind != graph::StepKind::kKernel) return b;

  b.kernel = &FindKernel(op);
  const graph::OpDef* def = graph::FindOpDef(op);
  b.flops = def != nullptr ? def->flops : graph::FlopModel::kNone;
  if (op == "Const") {
    b.literal = true;
    b.value = node.attr<Tensor>("value");
  } else if (op == "Reshape") {
    const auto& dims = node.attr<std::vector<int>>("dims");
    b.shape = std::make_shared<const Shape>(
        std::vector<int64_t>(dims.begin(), dims.end()));
  } else if (op == "FusedElementwise") {
    const graph::FuncGraph& body = SubgraphAttr(node, "body");
    b.program =
        std::make_shared<const FusedProgram>(graph::CompileFusedBody(body));
    for (const auto& n : body.nodes()) {
      if (n->op() != "Arg") ++b.fused_ops;
    }
  } else if (op == "TopK") {
    b.k = node.attr<int64_t>("k");
  } else if (op == "ArgMax" || op == "ExpandDims" || op == "Concat") {
    b.axis = static_cast<int>(node.attr<int64_t>("axis"));
  } else {
    // Reductions: every axis without an "axis" attr, keepdims optional.
    if (node.HasAttr("axis")) {
      b.axis = static_cast<int>(node.attr<int64_t>("axis"));
    }
    b.keepdims =
        node.HasAttr("keepdims") && node.attr<int64_t>("keepdims") != 0;
  }
  return b;
}

std::vector<Tensor> EvaluatePureNode(const graph::Node& node,
                                     const std::vector<Tensor>& inputs) {
  std::vector<RuntimeValue> in;
  in.reserve(inputs.size());
  for (const Tensor& t : inputs) in.emplace_back(t);
  const BoundStep bound = BindStep(node);
  std::vector<RuntimeValue> out;
  (*bound.kernel)(bound, in, out);
  std::vector<Tensor> result;
  result.reserve(out.size());
  for (const RuntimeValue& v : out) result.push_back(AsTensor(v));
  return result;
}

}  // namespace ag::exec
