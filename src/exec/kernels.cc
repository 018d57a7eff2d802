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

Kernel Unary(Tensor (*fn)(const Tensor&)) {
  return [fn](const Node&, std::vector<RuntimeValue>& in) {
    return std::vector<RuntimeValue>{fn(AsTensor(in[0]))};
  };
}

Kernel Binary(Tensor (*fn)(const Tensor&, const Tensor&)) {
  return [fn](const Node&, std::vector<RuntimeValue>& in) {
    return std::vector<RuntimeValue>{fn(AsTensor(in[0]), AsTensor(in[1]))};
  };
}

// Moving adapters for ops with in-place rvalue overloads. The
// function-pointer parameter type picks the && overload out of the
// overload set, and TakeTensor hands the op whatever ownership the
// executor left in the input slot: sole-owned when this step was the
// value's last use (liveness moved it in), shared otherwise — the op's
// own refcount check then decides between in-place and copy.
Kernel UnaryM(Tensor (*fn)(Tensor&&)) {
  return [fn](const Node&, std::vector<RuntimeValue>& in) {
    return std::vector<RuntimeValue>{fn(TakeTensor(in[0]))};
  };
}

Kernel BinaryM(Tensor (*fn)(Tensor&&, Tensor&&)) {
  return [fn](const Node&, std::vector<RuntimeValue>& in) {
    return std::vector<RuntimeValue>{
        fn(TakeTensor(in[0]), TakeTensor(in[1]))};
  };
}

std::vector<RuntimeValue> One(Tensor t) {
  return std::vector<RuntimeValue>{std::move(t)};
}

int AttrAxis(const Node& node) {
  return node.HasAttr("axis")
             ? static_cast<int>(node.attr<int64_t>("axis"))
             : kAllAxes;
}

// Compiled-body cache for FusedElementwise. Keyed by node address and
// revalidated against the body graph (weak_ptr): node storage can be
// freed and reused across graphs, so a hit with a different (or dead)
// body recompiles instead of replaying a stale program.
std::shared_ptr<const FusedProgram> FusedProgramFor(const Node& n) {
  struct Entry {
    std::weak_ptr<const graph::Graph> body;
    std::shared_ptr<const FusedProgram> program;
  };
  static auto* mu = new std::mutex();
  static auto* cache = new std::unordered_map<const Node*, Entry>();

  const auto& body = n.attr<std::shared_ptr<graph::Graph>>("body");
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(&n);
  if (it != cache->end() && it->second.body.lock() == body) {
    return it->second.program;
  }
  if (cache->size() > 1024) {  // drop entries whose graphs are gone
    for (auto e = cache->begin(); e != cache->end();) {
      e = e->second.body.expired() ? cache->erase(e) : std::next(e);
    }
  }
  const auto* fg = dynamic_cast<const graph::FuncGraph*>(body.get());
  if (fg == nullptr) {
    throw RuntimeError("FusedElementwise body is not a FuncGraph");
  }
  auto program =
      std::make_shared<const FusedProgram>(graph::CompileFusedBody(*fg));
  (*cache)[&n] = Entry{body, program};
  return program;
}

const std::unordered_map<std::string, Kernel>& Registry() {
  static const auto* kRegistry = [] {
    auto* r = new std::unordered_map<std::string, Kernel>();
    auto& reg = *r;

    reg["Const"] = [](const Node& n, std::vector<RuntimeValue>&) {
      return One(n.attr<Tensor>("value"));
    };
    reg["NoOp"] = [](const Node&, std::vector<RuntimeValue>&) {
      return std::vector<RuntimeValue>{Tensor::Scalar(0.0f)};
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
    // invocation, zero intermediate tensors. Inputs are taken by value
    // so a dead full-shape operand's buffer becomes the output.
    reg["FusedElementwise"] = [](const Node& n,
                                 std::vector<RuntimeValue>& in) {
      const std::shared_ptr<const FusedProgram> program = FusedProgramFor(n);
      std::vector<Tensor> inputs;
      inputs.reserve(in.size());
      for (RuntimeValue& v : in) inputs.push_back(TakeTensor(v));
      return One(FusedEval(*program, std::move(inputs)));
    };

    reg["MatMul"] = Binary(&MatMul);
    reg["Quantize"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(Quantize(AsTensor(in[0]),
                          static_cast<float>(n.attr<double>("scale")),
                          static_cast<int32_t>(n.attr<int64_t>("zero_point"))));
    };
    reg["Dequantize"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(Dequantize(
          AsTensor(in[0]), static_cast<float>(n.attr<double>("scale")),
          static_cast<int32_t>(n.attr<int64_t>("zero_point"))));
    };
    reg["QuantizedMatMul"] = [](const Node& n,
                                std::vector<RuntimeValue>& in) {
      return One(QuantizedMatMul(
          AsTensor(in[0]), AsTensor(in[1]),
          static_cast<float>(n.attr<double>("w_scale")),
          static_cast<int32_t>(n.attr<int64_t>("w_zero_point"))));
    };
    reg["SoftmaxCrossEntropy"] = Binary(&SoftmaxCrossEntropy);
    reg["SoftmaxCrossEntropyGrad"] = Binary(&SoftmaxCrossEntropyGrad);

    // Reductions.
    reg["ReduceSum"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(ReduceSum(AsTensor(in[0]), AttrAxis(n),
                           n.HasAttr("keepdims") &&
                               n.attr<int64_t>("keepdims") != 0));
    };
    reg["ReduceMean"] = [](const Node& n,
                           std::vector<RuntimeValue>& in) {
      return One(ReduceMean(AsTensor(in[0]), AttrAxis(n),
                            n.HasAttr("keepdims") &&
                                n.attr<int64_t>("keepdims") != 0));
    };
    reg["ReduceMax"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(ReduceMax(AsTensor(in[0]), AttrAxis(n),
                           n.HasAttr("keepdims") &&
                               n.attr<int64_t>("keepdims") != 0));
    };
    reg["ReduceMin"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(ReduceMin(AsTensor(in[0]), AttrAxis(n),
                           n.HasAttr("keepdims") &&
                               n.attr<int64_t>("keepdims") != 0));
    };
    reg["ArgMax"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(ArgMax(AsTensor(in[0]),
                        static_cast<int>(n.attr<int64_t>("axis"))));
    };

    // Shape manipulation.
    reg["Reshape"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      const std::vector<int>& dims = n.attr<std::vector<int>>("dims");
      std::vector<int64_t> d64(dims.begin(), dims.end());
      return One(Reshape(AsTensor(in[0]), Shape(std::move(d64))));
    };
    reg["Transpose"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(Transpose(AsTensor(in[0]), n.attr<std::vector<int>>("perm")));
    };
    reg["Concat"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      std::vector<Tensor> parts;
      parts.reserve(in.size());
      for (const RuntimeValue& v : in) parts.push_back(AsTensor(v));
      return One(Concat(parts, static_cast<int>(n.attr<int64_t>("axis"))));
    };
    reg["Pack"] = [](const Node&, std::vector<RuntimeValue>& in) {
      std::vector<Tensor> parts;
      parts.reserve(in.size());
      for (const RuntimeValue& v : in) parts.push_back(AsTensor(v));
      return One(Stack(parts));
    };
    reg["Shape"] = [](const Node&, std::vector<RuntimeValue>& in) {
      const Shape& s = AsTensor(in[0]).shape();
      std::vector<float> dims;
      dims.reserve(static_cast<size_t>(s.rank()));
      for (int64_t d : s.dims()) dims.push_back(static_cast<float>(d));
      return One(Tensor::FromVector(std::move(dims), Shape({s.rank()}),
                                    DType::kInt32));
    };
    reg["Size"] = [](const Node&, std::vector<RuntimeValue>& in) {
      return One(Tensor::ScalarInt(AsTensor(in[0]).num_elements()));
    };
    reg["Dim0"] = [](const Node&, std::vector<RuntimeValue>& in) {
      const Tensor& t = AsTensor(in[0]);
      if (t.rank() < 1) throw RuntimeError("Dim0 of a scalar tensor");
      return One(Tensor::ScalarInt(t.shape().dim(0)));
    };
    reg["Assert"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      if (!AsTensor(in[0]).scalar_bool()) {
        throw RuntimeError("assertion failed: " +
                           (n.HasAttr("message")
                                ? n.attr<std::string>("message")
                                : std::string("<no message>")));
      }
      return std::vector<RuntimeValue>{std::move(in[0])};
    };
    reg["Cast"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      // Rvalue Cast: rewrites the buffer in place when sole-owned.
      return One(TakeTensor(in[0]).Cast(n.attr<DType>("dtype")));
    };
    reg["ZerosLike"] = [](const Node&, std::vector<RuntimeValue>& in) {
      const Tensor& t = AsTensor(in[0]);
      return One(Tensor::Zeros(t.shape(), t.dtype()));
    };
    reg["OnesLike"] = [](const Node&, std::vector<RuntimeValue>& in) {
      const Tensor& t = AsTensor(in[0]);
      return One(Tensor::Ones(t.shape(), t.dtype()));
    };

    reg["ExpandDims"] = [](const Node& n,
                           std::vector<RuntimeValue>& in) {
      return One(ExpandDims(AsTensor(in[0]),
                            static_cast<int>(n.attr<int64_t>("axis"))));
    };
    // Reshapes input 0 to the shape of input 1 (same element count).
    reg["ReshapeLike"] = [](const Node&,
                            std::vector<RuntimeValue>& in) {
      return One(AsTensor(in[0]).Reshaped(AsTensor(in[1]).shape()));
    };
    // Reduce-sums input 0 down to the shape of input 1 (gradient routing
    // for broadcasting binary ops; see autodiff/graph_grad.cc).
    reg["SumToShapeOf"] = [](const Node&,
                             std::vector<RuntimeValue>& in) {
      return One(SumToShape(AsTensor(in[0]), AsTensor(in[1]).shape()));
    };

    // Indexing / selection.
    reg["IndexAxis0"] = [](const Node&, std::vector<RuntimeValue>& in) {
      return One(IndexAxis0(AsTensor(in[0]), AsTensor(in[1]).scalar_int()));
    };
    reg["SetItemAxis0"] = [](const Node&,
                             std::vector<RuntimeValue>& in) {
      // Read index before consuming in[0] (distinct slots, but keep the
      // order obvious); the rvalue overload patches just the row when
      // the target is sole-owned.
      const int64_t index = AsTensor(in[1]).scalar_int();
      return One(SetItemAxis0(TakeTensor(in[0]), index, AsTensor(in[2])));
    };
    // Contiguous row slice [start, start+len) along axis 0.
    reg["SliceRows"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      const Tensor& x = AsTensor(in[0]);
      const auto start = n.attr<int64_t>("start");
      const auto len = n.attr<int64_t>("len");
      if (x.rank() < 1 || start < 0 || start + len > x.shape().dim(0)) {
        throw RuntimeError("SliceRows out of range");
      }
      return One(SliceAxis(x, 0, start, len));
    };
    reg["Gather"] = Binary(&Gather);
    reg["Where"] = [](const Node&, std::vector<RuntimeValue>& in) {
      return One(Where(AsTensor(in[0]), AsTensor(in[1]), AsTensor(in[2])));
    };
    reg["OneHot"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      return One(OneHot(AsTensor(in[0]), n.attr<int64_t>("depth")));
    };
    reg["Range"] = [](const Node&, std::vector<RuntimeValue>& in) {
      return One(Range(AsTensor(in[0]).scalar_int()));
    };
    reg["TopK"] = [](const Node& n, std::vector<RuntimeValue>& in) {
      auto [values, indices] = TopK(AsTensor(in[0]), n.attr<int64_t>("k"));
      return std::vector<RuntimeValue>{std::move(values), std::move(indices)};
    };

    // Random ops (stateful; excluded from folding/CSE by IsPureOp).
    // Counter-based: each node has its own stream, advanced once per
    // invocation per run, so parallel == sequential bit-for-bit.
    reg["RandomNormal"] = [](const Node& n,
                             std::vector<RuntimeValue>&) {
      return One(FillRandom(n, /*salt=*/12345,
                            std::normal_distribution<float>(0.0f, 1.0f)));
    };
    reg["RandomUniform"] = [](const Node& n,
                              std::vector<RuntimeValue>&) {
      return One(FillRandom(
          n, /*salt=*/54321,
          std::uniform_real_distribution<float>(0.0f, 1.0f)));
    };

    // Print: logs at graph runtime (the staged form of `print`).
    reg["Print"] = [](const Node&, std::vector<RuntimeValue>& in) {
      for (const RuntimeValue& v : in) {
        if (IsTensor(v)) {
          std::cout << AsTensor(v).DebugString() << " ";
        } else {
          std::cout << "<TensorList len=" << AsList(v)->size() << "> ";
        }
      }
      std::cout << "\n";
      return std::vector<RuntimeValue>{in.empty() ? RuntimeValue(Tensor())
                                                  : std::move(in[0])};
    };

    // TensorList ops.
    reg["TensorListNew"] = [](const Node&, std::vector<RuntimeValue>&) {
      return std::vector<RuntimeValue>{std::make_shared<TensorList>()};
    };
    reg["TensorListPushBack"] = [](const Node&,
                                   std::vector<RuntimeValue>& in) {
      // Consume the incoming handle: when the executor moved the last
      // live reference in (the staged While append idiom), PushBackMove
      // appends in place instead of copying the whole list.
      return std::vector<RuntimeValue>{
          TensorList::PushBackMove(TakeList(in[0]), TakeTensor(in[1]))};
    };
    reg["TensorListPopBack"] = [](const Node&,
                                  std::vector<RuntimeValue>& in) {
      auto [list, last] = AsList(in[0])->PopBack();
      return std::vector<RuntimeValue>{std::move(list), std::move(last)};
    };
    reg["TensorListStack"] = [](const Node&,
                                std::vector<RuntimeValue>& in) {
      const TensorListPtr& list = AsList(in[0]);
      if (list->size() == 0) {
        throw RuntimeError("cannot stack an empty TensorList");
      }
      return One(Stack(list->items()));
    };
    reg["TensorListGet"] = [](const Node&,
                              std::vector<RuntimeValue>& in) {
      return One(AsList(in[0])->at(AsTensor(in[1]).scalar_int()));
    };
    reg["TensorListSet"] = [](const Node&,
                              std::vector<RuntimeValue>& in) {
      return std::vector<RuntimeValue>{AsList(in[0])->Set(
          AsTensor(in[1]).scalar_int(), AsTensor(in[2]))};
    };
    reg["TensorListLen"] = [](const Node&,
                              std::vector<RuntimeValue>& in) {
      return One(Tensor::ScalarInt(AsList(in[0])->size()));
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

std::vector<Tensor> EvaluatePureNode(const graph::Node& node,
                                     const std::vector<Tensor>& inputs) {
  std::vector<RuntimeValue> in;
  in.reserve(inputs.size());
  for (const Tensor& t : inputs) in.emplace_back(t);
  std::vector<RuntimeValue> out = FindKernel(node.op())(node, in);
  std::vector<Tensor> result;
  result.reserve(out.size());
  for (const RuntimeValue& v : out) result.push_back(AsTensor(v));
  return result;
}

}  // namespace ag::exec
