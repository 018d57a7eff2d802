#include "graph/quantize.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/optimize.h"
#include "tensor/quant.h"

namespace ag::graph {
namespace {

// Rewrites one graph (and, first, its attached Cond/While subgraphs —
// an RNN's serving MatMuls live inside the While body). Old MatMul
// nodes are left dead for dce.
int QuantizeGraph(Graph* graph, std::vector<Output>* roots,
                  const std::map<std::string, Tensor>* snapshot) {
  int rewritten = 0;
  for (const auto& n : graph->nodes()) {
    for (const auto& [key, attr] : n->attrs()) {
      if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
        auto* fg = dynamic_cast<FuncGraph*>(sub->get());
        if (fg != nullptr) {
          rewritten += QuantizeGraph(fg, &fg->returns, snapshot);
        }
      }
    }
  }

  std::unordered_map<const Node*, Node*> remap;
  const size_t original = graph->num_nodes();
  for (size_t i = 0; i < original; ++i) {
    Node* n = graph->nodes()[i].get();
    if (n->op() != "MatMul" || n->inputs().size() != 2) continue;
    const Output& w = n->inputs()[1];
    if (!w.valid() || w.index != 0) continue;
    Node* wn = w.node;

    QuantParams qp;
    Node* qweights = nullptr;
    if (wn->op() == "Const") {
      const Tensor& wv = wn->attr<Tensor>("value");
      if (wv.dtype() != DType::kFloat32 || wv.rank() != 2) continue;
      // Static weights quantize at pass time into an int8 Const.
      qp = ChooseQuantParams(wv);
      Tensor wq = Quantize(wv, qp.scale, qp.zero_point);
      qweights = graph->AddNamedNode(wn->name() + "/quantized", "Const", {},
                                     {{"value", std::move(wq)}}, 1);
      qweights->set_output_dtype(0, DType::kInt8);
    } else if (wn->op() == "Variable" && snapshot != nullptr) {
      const auto it = snapshot->find(wn->attr<std::string>("var_name"));
      if (it == snapshot->end()) continue;
      const Tensor& wv = it->second;
      if (wv.dtype() != DType::kFloat32 || wv.rank() != 2) continue;
      // Scale is calibrated from the snapshot and frozen into attrs;
      // the Quantize node re-quantizes the live variable value per run.
      qp = ChooseQuantParams(wv);
      qweights = graph->AddNamedNode(
          wn->name() + "/quantize", "Quantize", {Output{wn, 0}},
          {{"scale", static_cast<double>(qp.scale)},
           {"zero_point", static_cast<int64_t>(qp.zero_point)}},
          1);
      qweights->set_output_dtype(0, DType::kInt8);
    } else {
      continue;
    }

    Node* qmm = graph->AddNamedNode(
        n->name() + "/quantized", "QuantizedMatMul",
        {n->inputs()[0], Output{qweights, 0}},
        {{"w_scale", static_cast<double>(qp.scale)},
         {"w_zero_point", static_cast<int64_t>(qp.zero_point)}},
        1);
    qmm->set_output_dtype(0, DType::kFloat32);
    remap[n] = qmm;
    ++rewritten;
  }
  if (!remap.empty()) {
    RemapNodeRefs(graph, remap);
    for (Output& r : *roots) {
      auto it = remap.find(r.node);
      if (it != remap.end()) r.node = it->second;
    }
  }
  return rewritten;
}

}  // namespace

int QuantizeWeights(PassContext& ctx) {
  return QuantizeGraph(ctx.graph, ctx.roots, ctx.variable_snapshot);
}

}  // namespace ag::graph
