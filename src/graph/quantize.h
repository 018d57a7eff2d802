// quantize_weights: rewrites float MatMuls against static weights into
// the int8 inference form (DESIGN.md §4j). For each MatMul whose
// right-hand operand is a rank-2 float32 Const, the weights are
// quantized at pass time into an int8 Const; for a Variable operand
// with an entry in PassContext::variable_snapshot, the scale is
// calibrated from the snapshot and a static-attr Quantize node is
// inserted over the Variable (re-quantized per run, O(k*n) — cheap
// next to the MatMul it feeds, and robust to later Assigns as long as
// the value range stays near the calibration snapshot). Either way the
// MatMul becomes QuantizedMatMul(x, wq) carrying the weight scale and
// zero point as attrs.
//
// Off by default (select with "default,+quantize_weights"):
// int8 trades accuracy for throughput, which must be an explicit
// caller choice.
#pragma once

namespace ag::graph {

struct PassContext;

// Pass body; returns the number of MatMuls rewritten.
int QuantizeWeights(PassContext& ctx);

}  // namespace ag::graph
