// Tensor memory subsystem invariants (DESIGN.md §4g): pool reuse and
// counters, LRU-bounded retention, the pooling escape hatch, in-place
// kernel safety (aliases are never mutated, recycled buffers are never
// visible through a live Tensor), TensorList append cost, and the
// steady-state allocation behaviour of staged While loops — including
// the bit-identity of sequential and parallel engines with pooling on.
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/session.h"
#include "exec/value.h"
#include "graph/ops.h"
#include "obs/run_metadata.h"
#include "tensor/allocator.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace ag {
namespace {

using detail::TensorAccess;
using exec::AsTensor;
using exec::RuntimeValue;
using exec::Session;
using exec::TensorList;
using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;
using graph::While;
using tensor::BufferPool;
using tensor::PoolStats;

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.num_elements(), b.num_elements());
  ASSERT_EQ(a.dtype(), b.dtype());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.num_elements()) * sizeof(float)),
            0);
}

// --- BufferPool mechanics -------------------------------------------------

TEST(BufferPoolTest, ReleaseThenAcquireSameSizeHitsPool) {
  BufferPool& pool = BufferPool::Global();
  pool.TrimAll();
  const PoolStats s0 = pool.stats();
  { Tensor t = Tensor::Full({256}, 1.0f); }  // fresh alloc, then released
  const PoolStats s1 = pool.stats();
  EXPECT_GE(s1.alloc_count - s0.alloc_count, 1);
  { Tensor t = Tensor::Full({256}, 2.0f); }  // same bucket: served from pool
  const PoolStats s2 = pool.stats();
  EXPECT_GE(s2.pool_hit_count - s1.pool_hit_count, 1);
  EXPECT_EQ(s2.alloc_count - s1.alloc_count, 0);
}

TEST(BufferPoolTest, SmallerRequestReusesLargerBucketBlock) {
  BufferPool& pool = BufferPool::Global();
  pool.TrimAll();
  { Tensor t = Tensor::Full({200}, 1.0f); }  // bucket ceil(log2(200)) = 8
  const PoolStats s1 = pool.stats();
  // 129..256 elements land in the same bucket, so the block is reused.
  { Tensor t = Tensor::Full({130}, 2.0f); }
  const PoolStats s2 = pool.stats();
  EXPECT_GE(s2.pool_hit_count - s1.pool_hit_count, 1);
}

TEST(BufferPoolTest, LiveAndPeakCountersTrackAllocations) {
  BufferPool& pool = BufferPool::Global();
  const PoolStats before = pool.stats();
  constexpr int64_t kElems = 1 << 14;
  Tensor big = TensorAccess::Uninitialized(Shape({kElems}), DType::kFloat32);
  const PoolStats during = pool.stats();
  EXPECT_GE(during.live_bytes,
            before.live_bytes + kElems * static_cast<int64_t>(sizeof(float)));
  EXPECT_GE(during.peak_live_bytes, during.live_bytes);
}

TEST(BufferPoolTest, RetainedBytesBoundedByLruTrim) {
  BufferPool& pool = BufferPool::Global();
  pool.TrimAll();
  const int64_t old_cap = pool.retained_cap_bytes();
  const int64_t cap = 16 * 1024;
  pool.set_retained_cap_bytes(cap);
  {
    std::vector<Tensor> tensors;
    for (int i = 0; i < 64; ++i) {
      tensors.push_back(Tensor::Full({1024}, 1.0f));  // 4 KiB each
    }
  }  // ~256 KiB released; the global lists must trim down to the cap
  EXPECT_LE(pool.stats().retained_bytes, cap);
  pool.set_retained_cap_bytes(old_cap);
  pool.TrimAll();
}

TEST(BufferPoolTest, DisableScopeRestoresSeedAllocationPath) {
  BufferPool& pool = BufferPool::Global();
  pool.TrimAll();
  // Warm the bucket so a pooled acquire *would* hit.
  { Tensor t = Tensor::Full({512}, 1.0f); }
  const PoolStats s0 = pool.stats();
  {
    tensor::PoolDisableScope off;
    EXPECT_FALSE(tensor::PoolingEnabled());
    { Tensor t = Tensor::Full({512}, 2.0f); }  // fresh heap, freed on release
  }
  EXPECT_TRUE(tensor::PoolingEnabled());
  const PoolStats s1 = pool.stats();
  EXPECT_EQ(s1.pool_hit_count - s0.pool_hit_count, 0);
  EXPECT_GE(s1.alloc_count - s0.alloc_count, 1);
  // Disabled releases free immediately instead of parking in the pool.
  EXPECT_EQ(s1.retained_bytes, s0.retained_bytes);
}

// --- In-place kernel safety ----------------------------------------------

TEST(InPlaceSafetyTest, RvalueOpReusesSoleOwnedBuffer) {
  Tensor a = Tensor::Full({64}, 1.0f);
  const float* pa = TensorAccess::raw(a);
  Tensor r = Exp(std::move(a));
  EXPECT_EQ(TensorAccess::raw(r), pa);  // wrote in place
  for (int64_t i = 0; i < r.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(r.at(i), std::exp(1.0f));
  }
}

TEST(InPlaceSafetyTest, SharedBufferIsNeverMutatedInPlace) {
  Tensor a = Tensor::Full({64}, 2.0f);
  Tensor alias = a;  // refcount 2: in-place reuse must be blocked
  Tensor r = Exp(std::move(a));
  EXPECT_NE(TensorAccess::raw(r), TensorAccess::raw(alias));
  for (int64_t i = 0; i < alias.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(alias.at(i), 2.0f);  // alias unchanged
  }
}

TEST(InPlaceSafetyTest, ReshapedSharesBufferAndIsNeverMutated) {
  Tensor a = Tensor::Full({4, 16}, 3.0f);
  Tensor view = a.Reshaped(Shape({64}));
  EXPECT_EQ(TensorAccess::raw(view), TensorAccess::raw(a));  // shares storage
  // The view holds a second reference, so consuming `a` cannot write
  // through the shared buffer.
  Tensor r = Exp(std::move(a));
  EXPECT_NE(TensorAccess::raw(r), TensorAccess::raw(view));
  for (int64_t i = 0; i < view.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(view.at(i), 3.0f);
  }
}

TEST(InPlaceSafetyTest, ConstCastCopiesRvalueCastReuses) {
  Tensor a = Tensor::Full({32}, 5.0f);
  const float* pa = TensorAccess::raw(a);
  Tensor copied = a.Cast(DType::kInt32);
  EXPECT_NE(TensorAccess::raw(copied), pa);  // const& Cast always copies
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
  Tensor reused = std::move(a).Cast(DType::kInt32);
  EXPECT_EQ(TensorAccess::raw(reused), pa);  // sole owner: rewritten in place
  EXPECT_EQ(reused.dtype(), DType::kInt32);
}

TEST(InPlaceSafetyTest, RvalueResultsMatchLvalueResults) {
  const Tensor a = Tensor::Full({8, 8}, 0.75f);
  const Tensor b = Tensor::Full({8, 8}, -1.25f);
  const Tensor ref = Add(Mul(a, b), a);
  Tensor ar = a;
  Tensor br = b;
  const Tensor moved = Add(Mul(std::move(ar), std::move(br)), Tensor(a));
  ExpectBitIdentical(ref, moved);
}

TEST(InPlaceSafetyTest, RecycledBufferNeverVisibleThroughLiveTensor) {
  BufferPool::Global().TrimAll();
  Tensor keep = Tensor::Full({128}, 7.0f);
  {
    // Churn the pool: allocate and release same-bucket buffers. None may
    // recycle keep's block while `keep` is alive.
    for (int i = 0; i < 16; ++i) {
      Tensor t = Tensor::Full({128}, static_cast<float>(i));
      EXPECT_NE(TensorAccess::raw(t), TensorAccess::raw(keep));
      Tensor r = Exp(std::move(t));
      EXPECT_NE(TensorAccess::raw(r), TensorAccess::raw(keep));
    }
  }
  for (int64_t i = 0; i < keep.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(keep.at(i), 7.0f);
  }
}

// --- TensorList append cost ----------------------------------------------

TEST(TensorListTest, MoveAppendIsNearLinear) {
  const int64_t n = 512;
  const Tensor element = Tensor::Scalar(1.0f);
  const int64_t copies0 = TensorList::ElementCopyCount();
  auto list = std::make_shared<TensorList>();
  for (int64_t i = 0; i < n; ++i) {
    list = TensorList::PushBackMove(std::move(list), element);
  }
  const int64_t copies = TensorList::ElementCopyCount() - copies0;
  ASSERT_EQ(list->size(), n);
  // The old O(n) copy-per-append behaviour would pay ~n^2/2 = 131072
  // element copies here; the sole-owner move path plus geometric reserve
  // must stay within a small constant factor of n.
  EXPECT_LE(copies, 4 * n);
}

TEST(TensorListTest, SharedListFallsBackToCopyWithoutMutation) {
  auto list = std::make_shared<TensorList>();
  list = TensorList::PushBackMove(std::move(list), Tensor::Scalar(1.0f));
  auto snapshot = list;  // second owner: append must copy, not mutate
  auto grown = TensorList::PushBackMove(list, Tensor::Scalar(2.0f));
  EXPECT_EQ(snapshot->size(), 1);
  EXPECT_EQ(grown->size(), 2);
}

// --- Staged While loops: steady-state allocation and bit-identity --------

// A staged counting loop whose body produces a fresh [32,32] tensor per
// iteration — the workload shape whose allocator churn the pool removes.
struct LoopFixture {
  Graph g;
  std::vector<Output> outs;

  LoopFixture() {
    GraphContext ctx(&g);
    Output limit = Placeholder(ctx, "n", DType::kInt32);
    Output x0 = Placeholder(ctx, "x", DType::kFloat32);
    Output i0 = Const(ctx, Tensor::ScalarInt(0));
    outs = While(
        ctx, {i0, x0},
        [&](const std::vector<Output>& args) {
          return Op(ctx, "Less", {args[0], limit});
        },
        [&](const std::vector<Output>& args) {
          Output one = Const(ctx, Tensor::ScalarInt(1));
          Output half = Const(ctx, Tensor::Scalar(0.5f));
          Output next = Op(ctx, "Tanh", {Op(ctx, "Mul", {args[1], half})});
          return std::vector<Output>{Op(ctx, "Add", {args[0], one}),
                                     Op(ctx, "Add", {next, half})};
        });
  }
};

TEST(StagedMemoryTest, SteadyStateWhileRunsMostlyFromThePool) {
  LoopFixture loop;
  Session session(&loop.g);
  const Tensor n = Tensor::ScalarInt(64);
  const Tensor x = Tensor::Full({32, 32}, 0.25f);
  obs::RunOptions opts;
  opts.step_stats = false;
  (void)session.Run({{"n", n}, {"x", x}}, loop.outs, &opts);  // warm

  const PoolStats before = BufferPool::Global().stats();
  (void)session.Run({{"n", n}, {"x", x}}, loop.outs, &opts);
  const PoolStats after = BufferPool::Global().stats();
  const int64_t fresh = after.alloc_count - before.alloc_count;
  const int64_t hits = after.pool_hit_count - before.pool_hit_count;
  ASSERT_GT(hits, 0);
  // The >= 90% acceptance bar: once warm, essentially every per-iteration
  // buffer is recycled.
  EXPECT_GE(hits * 10, (hits + fresh) * 9)
      << "hits=" << hits << " fresh=" << fresh;
}

TEST(StagedMemoryTest, PoolOffRestoresSeedAllocationBehaviour) {
  LoopFixture loop;
  Session session(&loop.g);
  const Tensor n = Tensor::ScalarInt(32);
  const Tensor x = Tensor::Full({32, 32}, 0.25f);
  obs::RunOptions on;
  on.step_stats = false;
  obs::RunOptions off = on;
  off.buffer_pool = false;
  (void)session.Run({{"n", n}, {"x", x}}, loop.outs, &on);  // warm both paths
  const std::vector<RuntimeValue> expect =
      session.Run({{"n", n}, {"x", x}}, loop.outs, &on);

  const PoolStats before = BufferPool::Global().stats();
  const std::vector<RuntimeValue> got =
      session.Run({{"n", n}, {"x", x}}, loop.outs, &off);
  const PoolStats after = BufferPool::Global().stats();
  // Seed path: every buffer is a fresh allocation, none comes from the
  // pool, and the values are unchanged.
  EXPECT_EQ(after.pool_hit_count - before.pool_hit_count, 0);
  EXPECT_GT(after.alloc_count - before.alloc_count, 32);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ExpectBitIdentical(AsTensor(expect[i]), AsTensor(got[i]));
  }
}

TEST(StagedMemoryTest, ParallelMatchesSequentialBitIdenticalWithPooling) {
  LoopFixture loop;
  Session session(&loop.g);
  const Tensor n = Tensor::ScalarInt(48);
  const Tensor x = Tensor::Full({32, 32}, 0.125f);
  obs::RunOptions seq;
  seq.step_stats = false;
  obs::RunOptions par = seq;
  par.inter_op_threads = 4;
  par.intra_op_threads = 2;
  const std::vector<RuntimeValue> a =
      session.Run({{"n", n}, {"x", x}}, loop.outs, &seq);
  const std::vector<RuntimeValue> b =
      session.Run({{"n", n}, {"x", x}}, loop.outs, &par);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectBitIdentical(AsTensor(a[i]), AsTensor(b[i]));
  }
}

TEST(StagedMemoryTest, RunMetadataReportsAllocCounters) {
  LoopFixture loop;
  Session session(&loop.g);
  const Tensor n = Tensor::ScalarInt(16);
  const Tensor x = Tensor::Full({16, 16}, 0.5f);
  obs::RunOptions opts;
  opts.step_stats = true;
  obs::RunMetadata meta;
  (void)session.Run({{"n", n}, {"x", x}}, loop.outs, &opts, &meta);
  // A cold first run allocates; the counters must reflect the activity.
  EXPECT_GT(meta.alloc_count + meta.pool_hit_count, 0);
  EXPECT_GE(meta.alloc_bytes, 0);
}

}  // namespace
}  // namespace ag
