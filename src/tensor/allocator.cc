#include "tensor/allocator.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string_view>

namespace ag::tensor {

namespace {

// Buckets cover capacities up to 2^40 elements — far beyond anything a
// CPU tensor here reaches; larger requests simply use the last bucket.
constexpr int kNumBuckets = 41;
// Blocks parked per bucket in each thread cache before overflowing to
// the global lists. Small on purpose: steady-state loops ping-pong a
// handful of shapes, and anything colder belongs in the shared pool
// where the LRU cap can see it.
constexpr size_t kThreadCacheDepth = 4;

int64_t DefaultRetainedCap() {
  if (const char* env = std::getenv("AG_BUFFER_POOL_CAP_MB")) {
    const long long mb = std::atoll(env);
    if (mb >= 0) return static_cast<int64_t>(mb) << 20;
  }
  return int64_t{256} << 20;  // 256 MiB
}

bool EnvPoolEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("AG_BUFFER_POOL");
    return env == nullptr || (std::string_view(env) != "0" &&
                              std::string_view(env) != "off");
  }();
  return enabled;
}

// floor(log2(c)) for c >= 1.
int FloorLog2(int64_t c) {
  int b = 0;
  while (c > 1) {
    c >>= 1;
    ++b;
  }
  return std::min(b, kNumBuckets - 1);
}

// ceil(log2(n)) for n >= 1: the bucket whose blocks all fit n.
int RequestBucket(int64_t n) {
  if (n <= 1) return 0;
  return std::min(FloorLog2(n - 1) + 1, kNumBuckets - 1);
}

std::atomic<int64_t>& AllocCountA() {
  static std::atomic<int64_t> v{0};
  return v;
}
std::atomic<int64_t>& AllocBytesA() {
  static std::atomic<int64_t> v{0};
  return v;
}
std::atomic<int64_t>& HitCountA() {
  static std::atomic<int64_t> v{0};
  return v;
}
std::atomic<int64_t>& LiveBytesA() {
  static std::atomic<int64_t> v{0};
  return v;
}
std::atomic<int64_t>& PeakLiveBytesA() {
  static std::atomic<int64_t> v{0};
  return v;
}

thread_local int64_t t_thread_alloc_count = 0;
thread_local int t_pool_disable_depth = 0;

int64_t CapacityBytes(const detail::BufferBlock* b) {
  return static_cast<int64_t>(b->storage.capacity()) *
         static_cast<int64_t>(sizeof(float));
}

void CountLive(int64_t capacity_bytes) {
  const int64_t live =
      LiveBytesA().fetch_add(capacity_bytes, std::memory_order_relaxed) +
      capacity_bytes;
  int64_t peak = PeakLiveBytesA().load(std::memory_order_relaxed);
  while (live > peak && !PeakLiveBytesA().compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void CountFreshAlloc(int64_t capacity_bytes) {
  AllocCountA().fetch_add(1, std::memory_order_relaxed);
  AllocBytesA().fetch_add(capacity_bytes, std::memory_order_relaxed);
  ++t_thread_alloc_count;
  CountLive(capacity_bytes);
}

// The global free lists. Leaked singleton: thread caches flush into it
// at thread exit, so it must outlive every thread.
struct PoolState {
  mutable std::mutex mu;
  std::array<std::deque<detail::BufferBlock*>, kNumBuckets> buckets;
  int64_t retained_bytes = 0;
  int64_t retained_cap = DefaultRetainedCap();
  int64_t tick = 0;

  // Frees oldest-released blocks until retained_bytes <= retained_cap.
  // Caller holds mu.
  void TrimLocked() {
    while (retained_bytes > retained_cap) {
      int victim = -1;
      int64_t oldest = 0;
      for (int b = 0; b < kNumBuckets; ++b) {
        auto& list = buckets[static_cast<size_t>(b)];
        if (list.empty()) continue;
        if (victim < 0 || list.front()->tick < oldest) {
          victim = b;
          oldest = list.front()->tick;
        }
      }
      if (victim < 0) return;
      detail::BufferBlock* block =
          buckets[static_cast<size_t>(victim)].front();
      buckets[static_cast<size_t>(victim)].pop_front();
      retained_bytes -= CapacityBytes(block);
      delete block;
    }
  }
};

PoolState& GlobalState() {
  static auto* state = new PoolState();
  return *state;
}

void ReleaseToGlobal(detail::BufferBlock* block) {
  PoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  block->tick = ++state.tick;
  state.buckets[static_cast<size_t>(block->bucket)].push_back(block);
  state.retained_bytes += CapacityBytes(block);
  state.TrimLocked();
}

// Set once this thread's cache is destroyed. Trivially destructible, so
// it stays readable while later exit-time destructors (static objects
// whose tensors die after the main thread's thread_locals) still
// acquire and release buffers; those go straight to the global lists.
thread_local bool t_cache_destroyed = false;

// Thread-local free-list cache; flushed to the global lists on thread
// exit so nothing leaks per short-lived thread.
struct ThreadCache {
  std::array<std::vector<detail::BufferBlock*>, kNumBuckets> buckets;

  ~ThreadCache() {
    for (auto& list : buckets) {
      for (detail::BufferBlock* b : list) ReleaseToGlobal(b);
      list.clear();
    }
    t_cache_destroyed = true;
  }

  detail::BufferBlock* Pop(int bucket) {
    if (t_cache_destroyed) return nullptr;
    auto& list = buckets[static_cast<size_t>(bucket)];
    if (list.empty()) return nullptr;
    detail::BufferBlock* b = list.back();
    list.pop_back();
    return b;
  }
  // Returns false when the bucket is full (caller overflows to global).
  bool Push(detail::BufferBlock* block) {
    if (t_cache_destroyed) return false;
    auto& list = buckets[static_cast<size_t>(block->bucket)];
    if (list.size() >= kThreadCacheDepth) return false;
    list.push_back(block);
    return true;
  }
};

thread_local ThreadCache t_cache;

}  // namespace

BufferPool& BufferPool::Global() {
  static auto* pool = new BufferPool();
  return *pool;
}

PooledBuffer BufferPool::Acquire(int64_t n) {
  if (n < 0) n = 0;
  const int bucket = RequestBucket(std::max<int64_t>(n, 1));
  if (PoolingEnabled()) {
    detail::BufferBlock* block = t_cache.Pop(bucket);
    if (block == nullptr) {
      PoolState& state = GlobalState();
      std::lock_guard<std::mutex> lock(state.mu);
      auto& list = state.buckets[static_cast<size_t>(bucket)];
      if (!list.empty()) {
        block = list.back();  // most recently released: cache-warm
        list.pop_back();
        state.retained_bytes -= CapacityBytes(block);
      }
    }
    if (block != nullptr) {
      HitCountA().fetch_add(1, std::memory_order_relaxed);
      CountLive(CapacityBytes(block));
      block->refs.store(1, std::memory_order_relaxed);
      block->storage.resize(static_cast<size_t>(n));
      return PooledBuffer(block);
    }
  }
  auto* block = new detail::BufferBlock();
  // Round the capacity up to the bucket size so a same-size re-acquire
  // after release lands back in the bucket it is served from.
  block->storage.reserve(static_cast<size_t>(int64_t{1} << bucket));
  block->storage.resize(static_cast<size_t>(n));
  block->bucket = FloorLog2(
      std::max<int64_t>(1, static_cast<int64_t>(block->storage.capacity())));
  CountFreshAlloc(CapacityBytes(block));
  return PooledBuffer(block);
}

PooledBuffer BufferPool::Adopt(std::vector<float> values) {
  auto* block = new detail::BufferBlock();
  block->storage = std::move(values);
  block->bucket = FloorLog2(
      std::max<int64_t>(1, static_cast<int64_t>(block->storage.capacity())));
  CountFreshAlloc(CapacityBytes(block));
  return PooledBuffer(block);
}

PooledBuffer BufferPool::WrapExternal(const float* data, int64_t size,
                                      std::shared_ptr<const void> owner) {
  auto* block = new detail::BufferBlock();
  block->external_data = data;
  block->external_size = std::max<int64_t>(0, size);
  block->external_owner = std::move(owner);
  // Not counted as a fresh allocation: no float storage was allocated —
  // which is exactly what the artifact loader's "~0 fresh weight
  // allocations" property measures.
  return PooledBuffer(block);
}

PoolStats BufferPool::stats() const {
  PoolStats s;
  s.alloc_count = AllocCountA().load(std::memory_order_relaxed);
  s.alloc_bytes = AllocBytesA().load(std::memory_order_relaxed);
  s.pool_hit_count = HitCountA().load(std::memory_order_relaxed);
  s.live_bytes = LiveBytesA().load(std::memory_order_relaxed);
  s.peak_live_bytes = PeakLiveBytesA().load(std::memory_order_relaxed);
  PoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  s.retained_bytes = state.retained_bytes;
  return s;
}

void BufferPool::TrimAll() {
  PoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  for (auto& list : state.buckets) {
    for (detail::BufferBlock* b : list) {
      state.retained_bytes -= CapacityBytes(b);
      delete b;
    }
    list.clear();
  }
}

void BufferPool::set_retained_cap_bytes(int64_t cap) {
  PoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.retained_cap = std::max<int64_t>(0, cap);
  state.TrimLocked();
}

int64_t BufferPool::retained_cap_bytes() const {
  PoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.retained_cap;
}

namespace detail {

void ReleaseBlock(BufferBlock* block) {
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (block->external_data != nullptr) {
    // External blocks borrowed their storage (no live-bytes accounting,
    // never pooled); dropping the block releases the owner's mapping ref.
    delete block;
    return;
  }
  LiveBytesA().fetch_sub(CapacityBytes(block), std::memory_order_relaxed);
  if (!PoolingEnabled()) {
    delete block;
    return;
  }
  if (t_cache.Push(block)) return;
  ReleaseToGlobal(block);
}

}  // namespace detail

bool PoolingEnabled() {
  return EnvPoolEnabled() && t_pool_disable_depth == 0;
}

PoolDisableScope::PoolDisableScope() { ++t_pool_disable_depth; }
PoolDisableScope::~PoolDisableScope() { --t_pool_disable_depth; }

int64_t ThreadAllocCount() { return t_thread_alloc_count; }

}  // namespace ag::tensor
