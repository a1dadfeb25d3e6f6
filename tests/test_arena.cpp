// Arena mechanics plus the zero-allocation guards: after a warm-up run, a
// full multi-frame pipelined fusion must not create a single new arena
// block (src/common/arena.h documents the contract; this file is the
// enforcement), replaying a frame's accounting must not call the global
// operator new at all, fusing a frame pair calls it once, for the result, and
// building a plan calls it as often at any depth.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/sched/adaptive.h"
#include "src/sched/pipeline.h"
#include "src/simd/dispatch.h"

// Counts every plain global operator new in this test binary (libstdc++
// routes the array and nothrow forms through it too). All three stay out of
// line so the compiler never pairs an inlined malloc() or free() with a new
// or delete expression and warns about a mismatch that is not there.
std::atomic<long long> g_news{0};

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace vf;

// --- mechanics ---------------------------------------------------------------

TEST(Arena, AllocIsCacheLineAligned) {
  Arena a;
  for (std::size_t n : {1u, 3u, 16u, 17u, 1000u, 100000u}) {
    float* p = a.alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(Arena, ScopeRewindReusesMemoryWithoutNewBlocks) {
  Arena a;
  (void)a.alloc(1);  // force the first block so the loop below is steady state
  const long long blocks = Arena::total_block_allocations();
  const std::size_t reserved = a.bytes_reserved();
  float* first = nullptr;
  for (int i = 0; i < 100; ++i) {
    ArenaScope scope(a);
    float* p = scope.alloc(1024);
    if (i == 0) {
      first = p;
    } else {
      EXPECT_EQ(p, first) << i;  // same bump position every iteration
    }
  }
  EXPECT_EQ(Arena::total_block_allocations(), blocks);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, ScopesNest) {
  Arena a;
  ArenaScope outer(a);
  float* p1 = outer.alloc(64);
  p1[0] = 1.0f;
  float* inner_ptr = nullptr;
  {
    ArenaScope inner(a);
    inner_ptr = inner.alloc(64);
    inner_ptr[0] = 2.0f;
    EXPECT_NE(inner_ptr, p1);
  }
  // The inner scope's space is reclaimed; the outer allocation is intact.
  float* p2 = outer.alloc(64);
  EXPECT_EQ(p2, inner_ptr);
  EXPECT_EQ(p1[0], 1.0f);
}

TEST(Arena, GrowthReusesLaterReservedBlocks) {
  Arena a;
  Arena::Mark empty = a.mark();
  // Warm up with a sequence that spans several blocks.
  (void)a.alloc(1);
  (void)a.alloc(1 << 15);
  (void)a.alloc(1 << 17);
  const long long blocks = Arena::total_block_allocations();
  const std::size_t reserved = a.bytes_reserved();
  // Replaying the same pattern — or a smaller one — from a full rewind must
  // not reserve more: grow() walks forward to later reserved blocks.
  for (int i = 0; i < 10; ++i) {
    a.rewind(empty);
    (void)a.alloc(1);
    (void)a.alloc(1 << 15);
    (void)a.alloc(1 << 17);
    a.rewind(empty);
    (void)a.alloc(1 << 12);
    (void)a.alloc(1 << 14);
    (void)a.alloc(1 << 16);
  }
  EXPECT_EQ(Arena::total_block_allocations(), blocks);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, ThreadArenaIsStable) {
  Arena& a = thread_arena();
  Arena& b = thread_arena();
  EXPECT_EQ(&a, &b);
}

// --- zero-allocation guard ---------------------------------------------------

// After warm-up has reserved every block the transform needs, a full
// multi-frame pipelined run — forward + inverse DT-CWT, fusion rule,
// extension fills, block transposes — must perform zero arena block
// allocations, serially and with the frames fanned out over a pool. A
// regression here means some hot loop went back to heap scratch.
TEST(ArenaZeroAlloc, SteadyStatePipelineAllocatesNothing) {
  for (const int width : {1, 2}) {
    // Each pool thread grows its own arena the first time it fuses a frame,
    // and which thread claims which chunk of a window is up to the pool, so
    // warm up until every thread of the pool has fused at least one frame.
    ThreadPool* pool = host::pool(HostConfig{width});
    const std::size_t threads =
        pool ? static_cast<std::size_t>(pool->threads()) : 1u;
    for (const sched::FrameSize size : {sched::FrameSize{40, 40},
                                        sched::FrameSize{88, 72}}) {
      const auto stream = sched::make_sweep_frames(size, 6);
      sched::RunConfig rc;
      rc.host.threads = width;
      std::mutex m;
      std::set<std::thread::id> fused_on;
      for (int tries = 0; fused_on.size() < threads && tries < 100; ++tries) {
        sched::BatchedFpgaBackend warmup(rc);
        (void)sched::detail::measure_frames(
            warmup, rc.fuse, stream, [&](int, image::ImageF&&) {
              std::lock_guard<std::mutex> lock(m);
              fused_on.insert(std::this_thread::get_id());
            });
      }
      ASSERT_EQ(fused_on.size(), threads) << "width " << width;
      const long long before = Arena::total_block_allocations();
      sched::BatchedFpgaBackend backend(rc);
      const sched::PipelineRunResult run = sched::run_pipelined(backend, stream);
      EXPECT_GT(run.makespan.sec(), 0.0);
      EXPECT_EQ(Arena::total_block_allocations(), before)
          << size.width << "x" << size.height << " width " << width;
    }
  }
}

// Accounting is the serial half of every window, so its steady state must
// not touch the heap: no event log to regrow, no per-frame dimension tables.
// Frame 1 warms up; frames 2..64 of an 88x72 window replay with stream
// tracing off and must make zero global allocations.
TEST(ArenaZeroAlloc, AccountingReplayAllocatesNothing) {
  const sched::RunConfig rc;
  const dwt::FusionPlan plan(72, 88, rc.fuse.transform);
  sched::BatchedFpgaBackend backend(rc);
  sched::TimedFusionRunner runner(backend, rc.fuse);
  SimDuration total = runner.replay_frame_pair(plan).times.total();
  const long long before = g_news.load();
  for (int frame = 2; frame <= 64; ++frame) {
    total += runner.replay_frame_pair(plan).times.total();
  }
  EXPECT_EQ(g_news.load() - before, 0);
  EXPECT_GT(total.sec(), 0.0);
}

// Building a FusionPlan makes the same number of heap allocations at any
// depth: the banks come from the shared table by pointer, and every
// (tree, level)'s extension tables share one block. The timed runners build
// a plan per frame pair, so a per-level cost here would grow with depth.
TEST(ArenaZeroAlloc, PlanConstructionAllocationsDoNotGrowWithDepth) {
  for (const sched::FrameSize size : {sched::FrameSize{32, 24},
                                      sched::FrameSize{88, 72},
                                      sched::FrameSize{33, 25}}) {
    auto news = [&](int levels) {
      dwt::TransformConfig config;
      config.levels = levels;
      (void)dwt::FusionPlan(size.height, size.width, config);  // banks built
      const long long before = g_news.load();
      const dwt::FusionPlan plan(size.height, size.width, config);
      return g_news.load() - before;
    };
    const long long one_level = news(1);
    EXPECT_GT(one_level, 0);
    for (int levels = 2; levels <= 6; ++levels) {
      EXPECT_EQ(news(levels), one_level)
          << size.width << "x" << size.height << " levels=" << levels;
    }
  }
}

// FusionPlan::fuse makes exactly one heap allocation per call, the image it
// returns, once the thread's arena and kernel scratch have grown: every
// plane and band table lives in the arena. Checked at the paper's 88x72 and
// at an odd shape (edge-padded rows and columns), on the scalar set and
// every simd set the host runs.
TEST(ArenaZeroAlloc, FuseAllocatesOnlyItsResult) {
  const sched::RunConfig rc;
  std::vector<const simd::KernelSet*> sets = {&simd::scalar_kernels()};
  sets.insert(sets.end(), simd::simd_kernel_sets().begin(),
              simd::simd_kernel_sets().end());
  for (const sched::FrameSize size : {sched::FrameSize{88, 72},
                                      sched::FrameSize{33, 25}}) {
    const dwt::FusionPlan plan(size.height, size.width, rc.fuse.transform);
    const sched::FramePair frames = sched::make_sweep_frames(size, 1).front();
    for (const simd::KernelSet* k : sets) {
      (void)plan.fuse(frames.visible, frames.thermal, *k);  // warm-up
      const long long before = g_news.load();
      for (int i = 0; i < 8; ++i) {
        const image::ImageF out = plan.fuse(frames.visible, frames.thermal, *k);
        EXPECT_EQ(out.rows(), size.height);
      }
      EXPECT_EQ(g_news.load() - before, 8)
          << size.width << "x" << size.height << " " << k->isa;
    }
  }
}

}  // namespace
