// Per-thread scratch arena for the transform hot loops.
//
// The DT-CWT host path consumes line-sized scratch (extension buffers,
// transposed tiles, intermediate subband planes) thousands of times per
// frame. Before the arena each consumer owned a std::vector that was
// reallocated per level, per tree, per frame; the arena replaces all of them
// with one per-thread bump allocator whose blocks persist for the thread's
// lifetime, so a steady-state frame performs **zero** heap allocations in
// the hot loops (tests/test_arena.cpp pins this with a block counter).
//
// Usage is strictly scoped: take an ArenaScope, alloc from it, and let the
// scope's destructor rewind the bump pointer. Scopes nest (a level pass
// inside a tree pass inside a frame), which is what lets one arena serve
// every layer without a free list. Blocks are float-typed and 64-byte
// aligned so SIMD loads/stores on scratch lines are never split across
// cache lines.
//
// Thread model: thread_arena() hands each thread (pool workers included)
// its own arena, so no synchronization is needed on the alloc path. The
// global block counter is atomic — it only counts block *creation*, which
// happens O(log total-scratch) times per thread, not per alloc.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vf {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Aligned scratch for `n` floats, valid until the enclosing scope rewinds
  // past it. Never zero-initialized: every consumer overwrites its scratch.
  float* alloc(std::size_t n) {
    n = (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
    if (offset_ + n > capacity_) grow(n);
    float* p = current_ + offset_;
    offset_ += n;
    return p;
  }

  // Process-wide count of backing-block creations (all arenas, all threads).
  // Steady state means this stops moving: the zero-allocation guard test
  // asserts it is flat across frames after warm-up.
  static long long total_block_allocations() {
    return block_allocations().load(std::memory_order_relaxed);
  }

  std::size_t bytes_reserved() const { return bytes_reserved_; }

  struct Mark {
    std::size_t block;
    std::size_t offset;
  };
  Mark mark() const { return {block_index_, offset_}; }
  void rewind(const Mark& m) {
    block_index_ = m.block;
    offset_ = m.offset;
    if (block_index_ < blocks_.size()) {
      current_ = blocks_[block_index_].data;
      capacity_ = blocks_[block_index_].floats;
    } else {
      current_ = nullptr;
      capacity_ = 0;
    }
  }

 private:
  static constexpr std::size_t kAlignFloats = 16;  // 64 bytes
  static constexpr std::size_t kMinBlockFloats = 1 << 14;  // 64 KiB

  struct Block {
    std::unique_ptr<float[]> storage;
    float* data = nullptr;  // storage rounded up to a 64-byte boundary
    std::size_t floats = 0;
  };

  static std::atomic<long long>& block_allocations() {
    static std::atomic<long long> count{0};
    return count;
  }

  void grow(std::size_t n) {
    // Reuse an already-reserved later block when it fits; otherwise reserve
    // a new one (geometric growth so warm-up settles in O(log size) blocks).
    std::size_t next = blocks_.empty() ? 0 : block_index_ + 1;
    while (next < blocks_.size() && blocks_[next].floats < n) ++next;
    if (next >= blocks_.size()) {
      std::size_t want = kMinBlockFloats;
      if (!blocks_.empty()) want = blocks_.back().floats * 2;
      if (want < n) want = n;
      Block b;
      // operator new[] only promises max_align_t; over-allocate one stripe
      // and round the base up so every alloc() result is 64-byte aligned.
      // Default-initialized (not make_unique's zero fill): untouched pages of
      // a geometrically grown block then never become resident.
      b.storage.reset(new float[want + kAlignFloats]);
      const auto raw = reinterpret_cast<std::uintptr_t>(b.storage.get());
      const std::uintptr_t aligned = (raw + 63) & ~std::uintptr_t{63};
      b.data = reinterpret_cast<float*>(aligned);
      b.floats = want;
      bytes_reserved_ += want * sizeof(float);
      blocks_.push_back(std::move(b));
      block_allocations().fetch_add(1, std::memory_order_relaxed);
      next = blocks_.size() - 1;
    }
    block_index_ = next;
    current_ = blocks_[next].data;
    capacity_ = blocks_[next].floats;
    offset_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;
  float* current_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;
  std::size_t bytes_reserved_ = 0;
};

// Each thread's own arena (pool workers keep theirs warm across frames
// because the pool's threads live for the process lifetime).
inline Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

// RAII rewind: everything alloc'd through the scope is reclaimed (not freed
// — the blocks stay reserved) when the scope dies. Scopes nest.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena = thread_arena())
      : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  float* alloc(std::size_t n) { return arena_.alloc(n); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace vf
