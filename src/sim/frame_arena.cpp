#include "sim/frame_arena.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace cord::sim::detail {
namespace {

// Size classes: 64-byte steps up to 2 KiB. Frames beyond that (deeply
// captured coroutines) fall through to the global allocator — they are
// rare and not worth fragmenting slabs for.
constexpr std::size_t kGranule = 64;
constexpr std::size_t kMaxBlock = 2048;
constexpr std::size_t kClasses = kMaxBlock / kGranule;  // 32
constexpr std::size_t kSlabBytes = 64 * 1024;  // below glibc's mmap threshold

constexpr std::size_t class_of(std::size_t n) {
  return (n + kGranule - 1) / kGranule - 1;
}
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

struct FreeBlock {
  FreeBlock* next;
};

// Process-wide state: retired slabs (kept alive until exit — blocks from
// them may sit on any thread's freelist) and orphaned freelists spliced
// in by exiting threads.
struct Global {
  std::mutex mu;
  std::vector<std::unique_ptr<std::byte[]>> slabs;
  FreeBlock* orphans[kClasses] = {};
};

Global& global() {
  static Global* g = new Global;  // immortal: frames may outlive statics
  return *g;
}

struct ThreadCache {
  FreeBlock* free_[kClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  FrameArenaStats stats;

  ~ThreadCache() {
    // Splice everything this thread cached back into the global pool so a
    // short-lived thread never strands recycled blocks.
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = free_[c]) {
        free_[c] = b->next;
        b->next = g.orphans[c];
        g.orphans[c] = b;
      }
    }
    // Remaining bump space is abandoned (at most one slab tail per
    // thread); the slab itself already lives in the global registry.
  }

  void* carve(std::size_t c) {
    const std::size_t bytes = class_bytes(c);
    if (static_cast<std::size_t>(bump_end - bump) < bytes) {
      auto slab = std::make_unique<std::byte[]>(kSlabBytes);
      bump = slab.get();
      bump_end = bump + kSlabBytes;
      stats.slab_bytes += kSlabBytes;
      Global& g = global();
      std::lock_guard<std::mutex> lock(g.mu);
      g.slabs.push_back(std::move(slab));
    }
    void* p = bump;
    bump += bytes;
    ++stats.slab_carves;
    return p;
  }
};

ThreadCache& cache() {
  thread_local ThreadCache tc;
  return tc;
}

}  // namespace

void* frame_alloc(std::size_t n) {
  ThreadCache& tc = cache();
  ++tc.stats.allocs;
  if (n > kMaxBlock) [[unlikely]] {
    ++tc.stats.fallback_allocs;
    return ::operator new(n);
  }
  const std::size_t c = class_of(n);
  if (FreeBlock* b = tc.free_[c]) {
    tc.free_[c] = b->next;
    return b;
  }
  // Refill from orphaned lists (blocks freed by threads that exited)
  // before carving fresh slab space.
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.orphans[c] != nullptr) {
      tc.free_[c] = g.orphans[c];
      g.orphans[c] = nullptr;
    }
  }
  if (FreeBlock* b = tc.free_[c]) {
    tc.free_[c] = b->next;
    return b;
  }
  return tc.carve(c);
}

void frame_free(void* p, std::size_t n) noexcept {
  if (n > kMaxBlock) [[unlikely]] {
    ::operator delete(p);
    return;
  }
  ThreadCache& tc = cache();
  const std::size_t c = class_of(n);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = tc.free_[c];
  tc.free_[c] = b;
}

FrameArenaStats frame_arena_stats() { return cache().stats; }

}  // namespace cord::sim::detail
