#include "sim/frame_arena.hpp"

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
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

// Trivially destructible and constant-initialized, so the function static
// needs no init guard and is never torn down: frames freed during static
// destruction still find it.
struct Cache {
  FreeBlock* free_[kClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  // Every slab carved so far; deliberately never freed, so a block cannot
  // outlive its slab.
  std::vector<std::unique_ptr<std::byte[]>>* slabs = nullptr;
  FrameArenaStats stats;

  void* carve(std::size_t c) {
    const std::size_t bytes = class_bytes(c);
    if (static_cast<std::size_t>(bump_end - bump) < bytes) {
      if (slabs == nullptr) slabs = new std::vector<std::unique_ptr<std::byte[]>>;
      slabs->push_back(std::make_unique<std::byte[]>(kSlabBytes));
      bump = slabs->back().get();
      bump_end = bump + kSlabBytes;
      stats.slab_bytes += kSlabBytes;
    }
    void* p = bump;
    bump += bytes;
    ++stats.slab_carves;
    return p;
  }
};

static_assert(std::is_trivially_destructible_v<Cache>);

Cache& cache() {
  static Cache c;
  return c;
}

}  // namespace

void* frame_alloc(std::size_t n) {
  Cache& tc = cache();
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
  return tc.carve(c);
}

void frame_free(void* p, std::size_t n) noexcept {
  if (n > kMaxBlock) [[unlikely]] {
    ::operator delete(p);
    return;
  }
  Cache& tc = cache();
  const std::size_t c = class_of(n);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = tc.free_[c];
  tc.free_[c] = b;
}

FrameArenaStats frame_arena_stats() { return cache().stats; }

}  // namespace cord::sim::detail
