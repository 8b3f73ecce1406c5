// Slab arena for coroutine frames.
//
// Every Task<T> coroutine frame allocates through here (class-scope
// operator new on the task promise), replacing the per-spawn malloc/free
// pair with a thread-cached, size-classed freelist carved out of 64 KiB
// slabs — the same slab discipline the engine uses for InlineFn slots.
// Spawn-heavy workloads (one frame per simulated request) recycle frames
// at freelist cost and never touch the global allocator in steady state.
//
// Threading: allocation and same-thread free go through a thread_local
// cache with no synchronization. A frame freed on a different thread than
// the one that allocated it lands on that thread's local freelist —
// blocks are just memory, freelist membership is independent of which
// slab they came from. Slabs
// are retired to a process-wide registry and reclaimed only at process
// exit, so a block never outlives its slab; when a thread exits, its
// cached freelists are spliced into a mutex-protected global pool that
// other threads refill from, so short-lived threads leak nothing.
#pragma once

#include <cstddef>

namespace cord::sim::detail {

/// Allocate a coroutine-frame block of at least `n` bytes.
void* frame_alloc(std::size_t n);
/// Return a block obtained from frame_alloc (same `n`).
void frame_free(void* p, std::size_t n) noexcept;

/// Introspection for tests: total blocks carved from slabs by this thread
/// minus blocks currently parked on its freelists — i.e. live frames, as
/// seen by this thread's cache (cross-thread frees skew it negative).
struct FrameArenaStats {
  std::size_t slab_bytes = 0;    ///< bytes reserved in slabs (this thread)
  std::size_t allocs = 0;        ///< frame_alloc calls (this thread)
  std::size_t slab_carves = 0;   ///< allocs that had to carve fresh slab space
  std::size_t fallback_allocs = 0;  ///< oversized frames sent to operator new
};
FrameArenaStats frame_arena_stats();

}  // namespace cord::sim::detail
