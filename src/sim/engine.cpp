#include "sim/engine.hpp"

namespace cord::sim {

namespace detail {
void notify_root_done(Engine& engine, std::uint64_t root_id) noexcept {
  engine.roots_.erase(root_id);
}
}  // namespace detail

std::vector<Engine::Slab>& Engine::slab_cache() {
  static std::vector<Slab> cache;
  return cache;
}

Engine::FnSlot* Engine::grow_slots() {
  auto& cache = slab_cache();
  FnSlot* slab;
  std::size_t count;
  if (!cache.empty()) {
    // LIFO reuse: the most recently retired slab is the warmest.
    slab = cache.back().slots.release();
    count = cache.back().count;
    cache.pop_back();
  } else {
    count = slab_slots_;
    slab = new FnSlot[count];
  }
  if (slab_slots_ < kMaxSlabSlots) slab_slots_ *= 2;
  slots_.push_back(Slab{std::unique_ptr<FnSlot[]>(slab), count});
  for (std::size_t i = 0; i + 1 < count; ++i) {
    slab[i].next_free = &slab[i + 1];
  }
  slab[count - 1].next_free = free_slots_;
  free_slots_ = slab;
  return slab;
}

Engine::~Engine() {
  // Destroy roots that never completed (their frames own all nested
  // coroutine frames through Task members, so this reclaims the whole
  // logical stack of each process).
  for (auto& [id, h] : roots_) h.destroy();
  roots_.clear();
  // Destroy callbacks still parked in the queue. Slots NOT in the queue
  // are always empty (release_slot clears before recycling), so the
  // queue's tagged payloads identify every live callable — no need to
  // walk whole slabs.
  const auto clear_parked = [](const Item& item) {
    if (item.payload & kFnTag) {
      reinterpret_cast<FnSlot*>(item.payload & ~kFnTag)->fn.clear();
    }
  };
  for (const Item& item : heap_.heap_items()) clear_parked(item);
  if (heap_.has_cached()) clear_parked(heap_.cached());
  // Retire slabs (now guaranteed all-empty) to the process-wide cache
  // instead of freeing them; see slab_cache().
  auto& cache = slab_cache();
  std::size_t cached = 0;
  for (const auto& slab : cache) cached += slab.count;
  for (auto& slab : slots_) {
    if (cached + slab.count > kMaxCachedSlots) continue;  // excess: freed
    cached += slab.count;
    cache.push_back(std::move(slab));
  }
  slots_.clear();
}

}  // namespace cord::sim
