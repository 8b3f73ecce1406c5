#include "sim/engine.hpp"

#include <stdexcept>

namespace cord::sim {

namespace detail {
void notify_root_done(Engine& engine, std::uint64_t root_id) noexcept {
  engine.roots_.erase(root_id);
}
}  // namespace detail

void Engine::throw_undecided() {
  throw std::logic_error(
      "sim::Engine: a back-dated step shares its instant and queueing "
      "instant with an event it cannot be ordered against");
}

void Engine::throw_too_many() {
  throw std::length_error(
      "sim::Engine: more than 2^24 - 2 events queued at one instant");
}

void Engine::keep_history() {
  if (!hist_.empty()) return;
  hist_.assign(1024, 0);
  hist_mask_ = hist_.size() - 1;
  hist_first_ = instant_;
  hist_[instant_ & hist_mask_] = now_;
}

void Engine::grow_history() {
  std::vector<Time> bigger(hist_.size() * 2);
  const std::uint64_t from =
      instant_ - hist_first_ > hist_.size() ? instant_ - hist_.size() : hist_first_;
  for (std::uint64_t i = from; i < instant_; ++i) {
    bigger[i & (bigger.size() - 1)] = hist_[i & hist_mask_];
  }
  hist_ = std::move(bigger);
  hist_mask_ = hist_.size() - 1;
}

void Engine::schedule_at(Time t, Time queued_at, StepKey& key) {
  if (hist_.empty() || queued_at > now_ || queued_at < now_ - kHistorySpan) {
    throw std::logic_error(
        "sim::Engine: back-dated beyond the recorded instants");
  }
  // The number of the first instant later than queued_at: the step takes
  // the last sequence number before it.
  std::uint64_t after = instant_ + 1;
  if (queued_at < now_) {
    const std::size_t mask = hist_mask_;
    std::uint64_t lo = instant_ - hist_first_ >= hist_.size()
                           ? instant_ + 1 - hist_.size()
                           : hist_first_;
    if (hist_[lo & mask] > queued_at && lo == hist_first_) {
      throw std::logic_error(
          "sim::Engine: back-dated to before keep_history()");
    }
    // Instants that fell out of the ring lie more than kHistorySpan back,
    // before queued_at. Find the first recorded one after it in
    // [lo, instant_]; instant_ itself (now_) is after it.
    std::uint64_t hi = instant_;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (hist_[mid & mask] > queued_at) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    after = lo;
  }
  if (next_seq_ >= ((instant_ + 1) << kCountBits) - 1) throw_too_many();
  key.queued_at_ = queued_at;
  key.backdated_ = true;
  push_keyed(Item{clamp_to_now(t), (after << kCountBits) - 1, key_payload(key)});
}

void Engine::advance_slow(bool full) {
  if (full) throw_too_many();
  record_instant();
}

bool Engine::special_due(const Item& item) {
  if (item.payload & kAlarmTag) {
    // Fire if the alarm is armed for this instant, otherwise vanish
    // (re-queueing the alarm if it is armed later).
    Alarm& a = *reinterpret_cast<Alarm*>(item.payload & ~kAlarmTag);
    if (a.queued == item.t) a.queued = kNever;
    if (a.at != item.t) {
      if (a.at != kNever && a.queued == kNever) push_alarm(a, item.seq);
      return false;
    }
    a.at = kNever;
    return true;
  }
  const StepKey& key = *key_of(item.payload);
  if ((now_payload_ & kKeyTag) == 0) {
    // The event before was ordinary: the last one so far.
    plain_t_ = now_;
    plain_seq_ = now_seq_;
  }
  // An ordinary event with the same (t, queued_at) ran before a
  // back-dated step, possibly with keyed steps in between.
  if (key.backdated_ && plain_t_ == item.t &&
      instant_of(plain_seq_) == key.queued_at_) {
    ++undecided_ties_;
  }
  now_key_q_ = key.queued_at_;
  return true;
}

void Engine::push_keyed(Item item) {
  if (++pending_ > peak_pending_) peak_pending_ = pending_;
  keyed_.push_back(item);
  std::push_heap(keyed_.begin(), keyed_.end(), keyed_after);
}

Engine::Item Engine::pop_merged() {
  if (!heap_.empty() && heap_.top().before(keyed_.front())) return queue_pop();
  std::pop_heap(keyed_.begin(), keyed_.end(), keyed_after);
  const Item item = keyed_.back();
  keyed_.pop_back();
  --pending_;
  return item;
}

Engine::AlarmId Engine::add_alarm(InlineFn fn) {
  if (alarms_.size() + 1 >= (std::uint64_t{1} << kCountBits)) throw_too_many();
  alarms_.push_back(std::make_unique<Alarm>(Alarm{kNever, kNever, std::move(fn)}));
  return alarms_.size() - 1;
}

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
