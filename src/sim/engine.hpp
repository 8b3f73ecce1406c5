// Discrete-event engine: a single-threaded virtual clock plus an event
// queue of coroutine resumptions and callbacks. Deterministic: ties in
// timestamp break by insertion sequence number, which grows with the
// instant an event was queued at: every event runs in `(t, queued_at,
// insertion)` order.
//
// Keyed steps. A waiter may queue its steps with a StepKey, the record of
// its chain of steps: `schedule_at(t, key)` queues one at now() like any
// event, `schedule_at(t, queued_at, key)` back-dates one that was queued
// by a step the waiter never ran (it skipped simulating it), so that it
// takes the place that step's event would have taken. Events that share
// `(t, queued_at)` run in insertion order, except that a back-dated step
// is ordered against other keyed steps by their keys (StepKey::order),
// and after ordinary events: those cannot be ordered against it. Such a
// pair, or two keys that cannot tell their order, stops the run with
// std::logic_error rather than guess (undecided_ties()).
//
// Sequence numbers are `(instant << 24) | count`: `instant` counts the
// distinct instants the clock has passed through, `count` the events
// queued during one of them. A back-dated step takes the last number of
// the last instant not later than its queueing instant, which puts it
// after every event queued up to then and before every event queued
// later; mapping that instant to its number needs the instants the clock
// went through, which the engine records once asked (keep_history()).
//
// Hot-path design (the engine bounds the wall-clock of every figure
// bench):
//  * Heap items are 24-byte PODs `{t, seq, payload}` — the payload is a
//    tagged pointer: a coroutine frame address (tag 0), a pooled
//    callback slot (tag 1), an alarm (tag 2) or a StepKey (tag 4). Sift
//    operations move three words, never the callable itself, and only
//    two keyed steps at the same instant ever look past `(t, seq)`.
//  * Callbacks live in `InlineFn` slots from a slab-backed freelist: a
//    `call_at` constructs the callable directly in a recycled slot, so
//    steady-state simulation performs zero allocations per event and the
//    callable never moves once parked.
//  * The queue is a hand-rolled 4-ary min-heap: shallower than a binary
//    heap (fewer cache-missing levels per sift) and `reserve()`d up
//    front. Ordering is the exact `(t, seq)` total order the old
//    `std::priority_queue` used for every ordinary event — `seq` is
//    unique, so pop order is a strict total order independent of heap
//    layout, and every EXPERIMENTS.md number is unchanged.
//  * Scheduling into the past clamps to `now()` in every build mode (the
//    old `assert` vanished under NDEBUG and silently corrupted event
//    order); `clamped_events()` counts occurrences for tests/debugging.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace cord::trace {
class Tracer;
}  // namespace cord::trace

namespace cord::sim {

class Engine;

/// A waiter's chain of steps, queued through the engine one at a time:
/// the event resumes `handle`. order() ranks this chain's pending step
/// against another chain's pending step with the same (t, queued_at): < 0
/// when this one runs first, > 0 otherwise (never 0 — a key that cannot
/// tell reports it through Engine::count_undecided_tie, which stops the
/// run, and returns a fixed order meanwhile). A key must outlive its
/// queued step.
class StepKey {
 public:
  virtual int order(const StepKey& other) const = 0;

  std::coroutine_handle<> handle;

 protected:
  ~StepKey() = default;

 private:
  friend class Engine;
  Time queued_at_ = 0;  // of the pending step
  bool backdated_ = false;
};

class Engine {
 public:
  Engine() { heap_.reserve(1024); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const { return now_; }

  /// Resume `h` at absolute time `t` (clamped to now() if in the past).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    queue_push(Item{clamp_to_now(t), next_seq_++,
                    reinterpret_cast<std::uintptr_t>(h.address())});
  }
  /// Resume `key.handle` at `t`: the next step of `key`'s chain, queued
  /// now like any event.
  void schedule_at(Time t, StepKey& key) {
    key.queued_at_ = now_;
    key.backdated_ = false;
    push_keyed(Item{clamp_to_now(t), next_seq_++, key_payload(key)});
  }
  /// Back-dated: resume `key.handle` at `t`, ordered as if queued at
  /// `queued_at` by a step of the chain that never ran. Events at `t`
  /// queued before `queued_at` run first, events queued after it run
  /// later, keyed steps queued at `queued_at` run in key order; an
  /// ordinary event queued at `queued_at` cannot be ordered against it,
  /// which stops the run (undecided_ties()). Requires keep_history()
  /// since `queued_at` or earlier, and now() - kHistorySpan <= queued_at
  /// <= now(); throws std::logic_error otherwise.
  void schedule_at(Time t, Time queued_at, StepKey& key);
  /// Start recording the instants the clock passes through, which
  /// back-dating needs; a no-op once recording.
  void keep_history();
  /// How far back a step may be back-dated.
  static constexpr Time kHistorySpan = us(100);
  /// The instant at which the event being dispatched was queued, or
  /// kLongAgo for an ordinary event queued more than kHistorySpan ago or
  /// before keep_history(). With now() it places the current dispatch in
  /// the event order: an event at (now(), queued_at()) runs before any at
  /// (now(), q) for q > queued_at().
  Time queued_at() const {
    return (now_payload_ & kKeyTag) != 0 ? now_key_q_ : instant_of(now_seq_);
  }
  static constexpr Time kLongAgo = INT64_MIN;
  /// 1-based index of the event being dispatched, in dispatch order.
  std::uint64_t dispatch_index() const { return events_processed_; }
  /// The StepKey of the event being dispatched, nullptr unless it is a
  /// keyed step whose key is still alive (forget_key).
  const StepKey* dispatch_key() const { return key_of(now_payload_); }
  /// Whether the event being dispatched is a keyed step, alive or not.
  bool dispatch_is_step() const { return (now_payload_ & kKeyTag) != 0; }
  /// Called by a key that dies during its own step's dispatch: from then
  /// on dispatch_key() is nullptr and the key is never read again.
  void forget_key(const StepKey* key) {
    if (dispatch_key() == key) now_payload_ = kKeyTag;
  }
  /// Same-instant ties around back-dated steps whose order the keys could
  /// not decide. The first one stops run()/run_until() with
  /// std::logic_error: the run would otherwise guess an order that the
  /// skipped steps may not have had.
  std::uint64_t undecided_ties() const { return undecided_ties_; }
  void count_undecided_tie() { ++undecided_ties_; }
  /// Resume `h` after `delay`.
  void schedule_in(Time delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, h);
  }

  /// Run `fn` at absolute time `t` (used for device callbacks,
  /// interrupts). The callable is constructed directly into a pooled
  /// slot; captures up to InlineFn::kCapacity bytes never touch the heap.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
                std::is_invocable_v<std::remove_cvref_t<F>&>>>
  void call_at(Time t, F&& fn) {
    FnSlot* slot = acquire_slot();
    slot->fn.assign(std::forward<F>(fn));
    push_fn(t, slot);
  }
  /// Overload for a pre-built InlineFn (one relocation into the slot).
  void call_at(Time t, InlineFn fn) {
    FnSlot* slot = acquire_slot();
    slot->fn = std::move(fn);
    push_fn(t, slot);
  }
  template <typename F>
  void call_in(Time delay, F&& fn) {
    call_at(now_ + delay, std::forward<F>(fn));
  }

  /// Alarms: re-armable wake-ups for a waiter that simulates no events of
  /// its own (a parked MPI wait's deadlock deadline). An armed alarm runs
  /// its callback once, before every other event at its instant; arming
  /// an alarm later than it is queued costs no new event, and an alarm
  /// that is disarmed or re-armed before it fires leaves nothing visible
  /// behind: its queued entry pops without advancing now() or counting as
  /// an event. Alarms live as long as the engine.
  using AlarmId = std::size_t;
  AlarmId add_alarm(InlineFn fn);
  /// (Re)arm alarm `id` to fire at `t` (>= now()).
  void arm_alarm(AlarmId id, Time t) {
    Alarm& a = *alarms_[id];
    a.at = t;
    if (a.queued > t) push_alarm(a, id);
  }
  void disarm_alarm(AlarmId id) { alarms_[id]->at = kNever; }

  /// Detach a root task: it starts at the current time and owns itself.
  template <typename T>
  void spawn(Task<T> task) {
    auto h = task.release();
    auto& p = h.promise();
    p.owner_engine = this;
    p.root_id = next_root_id_++;
    roots_.emplace(p.root_id, h);
    schedule_at(now_, h);
  }

  /// Run until the event queue drains. Returns the final virtual time.
  /// Defined inline: this is THE simulation hot loop, and keeping it
  /// visible to callers lets the compiler collapse a schedule→dispatch
  /// ping-pong into register traffic.
  Time run() {
    while (pending_ != 0 && undecided_ties_ == 0) step_one();
    if (undecided_ties_ != 0) [[unlikely]] throw_undecided();
    return now_;
  }
  /// Run until the queue drains or virtual time would pass `deadline`.
  /// Events after `deadline` stay queued; now() is clamped to `deadline`.
  Time run_until(Time deadline) {
    while (pending_ != 0 && undecided_ties_ == 0 && next_t() <= deadline) {
      step_one();
    }
    if (undecided_ties_ != 0) [[unlikely]] throw_undecided();
    if (now_ < deadline) advance(deadline);
    return now_;
  }

  /// Number of detached roots that have not finished yet.
  std::size_t live_roots() const { return roots_.size(); }
  /// Total events processed (for the engine microbenchmarks).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Events whose requested time lay in the past and were clamped to
  /// now(). Non-zero values indicate a model bug worth investigating.
  std::uint64_t clamped_events() const { return clamped_events_; }
  /// Events currently queued (for capacity planning in benches).
  std::size_t pending_events() const { return pending_; }
  /// High-water mark of the queue depth (events simultaneously queued).
  std::size_t queue_peak_depth() const { return peak_pending_; }

  /// The active tracer, or nullptr when tracing is off. Every trace point
  /// in the stack guards on this single pointer, so disabled tracing costs
  /// one predicted branch per point; the engine itself never reads it on
  /// the hot loop. Installed by trace::Tracer::set_enabled.
  trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Awaitable: suspend the current coroutine for `d` of virtual time.
  auto delay(Time d) {
    struct Awaiter {
      Engine& engine;
      Time d;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_in(d, h); }
      void await_resume() const {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: suspend until absolute virtual time `t` (>= now()).
  auto sleep_until(Time t) {
    struct Awaiter {
      Engine& engine;
      Time t;
      bool await_ready() const { return t <= engine.now(); }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_at(t, h); }
      void await_resume() const {}
    };
    return Awaiter{*this, t};
  }

 private:
  friend void detail::notify_root_done(Engine&, std::uint64_t) noexcept;

  /// Pop and dispatch exactly one event (requires pending_ != 0): the body
  /// of both run loops.
  [[gnu::always_inline]] void step_one() {
    const Item item = keyed_.empty() ? queue_pop() : pop_merged();
    if (item.payload & (kAlarmTag | kKeyTag)) [[unlikely]] {
      if (!special_due(item)) return;
    }
    if (item.t != now_) advance(item.t);
    now_seq_ = item.seq;
    now_payload_ = item.payload;
    dispatch(item.payload);
  }

  /// The clock moves on to a new instant, which starts a new run of
  /// sequence numbers.
  [[gnu::always_inline]] void advance(Time t) {
    now_ = t;
    ++instant_;
    // The instant before took the numbers up to here (the last one is
    // reserved for back-dated steps).
    const bool full = next_seq_ >= (instant_ << kCountBits) - 1;
    next_seq_ = instant_ << kCountBits;
    if (full | (hist_mask_ != 0)) [[unlikely]] advance_slow(full);
  }
  void advance_slow(bool full);

  // Payload tag bits. FnSlot, Alarm, StepKey and coroutine frames are all
  // aligned to at least 8, so the low three bits of the address are free.
  static constexpr std::uintptr_t kFnTag = 1;
  static constexpr std::uintptr_t kAlarmTag = 2;
  static constexpr std::uintptr_t kKeyTag = 4;
  static constexpr std::uintptr_t kTagMask = 7;
  // Bits of a sequence number that count the events queued during one
  // instant; the bits above number the instant.
  static constexpr int kCountBits = 24;

  static std::uintptr_t key_payload(StepKey& key) {
    return reinterpret_cast<std::uintptr_t>(&key) | kKeyTag;
  }
  static StepKey* key_of(std::uintptr_t payload) {
    return (payload & kKeyTag) != 0
               ? reinterpret_cast<StepKey*>(payload & ~kTagMask)
               : nullptr;
  }
  static constexpr Time kNever = INT64_MAX;


  /// Pooled parking space for one scheduled callback. Slots live in
  /// fixed-size slabs (stable addresses) and recycle via freelist; retired
  /// slabs are cached across engine instances.
  struct FnSlot {
    InlineFn fn;
    FnSlot* next_free = nullptr;
  };

  /// One queued event: a 24-byte POD moved by value through the heap.
  /// The payload is a coroutine frame address, FnSlot* | kFnTag,
  /// Alarm* | kAlarmTag or StepKey* | kKeyTag.
  struct Item {
    Time t;
    std::uint64_t seq;
    std::uintptr_t payload;

    bool before(const Item& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Item>);
  static_assert(sizeof(Item) == 24);

  /// The order of two keyed steps: by time, queueing instant, then by
  /// their keys when one of them is back-dated (the others were queued in
  /// sequence order). Sequence numbers agree with the first two, except
  /// that back-dated steps share theirs. Against ordinary events a keyed
  /// step orders by `(t, seq)` like any event.
  static bool keyed_before(const Item& x, const Item& y) {
    if (x.t != y.t) return x.t < y.t;
    const StepKey& a = *key_of(x.payload);
    const StepKey& b = *key_of(y.payload);
    if (a.queued_at_ != b.queued_at_) return a.queued_at_ < b.queued_at_;
    if (a.backdated_ || b.backdated_) return a.order(b) < 0;
    return x.seq < y.seq;
  }
  static bool keyed_after(const Item& x, const Item& y) { return keyed_before(y, x); }

  /// Keyed steps wait in their own small heap (keyed_), so that the main
  /// queue's comparisons stay the branch-free `(t, seq)` order.
  void push_keyed(Item item);
  Item pop_merged();
  Time next_t() const {
    if (keyed_.empty()) return heap_.top().t;
    if (heap_.empty()) return keyed_.front().t;
    return std::min(heap_.top().t, keyed_.front().t);
  }

  struct alignas(8) Alarm {
    Time at;      // armed instant, kNever when disarmed
    Time queued;  // instant of its earliest queued entry, kNever if none
    InlineFn fn;
  };

  void push_alarm(Alarm& a, AlarmId id) {
    a.queued = a.at;
    // Numbered "before time began" (instant 0): sorts before everything
    // at its instant.
    queue_push(Item{a.at, id, reinterpret_cast<std::uintptr_t>(&a) | kAlarmTag});
  }

  /// A popped alarm or keyed step, before it is dispatched: whether it
  /// runs (a stale alarm entry does not).
  bool special_due(const Item& item);

  [[noreturn]] static void throw_undecided();
  [[noreturn]] static void throw_too_many();

  /// The instant of sequence number `seq`, or kLongAgo if it is no longer
  /// (or not) recorded.
  Time instant_of(std::uint64_t seq) const {
    const std::uint64_t i = seq >> kCountBits;
    if (i < hist_first_ || i + hist_.size() <= instant_) return kLongAgo;
    return hist_[i & hist_mask_];
  }
  void record_instant() {
    // The slot to reuse holds the instant hist_.size() instants back;
    // keep it while it is within the span back-dating may reach.
    if (instant_ - hist_first_ >= hist_.size() &&
        hist_[instant_ & hist_mask_] >= now_ - kHistorySpan) [[unlikely]] {
      grow_history();
    }
    hist_[instant_ & hist_mask_] = now_;
  }
  void grow_history();

  /// 4-ary min-heap ordered by Item::before, fronted by a one-item cache.
  /// `(t, seq)` is a strict total order (seq is unique), so pop order is
  /// independent of internal layout — determinism rests on neither the
  /// arity nor the cache, only on always popping the global minimum.
  ///
  /// The cache absorbs ping-pong scheduling (push one, pop one — the
  /// dominant pattern in request-response simulations): such events never
  /// touch the vector. The cached item is NOT necessarily the global
  /// minimum; pop() compares it against the heap front.
  class EventHeap {
   public:
    bool empty() const { return !has_cached_ && v_.empty(); }
    std::size_t size() const { return v_.size() + (has_cached_ ? 1 : 0); }
    void reserve(std::size_t n) { v_.reserve(n); }
    /// The global minimum (requires !empty()).
    const Item& top() const {
      if (!has_cached_) return v_.front();
      if (v_.empty() || cached_.before(v_.front())) return cached_;
      return v_.front();
    }
    const std::vector<Item>& heap_items() const { return v_; }
    bool has_cached() const { return has_cached_; }
    const Item& cached() const { return cached_; }

    // Everything below is force-inlined: GCC's size heuristics otherwise
    // outline the whole push/pop, and every scheduling site then pays a
    // call with a by-value Item staged through the stack (~15-20%% of the
    // per-event budget at both queue-depth extremes).
    [[gnu::always_inline]] void push(Item item) {
      if (!has_cached_) {
        cached_ = item;
        has_cached_ = true;
        return;
      }
      // Keep the smaller of the two in the cache (it is the likelier next
      // pop) and spill the other into the heap.
      Item spill = item;
      if (item.before(cached_)) {
        spill = cached_;
        cached_ = item;
      }
      heap_push(spill);
    }

    [[gnu::always_inline]] Item pop() {
      if (has_cached_ && (v_.empty() || cached_.before(v_.front()))) {
        has_cached_ = false;
        return cached_;
      }
      return heap_pop();
    }

   private:
    [[gnu::always_inline]] void heap_push(Item item) {
      std::size_t i = v_.size();
      v_.emplace_back(item);
      // Fast path: events mostly arrive in time order, so the new item
      // usually stays where it landed (one compare, zero extra stores).
      if (i == 0 || !item.before(v_[(i - 1) / 4])) return;
      do {
        const std::size_t parent = (i - 1) / 4;
        if (!item.before(v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      } while (i > 0);
      v_[i] = item;
    }

    [[gnu::always_inline]] Item heap_pop() {
      const Item out = v_.front();
      const Item last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n > 0) {
        std::size_t i = 0;
        for (;;) {
          const std::size_t first = 4 * i + 1;
          if (first >= n) break;
          std::size_t best = first;
          const std::size_t end = first + 4 < n ? first + 4 : n;
          for (std::size_t c = first + 1; c < end; ++c) {
            if (v_[c].before(v_[best])) best = c;
          }
          if (!v_[best].before(last)) break;
          v_[i] = v_[best];
          i = best;
        }
        v_[i] = last;
      }
      return out;
    }

    bool has_cached_ = false;
    Item cached_{};
    std::vector<Item> v_;
  };

  // pending_ is the engine's own depth counter, so empty checks never
  // consult the heap.

  [[gnu::always_inline]] void queue_push(Item item) {
    if (++pending_ > peak_pending_) peak_pending_ = pending_;
    heap_.push(item);
  }

  [[gnu::always_inline]] Item queue_pop() {
    --pending_;
    return heap_.pop();
  }

  Time clamp_to_now(Time t) {
    if (t < now_) [[unlikely]] {
      ++clamped_events_;
      return now_;
    }
    return t;
  }

  /// One slab of FnSlots plus its length (slabs have varying sizes:
  /// geometric growth, and recycled slabs keep their original size).
  struct Slab {
    std::unique_ptr<FnSlot[]> slots;
    std::size_t count = 0;
  };

  /// Process-wide cache of retired slabs. The simulator is single-threaded
  /// by design, and tests/benches construct thousands of short-lived
  /// engines; recycling slabs avoids a malloc/free pair per slab per
  /// engine — and, more importantly, stops glibc from trimming the freed
  /// pages back to the kernel at every engine teardown only to page-fault
  /// them in again (that churn costs far more than the events themselves).
  static std::vector<Slab>& slab_cache();

  FnSlot* acquire_slot() {
    FnSlot* slot = free_slots_;
    if (slot == nullptr) [[unlikely]] {
      slot = grow_slots();
    }
    free_slots_ = slot->next_free;
    return slot;
  }

  FnSlot* grow_slots();

  void release_slot(FnSlot* slot) {
    // Destroy the callable now, not at engine teardown. Callables with no
    // destructor state need no clear at all: assign() overwrites in place.
    if (!slot->fn.trivial_state()) [[unlikely]] slot->fn.clear();
    slot->next_free = free_slots_;
    free_slots_ = slot;
  }

  void push_fn(Time t, FnSlot* slot) {
    queue_push(Item{clamp_to_now(t), next_seq_++,
                    reinterpret_cast<std::uintptr_t>(slot) | kFnTag});
  }

  /// Execute one popped event: resume a coroutine (tag 0), invoke and
  /// recycle a parked callback (kFnTag), fire an alarm (kAlarmTag) or
  /// resume a keyed step (kKeyTag).
  void dispatch(std::uintptr_t payload) {
    ++events_processed_;
    if (payload & (kAlarmTag | kKeyTag)) [[unlikely]] {
      if (payload & kKeyTag) {
        key_of(payload)->handle.resume();
      } else {
        reinterpret_cast<Alarm*>(payload & ~kAlarmTag)->fn();
      }
    } else if (payload & kFnTag) {
      FnSlot* slot = reinterpret_cast<FnSlot*>(payload & ~kFnTag);
      slot->fn();
      release_slot(slot);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(payload))
          .resume();
    }
  }

  // 512 slots * sizeof(FnSlot)==128 keeps every slab at 64 KiB, safely
  // below glibc's 128 KiB mmap threshold (an over-threshold slab would be
  // served by mmap/munmap plus fresh page faults on every allocation).
  static constexpr std::size_t kMaxSlabSlots = 512;
  // Upper bound on slots parked in the slab cache (~1 MiB).
  static constexpr std::size_t kMaxCachedSlots = 8192;

  EventHeap heap_;
  std::vector<Item> keyed_;  // keyed steps: a heap by keyed_before
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Slab> slots_;
  std::size_t slab_slots_ = 64;  // next fresh-slab size; doubles to the cap
  FnSlot* free_slots_ = nullptr;
  std::unordered_map<std::uint64_t, std::coroutine_handle<>> roots_;
  // Boxed: queued entries point at them.
  std::vector<std::unique_ptr<Alarm>> alarms_;
  Time now_ = 0;
  // The instant now_ is the instant_-th the clock passed through (1-based;
  // alarms are numbered in instant 0).
  std::uint64_t instant_ = 1;
  std::uint64_t next_seq_ = std::uint64_t{1} << kCountBits;
  // The event being dispatched: its sequence number and payload, and its
  // queueing instant if it is a keyed step.
  std::uint64_t now_seq_ = 0;
  std::uintptr_t now_payload_ = 0;
  Time now_key_q_ = 0;
  // The last ordinary event dispatched before the current keyed steps.
  Time plain_t_ = 0;
  std::uint64_t plain_seq_ = 0;
  // Ring of recorded instants, by instant number (empty until
  // keep_history()); numbers before hist_first_ were not recorded.
  std::vector<Time> hist_;
  std::size_t hist_mask_ = 0;  // hist_.size() - 1, 0 while not recording
  std::uint64_t hist_first_ = 0;
  std::uint64_t next_root_id_ = 1;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_events_ = 0;
  std::uint64_t undecided_ties_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace cord::sim
