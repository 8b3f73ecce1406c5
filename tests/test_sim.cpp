// Unit tests for the discrete-event simulation core: engine ordering,
// coroutine task composition, latches/signals, FIFO resources,
// RNG determinism, statistics, and the coroutine frame arena.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/frame_arena.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace cord::sim {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(ns(1), 1000);
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(ms(1), 1'000'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(to_ns(ns(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(us(7)), 7.0);
  EXPECT_EQ(ns_d(1.5), 1500);
}

TEST(Units, BandwidthTimeFor) {
  // 100 Gbit/s == 12.5 bytes/ns: 4096 B should take 327.68 ns.
  auto bw = Bandwidth::gbit_per_sec(100.0);
  EXPECT_EQ(bw.time_for(4096), 327'680);
  EXPECT_NEAR(bw.gbps(), 100.0, 1e-9);
  // 1 GiB/s
  auto bw2 = Bandwidth::gbyte_per_sec(1.0);
  EXPECT_EQ(bw2.time_for(1000), 1'000'000);  // 1000 B at 1 B/ns
  EXPECT_TRUE(Bandwidth::unlimited().is_unlimited());
  EXPECT_EQ(Bandwidth::unlimited().time_for(1 << 20), 0);
}

TEST(Units, Format) {
  EXPECT_EQ(format_time(ns(5)), "5.0 ns");
  EXPECT_EQ(format_time(us(3)), "3.000 us");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4.0 KiB");
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine e;
  Time observed = -1;
  e.spawn([](Engine& e, Time& observed) -> Task<> {
    co_await e.delay(us(5));
    observed = e.now();
  }(e, observed));
  e.run();
  EXPECT_EQ(observed, us(5));
  EXPECT_EQ(e.live_roots(), 0u);
}

TEST(Engine, EventsFireInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(30));
    order.push_back(3);
  }(e, order));
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(10));
    order.push_back(1);
  }(e, order));
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(20));
    order.push_back(2);
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](Engine& e, std::vector<int>& order, int i) -> Task<> {
      co_await e.delay(ns(10));
      order.push_back(i);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- keyed, back-dated steps and alarms ------------------------------------

struct TestKey final : StepKey {
  explicit TestKey(int id) : id(id) {}
  int order(const StepKey& other) const override {
    return id < static_cast<const TestKey&>(other).id ? -1 : 1;
  }
  int id;
};

/// Suspend and resume as `key`'s step at `t`, back-dated to `queued_at`.
auto backdated_step(Engine& e, TestKey& key, Time t, Time queued_at) {
  struct Awaiter {
    Engine& e;
    TestKey& key;
    Time t;
    Time queued_at;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      key.handle = h;
      e.schedule_at(t, queued_at, key);
    }
    void await_resume() const {}
  };
  return Awaiter{e, key, t, queued_at};
}

TEST(Engine, BackdatedStepRunsWhereItsQueuingInstantPutsIt) {
  Engine e;
  e.keep_history();
  std::vector<int> order;
  // Queued at 0 and at 10 for t = 20; the step is queued at 10, back-dated
  // to 5: it runs between them.
  e.call_at(20, [&] { order.push_back(0); });
  TestKey key(1);
  e.spawn([](Engine& e, TestKey& key, std::vector<int>& order) -> Task<> {
    co_await e.delay(10);
    e.call_at(20, [&] { order.push_back(2); });
    co_await backdated_step(e, key, 20, 5);
    order.push_back(1);
  }(e, key, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(e.undecided_ties(), 0u);
}

TEST(Engine, KeyedStepsWithTheSameInstantsRunInKeyOrder) {
  Engine e;
  e.keep_history();
  std::vector<int> order;
  TestKey low(1);
  TestKey high(2);
  // Back-dated in the opposite order of their keys.
  for (TestKey* k : {&high, &low}) {
    e.spawn([](Engine& e, TestKey& key, std::vector<int>& order) -> Task<> {
      co_await e.delay(10);
      co_await backdated_step(e, key, 20, 5);
      order.push_back(key.id);
    }(e, *k, order));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, UndecidableTieStopsTheRun) {
  // An ordinary event and a back-dated step, both queued at 10 for t = 20:
  // nothing tells their order.
  Engine e;
  e.keep_history();
  TestKey key(1);
  e.spawn([](Engine& e, TestKey& key) -> Task<> {
    co_await e.delay(10);
    e.call_at(20, [] {});
    co_await backdated_step(e, key, 20, 10);
  }(e, key));
  EXPECT_THROW(e.run(), std::logic_error);
  EXPECT_EQ(e.undecided_ties(), 1u);
}

/// Suspend and resume as `key`'s step at `t`, queued now.
auto keyed_step(Engine& e, TestKey& key, Time t) {
  struct Awaiter {
    Engine& e;
    TestKey& key;
    Time t;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      key.handle = h;
      e.schedule_at(t, key);
    }
    void await_resume() const {}
  };
  return Awaiter{e, key, t};
}

TEST(Engine, UndecidableTieStopsTheRunWithAKeyedStepInBetween) {
  // All three queued at 10 for t = 20, and run as: the ordinary event
  // (first in sequence), the keyed step (its key ranks first), the
  // back-dated step. The ordinary event and the back-dated step still
  // cannot be ordered.
  Engine e;
  e.keep_history();
  TestKey first(1);
  TestKey second(2);
  std::vector<int> order;
  e.spawn([](Engine& e, TestKey& key, std::vector<int>& order) -> Task<> {
    co_await e.delay(10);
    e.call_at(20, [&order] { order.push_back(0); });
    co_await keyed_step(e, key, 20);
    order.push_back(key.id);
  }(e, first, order));
  e.spawn([](Engine& e, TestKey& key, std::vector<int>& order) -> Task<> {
    co_await e.delay(10);
    co_await backdated_step(e, key, 20, 10);
    order.push_back(key.id);
  }(e, second, order));
  EXPECT_THROW(e.run(), std::logic_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(e.undecided_ties(), 1u);
}

TEST(Engine, KeyForgottenDuringItsStepIsNeverReadAgain) {
  Engine e;
  e.keep_history();
  bool checked = false;
  e.spawn([](Engine& e, bool& checked) -> Task<> {
    co_await e.delay(10);
    {
      TestKey key(1);
      co_await backdated_step(e, key, 20, 5);
      EXPECT_EQ(e.dispatch_key(), &key);
      e.forget_key(&key);
    }
    EXPECT_EQ(e.dispatch_key(), nullptr);
    EXPECT_TRUE(e.dispatch_is_step());
    EXPECT_EQ(e.queued_at(), 5);
    checked = true;
  }(e, checked));
  e.run();
  EXPECT_TRUE(checked);
}

TEST(Engine, BackdatingNeedsTheRecordedInstants) {
  Engine e;
  TestKey key(1);
  EXPECT_THROW(e.schedule_at(10, 0, key), std::logic_error) << "no history kept";
  e.keep_history();
  e.call_at(Engine::kHistorySpan + 10, [&] {
    EXPECT_THROW(e.schedule_at(e.now() + 10, 5, key), std::logic_error)
        << "beyond kHistorySpan";
  });
  e.run();
}

TEST(Engine, AlarmFiresFirstAtItsInstantAndVanishesWhenDisarmed) {
  Engine e;
  std::vector<int> order;
  const Engine::AlarmId a = e.add_alarm([&] { order.push_back(1); });
  const Engine::AlarmId b = e.add_alarm([&] { order.push_back(9); });
  e.call_at(50, [&] { order.push_back(2); });
  e.arm_alarm(a, 50);
  e.arm_alarm(b, 1000);
  e.call_at(60, [&] { e.disarm_alarm(b); });
  EXPECT_EQ(e.run(), 60) << "a disarmed alarm leaves now() where it was";
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.events_processed(), 3u) << "the disarmed alarm is no event";
}

TEST(Engine, ReArmingLaterReusesTheQueuedAlarm) {
  Engine e;
  Time fired = -1;
  const Engine::AlarmId a = e.add_alarm([&] { fired = e.now(); });
  e.arm_alarm(a, 100);
  e.call_at(40, [&] { e.arm_alarm(a, 300); });
  e.run();
  EXPECT_EQ(fired, 300);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CallAtRunsCallback) {
  Engine e;
  Time fired = -1;
  e.call_at(ns(42), [&] { fired = e.now(); });
  e.run();
  EXPECT_EQ(fired, ns(42));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.call_at(ns(10), [&] { ++fired; });
  e.call_at(ns(100), [&] { ++fired; });
  e.run_until(ns(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), ns(50));
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), ns(100));
}

TEST(Engine, DestructorReclaimsStuckRoots) {
  // A root waiting on a latch that never triggers must not leak.
  auto latch_owner = std::make_unique<Engine>();
  Engine& e = *latch_owner;
  auto latch = std::make_unique<Latch>(e);
  e.spawn([](Latch& l) -> Task<> { co_await l.wait(); }(*latch));
  e.run();
  EXPECT_EQ(e.live_roots(), 1u);
  latch_owner.reset();  // must destroy the suspended root without UB
}

Task<int> add_later(Engine& e, int a, int b) {
  co_await e.delay(ns(7));
  co_return a + b;
}

TEST(Task, NestedTasksComposeAndReturnValues) {
  Engine e;
  int result = 0;
  e.spawn([](Engine& e, int& result) -> Task<> {
    int x = co_await add_later(e, 2, 3);
    int y = co_await add_later(e, x, 10);
    result = y;
  }(e, result));
  e.run();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(e.now(), ns(14));
}

Task<int> thrower(Engine& e) {
  co_await e.delay(ns(1));
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  e.spawn([](Engine& e, bool& caught) -> Task<> {
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DeepRecursionDoesNotOverflowStack) {
  // Symmetric transfer should make deeply nested awaits O(1) native stack.
#if defined(__SANITIZE_ADDRESS__)
  // ASan instrumentation defeats the symmetric-transfer tail call, so the
  // unwind really does recurse on the native stack; keep the depth modest.
  constexpr int kDepth = 1'000;
#else
  constexpr int kDepth = 50'000;
#endif
  Engine e;
  struct Helper {
    static Task<int> count_down(Engine& e, int n) {
      if (n == 0) co_return 0;
      co_await e.delay(ps(1));
      int v = co_await count_down(e, n - 1);
      co_return v + 1;
    }
  };
  int result = 0;
  e.spawn([](Engine& e, int& result) -> Task<> {
    result = co_await Helper::count_down(e, kDepth);
  }(e, result));
  e.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Latch, WaitersReleaseOnTrigger) {
  Engine e;
  Latch latch(e);
  std::vector<Time> wake_times;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Engine& e, Latch& l, std::vector<Time>& t) -> Task<> {
      co_await l.wait();
      t.push_back(e.now());
    }(e, latch, wake_times));
  }
  e.call_at(ns(100), [&] { latch.trigger(); });
  e.run();
  ASSERT_EQ(wake_times.size(), 3u);
  for (Time t : wake_times) EXPECT_EQ(t, ns(100));
}

TEST(Latch, WaitAfterTriggerIsImmediate) {
  Engine e;
  Latch latch(e);
  latch.trigger();
  Time woke = -1;
  e.spawn([](Engine& e, Latch& l, Time& woke) -> Task<> {
    co_await e.delay(ns(5));
    co_await l.wait();  // should not suspend
    woke = e.now();
  }(e, latch, woke));
  e.run();
  EXPECT_EQ(woke, ns(5));
}

TEST(Signal, EachTriggerReleasesCurrentWaiters) {
  Engine e;
  Signal sig(e);
  int wakes = 0;
  e.spawn([](Engine& e, Signal& s, int& wakes) -> Task<> {
    co_await s.wait();
    ++wakes;
    co_await s.wait();
    ++wakes;
    (void)e;
  }(e, sig, wakes));
  e.call_at(ns(10), [&] { sig.trigger(); });
  e.call_at(ns(20), [&] { sig.trigger(); });
  e.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Resource, SerializesOverlappingRequests) {
  Engine e;
  Resource r(e);
  std::vector<Time> finish;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Engine& e, Resource& r, std::vector<Time>& fin) -> Task<> {
      co_await r.use(ns(100));
      fin.push_back(e.now());
    }(e, r, finish));
  }
  e.run();
  // Three requests issued at t=0 against a 100 ns server: 100, 200, 300.
  EXPECT_EQ(finish, (std::vector<Time>{ns(100), ns(200), ns(300)}));
  EXPECT_EQ(r.busy_total(), ns(300));
}

TEST(Resource, IdleServerStartsImmediately) {
  Engine e;
  Resource r(e);
  Time t1 = -1, t2 = -1;
  e.spawn([](Engine& e, Resource& r, Time& t1, Time& t2) -> Task<> {
    co_await r.use(ns(10));
    t1 = e.now();
    co_await e.delay(ns(100));  // let the server go idle
    co_await r.use(ns(10));
    t2 = e.now();
  }(e, r, t1, t2));
  e.run();
  EXPECT_EQ(t1, ns(10));
  EXPECT_EQ(t2, ns(120));  // starts at 110, not at 20
}

TEST(Resource, ReserveReturnsCompletionWithoutSuspending) {
  Engine e;
  Resource r(e);
  EXPECT_EQ(r.reserve(ns(50)), ns(50));
  EXPECT_EQ(r.reserve(ns(50)), ns(100));
  EXPECT_EQ(r.next_free(), ns(100));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  OnlineStats s;
  for (int i = 0; i < 20'000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Stats, OnlineStatsBasics) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, ThroughputCounter) {
  ThroughputCounter c;
  c.start(us(0));
  c.add(1'000'000);  // 1 MB over 1 ms -> 1 GB/s -> 8 Gbit/s
  EXPECT_NEAR(c.per_second(ms(1)), 1e9, 1.0);
  EXPECT_NEAR(c.gbit_per_sec(ms(1)), 8.0, 1e-9);
}

// --- Coroutine frame arena -------------------------------------------

TEST(FrameArena, RecyclesBlocksLifo) {
  using namespace detail;
  const auto s0 = frame_arena_stats();
  void* a = frame_alloc(256);
  ASSERT_NE(a, nullptr);
  frame_free(a, 256);
  void* b = frame_alloc(256);
  EXPECT_EQ(a, b);  // same size class comes straight off the freelist
  frame_free(b, 256);
  const auto s1 = frame_arena_stats();
  EXPECT_EQ(s1.allocs, s0.allocs + 2);
  EXPECT_EQ(s1.fallback_allocs, s0.fallback_allocs);
}

TEST(FrameArena, OversizedFramesFallBackToHeap) {
  using namespace detail;
  const auto s0 = frame_arena_stats();
  void* big = frame_alloc(1 << 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 1 << 16);
  frame_free(big, 1 << 16);
  EXPECT_EQ(frame_arena_stats().fallback_allocs, s0.fallback_allocs + 1);
}

Task<> trivial_task(int& counter) {
  ++counter;
  co_return;
}

TEST(FrameArena, SpawnHeavyWorkloadReusesSlabSpace) {
  using namespace detail;
  Engine e;
  int ran = 0;
  for (int i = 0; i < 64; ++i) e.spawn(trivial_task(ran));
  e.run();
  ASSERT_EQ(ran, 64);
  const std::size_t warm_bytes = frame_arena_stats().slab_bytes;
  for (int i = 0; i < 512; ++i) {
    e.spawn(trivial_task(ran));
    e.run();  // frame freed before the next spawn: steady-state recycling
  }
  EXPECT_EQ(frame_arena_stats().slab_bytes, warm_bytes);
  EXPECT_EQ(ran, 64 + 512);
}

}  // namespace
}  // namespace cord::sim
