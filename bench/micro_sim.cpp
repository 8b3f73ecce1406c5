// google-benchmark microbenchmarks of the simulation engine's hot paths:
// event scheduling, coroutine spawn/await, resource reservations, and an
// end-to-end NIC message. These bound the real-time cost of every figure
// bench in this repository.
#include <benchmark/benchmark.h>

#include <functional>
#include <malloc.h>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "mpi/world.hpp"
#include "nic/mr.hpp"
#include "nic/nic.hpp"
#include "nic/wr_pool.hpp"
#include "perftest/perftest.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sock/socket.hpp"

namespace {

using namespace cord;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.call_in(sim::ns(10), [&] { ++fired; });
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EngineScheduleDispatch);

// Queue depth: fill the queue to `depth`, then drain, under the two
// timestamp distributions that matter:
//  * fifo — near-monotone arrival with 4-deep equal-timestamp bursts, the
//    NIC model's doorbell/per-chunk completion pattern;
//  * wide — uniform random over a span of `depth` microseconds, the
//    adversarial spread that forces deep heap sifts.
enum class Dist { kFifo, kWide };

void BM_EngineQueueDepth(benchmark::State& state, Dist dist) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Time> ts(depth);
  sim::Rng rng(0xD5EED5EEDull);
  for (std::size_t i = 0; i < depth; ++i) {
    ts[i] = dist == Dist::kFifo
                ? sim::ns(static_cast<std::int64_t>(i / 4) * 12)
                : static_cast<sim::Time>(rng.next_u64() %
                                         (depth * 1'000'000ull));
  }
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (const sim::Time t : ts) {
      engine.call_at(t, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
// MinTime pinned above the harness default: these are committed
// baselines (BENCH_micro_sim.json) and gate criteria, so they must average
// over enough iterations to flatten the host's frequency/cache noise.
BENCHMARK_CAPTURE(BM_EngineQueueDepth, heap_fifo, Dist::kFifo)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->MinTime(1.0);
BENCHMARK_CAPTURE(BM_EngineQueueDepth, heap_wide, Dist::kWide)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->MinTime(1.0);

// --- Fast-path component benchmarks ------------------------------------

void BM_InlineFnAssignInvoke(benchmark::State& state) {
  sim::InlineFn fn;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    fn.assign([&acc] { ++acc; });
    fn();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_InlineFnAssignInvoke);

void BM_StdFunctionAssignInvoke(benchmark::State& state) {
  std::function<void()> fn;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    fn = [&acc] { ++acc; };
    fn();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_StdFunctionAssignInvoke);

void BM_MrTableCheckLocal(benchmark::State& state) {
  nic::MrTable table;
  static std::byte buf[1 << 16];
  const auto addr = reinterpret_cast<std::uintptr_t>(buf);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(
        table.register_mr(1, addr + 1024u * i, 1024, nic::kAccessLocalWrite).lkey);
  }
  std::size_t i = 0;
  const nic::MemoryRegion* mr = nullptr;
  for (auto _ : state) {
    const std::uint32_t k = keys[i];
    i = (i + 1) & 63;
    mr = table.check_local({addr + 1024u * static_cast<std::uint32_t>(i), 64, k},
                           1, false);
    benchmark::DoNotOptimize(mr);
  }
}
BENCHMARK(BM_MrTableCheckLocal);

void BM_NicFindQp(benchmark::State& state) {
  sim::Engine engine;
  fabric::Network net(engine);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  nic::NicRegistry reg;
  nic::Nic n0(engine, net, reg, 0, {});
  auto pd = n0.alloc_pd();
  auto* cq = n0.create_cq(64);
  std::vector<std::uint32_t> qpns;
  for (int i = 0; i < 64; ++i) {
    qpns.push_back(
        n0.create_qp({nic::QpType::kRC, pd, cq, cq, 64, 64, 220})->qpn());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    nic::QueuePair* qp = n0.find_qp(qpns[i]);
    i = (i + 1) & 63;
    benchmark::DoNotOptimize(qp);
  }
}
BENCHMARK(BM_NicFindQp);

void BM_WrPoolAcquireRelease(benchmark::State& state) {
  nic::WrPool pool;
  for (auto _ : state) {
    nic::WrRef ref = pool.acquire(nic::SendWr{});
    nic::WrRef alias = ref;  // the in-flight paths copy handles around
    benchmark::DoNotOptimize(alias);
  }
  benchmark::DoNotOptimize(pool.allocated());
}
BENCHMARK(BM_WrPoolAcquireRelease);

sim::Task<int> leaf(sim::Engine& e) {
  co_await e.delay(sim::ns(1));
  co_return 1;
}

void BM_TaskSpawnAwait(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    int out = 0;
    engine.spawn([](sim::Engine& e, int& out) -> sim::Task<> {
      out = co_await leaf(e);
    }(engine, out));
    engine.run();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TaskSpawnAwait);

void BM_ResourceReserve(benchmark::State& state) {
  sim::Engine engine;
  sim::Resource r(engine);
  sim::Time t = 0;
  for (auto _ : state) {
    t = r.reserve_at(t, sim::ns(5));
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_ResourceReserve);

void BM_NicEndToEndMessage(benchmark::State& state) {
  sim::Engine engine;
  fabric::Network net(engine);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  nic::NicRegistry reg;
  nic::Nic n0(engine, net, reg, 0, {});
  nic::Nic n1(engine, net, reg, 1, {});
  auto pd0 = n0.alloc_pd();
  auto pd1 = n1.alloc_pd();
  auto* cq0 = n0.create_cq(1u << 20);
  auto* cq1 = n1.create_cq(1u << 20);
  auto* qp0 = n0.create_qp({nic::QpType::kRC, pd0, cq0, cq0, 1u << 16, 1u << 16, 220});
  auto* qp1 = n1.create_qp({nic::QpType::kRC, pd1, cq1, cq1, 1u << 16, 1u << 16, 220});
  n0.modify_qp(*qp0, nic::QpState::kInit);
  n0.modify_qp(*qp0, nic::QpState::kRtr, {1, qp1->qpn()});
  n0.modify_qp(*qp0, nic::QpState::kRts);
  n1.modify_qp(*qp1, nic::QpState::kInit);
  n1.modify_qp(*qp1, nic::QpState::kRtr, {0, qp0->qpn()});
  n1.modify_qp(*qp1, nic::QpState::kRts);
  std::vector<std::byte> src(64), dst(4096);
  const auto& rmr = n1.register_mr(pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
  std::vector<nic::Cqe> wc(16);
  for (auto _ : state) {
    n1.post_recv(*qp1, {1, {reinterpret_cast<std::uintptr_t>(dst.data()), 4096,
                            rmr.lkey}});
    n0.post_send(*qp0, {.sge = {reinterpret_cast<std::uintptr_t>(src.data()), 64, 0},
                        .inline_data = true});
    engine.run();
    while (cq0->poll(wc) > 0) {
    }
    while (cq1->poll(wc) > 0) {
    }
  }
  state.SetLabel("one RC send end-to-end");
}
BENCHMARK(BM_NicEndToEndMessage);

// Deep-queue bandwidth: `depth` signaled RDMA writes per iteration, posted
// in doorbell bursts of `burst` (the engine drains between bursts, so
// `burst` is exactly the SQ depth each drain sees). This is the scenario
// the SoA burst drain targets: one fused per-burst event amortizes WQE
// fetch/protect/segment across the whole burst instead of paying one
// engine event per WQE stage.
void BM_NicBurst(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  const auto bytes = static_cast<std::uint32_t>(state.range(1));
  const auto depth = static_cast<std::size_t>(state.range(2));
  sim::Engine engine;
  fabric::Network net(engine);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  nic::NicRegistry reg;
  nic::Nic n0(engine, net, reg, 0, {});
  nic::Nic n1(engine, net, reg, 1, {});
  auto pd0 = n0.alloc_pd();
  auto pd1 = n1.alloc_pd();
  auto* cq0 = n0.create_cq(1u << 20);
  auto* cq1 = n1.create_cq(1u << 20);
  auto* qp0 = n0.create_qp({nic::QpType::kRC, pd0, cq0, cq0, 1u << 16, 16, 220});
  auto* qp1 = n1.create_qp({nic::QpType::kRC, pd1, cq1, cq1, 16, 16, 220});
  n0.modify_qp(*qp0, nic::QpState::kInit);
  n0.modify_qp(*qp0, nic::QpState::kRtr, {1, qp1->qpn()});
  n0.modify_qp(*qp0, nic::QpState::kRts);
  n1.modify_qp(*qp1, nic::QpState::kInit);
  n1.modify_qp(*qp1, nic::QpState::kRtr, {0, qp0->qpn()});
  n1.modify_qp(*qp1, nic::QpState::kRts);
  std::vector<std::byte> src(bytes), dst(bytes);
  const auto& lmr = n0.register_mr(pd0, src.data(), src.size(),
                                   nic::kAccessLocalWrite);
  const auto& rmr = n1.register_mr(pd1, dst.data(), dst.size(),
                                   nic::kAccessRemoteWrite);
  std::vector<nic::Cqe> wc(64);
  for (auto _ : state) {
    for (std::size_t done = 0; done < depth; done += burst) {
      for (std::size_t i = 0; i < burst; ++i) {
        n0.post_send(*qp0,
                     {.opcode = nic::Opcode::kRdmaWrite,
                      .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                              bytes, lmr.lkey},
                      .signaled = true,
                      .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
                      .rkey = rmr.rkey});
      }
      engine.run();
    }
    while (cq0->poll(wc) > 0) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth) * bytes);
}
BENCHMARK(BM_NicBurst)
    ->ArgNames({"burst", "bytes", "depth"})
    ->Args({1, 64, 256})       // ping-like: no batching available
    ->Args({16, 64, 256})      // moderate doorbell coalescing
    ->Args({256, 64, 256})     // deep queue, small messages
    ->Args({256, 4096, 256})   // deep queue, one-MTU messages
    ->Args({16, 65536, 64})    // segmentation-heavy large messages
    ->MinTime(1.0);

// Batched syscall submission: a deep-pipeline CoRD bandwidth run at
// tx-depth x tx-batch, against the bypass dataplane as the floor the
// amortization chases. The figure of merit is *virtual* time per posted
// message (`sim_ns_per_op`, deterministic — a simulation-model property,
// not a host-noise one); cpu_time additionally gates the real-time cost
// of running the batched path like every other entry. The bench_gate
// holds sim_ns_per_op(batch=1) / sim_ns_per_op(batch=16) above
// SYSCALL_BATCH_FLOOR at both depths.
void BM_SyscallBatch(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  const auto batch = static_cast<std::uint32_t>(state.range(1));
  const bool bypass = state.range(2) != 0;
  perftest::Params p;
  p.op = perftest::TestOp::kWrite;  // one-sided: the client pays all CPU
  p.msg_size = 64;
  p.iterations = 1500;
  p.tx_depth = depth;
  p.tx_batch = batch;
  const auto mode =
      bypass ? verbs::DataplaneMode::kBypass : verbs::DataplaneMode::kCord;
  p.client = verbs::ContextOptions{.mode = mode};
  p.server = verbs::ContextOptions{.mode = mode};
  double ns_per_op = 0.0;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    const auto r = perftest::run_bandwidth(core::system_l(), p);
    ns_per_op = sim::to_ns(r.elapsed) / static_cast<double>(r.messages);
    msgs += r.messages;
  }
  state.counters["sim_ns_per_op"] = ns_per_op;
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
}
BENCHMARK(BM_SyscallBatch)
    ->ArgNames({"depth", "batch", "bypass"})
    ->Args({64, 1, 0})
    ->Args({64, 4, 0})
    ->Args({64, 16, 0})
    ->Args({64, 64, 0})
    ->Args({256, 1, 0})
    ->Args({256, 4, 0})
    ->Args({256, 16, 0})
    ->Args({256, 64, 0})
    ->Args({64, 1, 1})    // bypass reference: the amortization target
    ->Args({256, 1, 1});

// IPoIB byte stream: one 1 MiB send through a connected socket pair,
// drained by recv() into a 64 KiB sink. Every segment lands in the
// receiver's queue and is copied out again, so this bounds the host cost
// of moving socket payloads (the IPoIB share of the NPB figure runs).
void BM_SocketStream(benchmark::State& state) {
  constexpr std::size_t kMessage = 1u << 20;
  sim::Engine engine;
  fabric::Network net(engine);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  nic::NicRegistry reg;
  os::Host h0(engine, net, reg, 0, {}, {});
  os::Host h1(engine, net, reg, 1, {}, {});
  sock::SocketStack s0(h0, net);
  sock::SocketStack s1(h1, net);
  auto [tx, rx] = sock::SocketStack::connect(s0, s1);
  std::vector<std::byte> src(kMessage, std::byte{0x5a});
  std::vector<std::byte> sink(64u << 10);
  for (auto _ : state) {
    engine.spawn([](os::Core& c, sock::Socket* s,
                    std::span<const std::byte> data) -> sim::Task<> {
      (void)co_await s->send(c, data);
    }(h0.core(0), tx, src));
    engine.spawn([](os::Core& c, sock::Socket* s,
                    std::span<std::byte> sink) -> sim::Task<> {
      std::size_t got = 0;
      while (got < kMessage) got += co_await s->recv(c, sink);
    }(h1.core(0), rx, sink));
    engine.run();
    benchmark::DoNotOptimize(sink.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMessage));
}
BENCHMARK(BM_SocketStream);

// An MPI rank waiting out a long idle stretch: 2 ranks over verbs
// (bypass, System A), rank 0 computes for 500 ms and then sends one 64 B
// eager message that rank 1 has been waiting for since the start. Each
// iteration runs a fresh World; building and destroying the System and
// the World happens with the timer paused, so the time is the run
// (endpoint setup, wiring, the wait). A rank that steps through its idle
// polls costs ~3 engine events per 20 us backoff round (~75,000 for the
// wait); a parked one costs a handful. events_per_msg counts every event
// of the run, setup included.
void BM_MpiIdleWait(benchmark::State& state) {
  // With glibc's default thresholds each iteration hands the endpoints'
  // ~9 MB of slot buffers back to the kernel and faults them in again in
  // the next run's setup, which costs more than the rest of the run
  // (5.1 against 2.1 ms per iteration on a shared 4-vCPU host). Keep
  // freed memory in the process instead. This benchmark is registered
  // last, so no other one runs under these settings.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 32 << 20);
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<core::System>(core::system_a(), 2);
    auto world = std::make_unique<mpi::World>(
        *sys, 2, mpi::WorldConfig{.net = mpi::NetMode::kBypass});
    state.ResumeTiming();
    const sim::Time t = world->run([](mpi::Rank& r) -> sim::Task<> {
      std::vector<std::byte> buf(64);
      if (r.id() == 0) {
        co_await r.compute(sim::ms(500));
        co_await r.send<std::byte>(1, 1, buf);
      } else {
        (void)co_await r.recv<std::byte>(0, 1, buf);
      }
    });
    benchmark::DoNotOptimize(t);
    state.PauseTiming();
    events = sys->engine().events_processed();
    world.reset();
    sys.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["events_per_msg"] = static_cast<double>(events);
}
BENCHMARK(BM_MpiIdleWait);

}  // namespace

BENCHMARK_MAIN();
