#include "scenarios.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "mpi/world.hpp"
#include "os/policies.hpp"
#include "perftest/tenancy.hpp"
#include "sim/join.hpp"
#include "sim/rng.hpp"
#include "trace/causal/causal.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fixed simulated work of the verbs family. Sizes are chosen so that one
// pass takes a small fraction of a run, which lets a run average many passes.
constexpr std::size_t kPingOps = 10000;
constexpr std::size_t kPingWarmup = 50;
constexpr std::uint32_t kPingSlot = 256;  // >= every drawn ping size
constexpr std::uint32_t kStreamMsg = 64;
constexpr std::uint32_t kStreamWindow = 128;
constexpr std::uint32_t kStreamWrites = 100000;
constexpr std::uint32_t kStreamSlots = 1024;
// Virtual-time bound on any single wait: far above every healthy latency,
// small enough that a lost completion fails fast instead of spinning.
constexpr sim::Time kWaitTimeout = sim::ms(1);

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

/// Run `task` as the only root on the System's engine until the queue
/// drains; rethrows whatever the task threw.
void drive(core::System& sys, sim::Task<> task) {
  std::exception_ptr error;
  bool done = false;
  sys.engine().spawn([](sim::Task<> t, std::exception_ptr& error,
                        bool& done) -> sim::Task<> {
    try {
      co_await std::move(t);
    } catch (...) {
      error = std::current_exception();
    }
    done = true;
  }(std::move(task), error, done));
  sys.engine().run();
  if (error) std::rethrow_exception(error);
  if (!done) throw std::runtime_error("simulation drained before the task ended");
}

void require_ok(const nic::Cqe& c, const char* what) {
  if (c.status != nic::WcStatus::kSuccess) {
    throw std::runtime_error(std::string(what) + ": completion " +
                             std::string(nic::to_string(c.status)));
  }
}

/// Count a scenario's ops: a scenario that threw fails at least one op
/// even when the exception came after its last per-op check.
void settle(Ledger& ledger, std::uint64_t attempted, std::uint64_t ok,
            const std::string& error, const std::string& what) {
  std::uint64_t failed = attempted - std::min(ok, attempted);
  if (!error.empty()) failed = std::max<std::uint64_t>(failed, 1);
  ledger.record(attempted, failed, error.empty() ? what : what + ": " + error);
}

void require_rc(int rc, const char* what) {
  if (rc != 0) {
    throw std::runtime_error(std::string(what) + ": rc " + std::to_string(rc));
  }
}

/// Two connected RC endpoints on a fresh System L: the client on host 0,
/// the server on host 1, one registered buffer each.
struct Pair {
  std::unique_ptr<core::System> sys;
  std::unique_ptr<verbs::Context> cli, srv;
  nic::CompletionQueue *scq_c = nullptr, *rcq_c = nullptr;
  nic::CompletionQueue *scq_s = nullptr, *rcq_s = nullptr;
  nic::QueuePair *qc = nullptr, *qs = nullptr;
  std::vector<std::byte> buf_c, buf_s;
  const nic::MemoryRegion *mr_c = nullptr, *mr_s = nullptr;
};

sim::Task<> establish(Pair& p, std::uint32_t sq_depth) {
  const auto pd_c = co_await p.cli->alloc_pd();
  const auto pd_s = co_await p.srv->alloc_pd();
  p.scq_c = co_await p.cli->create_cq(8192);
  p.rcq_c = co_await p.cli->create_cq(8192);
  p.scq_s = co_await p.srv->create_cq(8192);
  p.rcq_s = co_await p.srv->create_cq(8192);
  const std::uint32_t max_inline = p.sys->config().nic.max_inline;
  p.qc = co_await p.cli->create_qp(
      {nic::QpType::kRC, pd_c, p.scq_c, p.rcq_c, sq_depth, 1024, max_inline});
  p.qs = co_await p.srv->create_qp(
      {nic::QpType::kRC, pd_s, p.scq_s, p.rcq_s, sq_depth, 1024, max_inline});
  require_rc(co_await p.cli->connect_qp(*p.qc, {1, p.qs->qpn()}), "client connect");
  require_rc(co_await p.srv->connect_qp(*p.qs, {0, p.qc->qpn()}), "server connect");
  constexpr std::uint32_t access = nic::kAccessLocalWrite | nic::kAccessRemoteWrite;
  p.mr_c = co_await p.cli->reg_mr(pd_c, p.buf_c.data(), p.buf_c.size(), access);
  p.mr_s = co_await p.srv->reg_mr(pd_s, p.buf_s.data(), p.buf_s.size(), access);
  if (p.mr_c == nullptr || p.mr_s == nullptr) {
    throw std::runtime_error("memory registration failed");
  }
}

/// Build and connect a Pair, charging the host time to the pass's setup.
std::unique_ptr<Pair> make_pair(Pass& pass, verbs::DataplaneMode mode,
                                std::uint32_t tx_batch, std::size_t buf_c,
                                std::size_t buf_s, std::uint32_t sq_depth) {
  const auto t0 = Clock::now();
  auto p = std::make_unique<Pair>();
  p->sys = std::make_unique<core::System>(core::system_l(), 2);
  pass.build_s += since(t0);
  verbs::ContextOptions opts = p->sys->options(mode);
  opts.tx_batch = tx_batch;
  p->cli = std::make_unique<verbs::Context>(p->sys->host(0), 0, opts);
  p->srv = std::make_unique<verbs::Context>(p->sys->host(1), 0, opts);
  p->buf_c.assign(buf_c, std::byte{0});
  p->buf_s.assign(buf_s, std::byte{0});
  drive(*p->sys, establish(*p, sq_depth));
  pass.setup_s += since(t0);
  return p;
}

std::byte ping_pattern(std::size_t i) {
  return static_cast<std::byte>((i * 131 + 17) % 255 + 1);
}

// --- send ping-pong ---------------------------------------------------------
// Client buffer: [tx | rx], one slot each. Server buffer: two receive
// slots; the server echoes each ping from the slot it landed in, so the
// client's byte check covers the payload's round trip.

sim::Task<> ping_server(Pair& p, std::size_t total) {
  verbs::Context& ctx = *p.srv;
  auto slot = [&p](std::size_t i) { return uptr(p.buf_s.data() + (i % 2) * kPingSlot); };
  for (std::size_t i = 0; i < total; ++i) {
    const nic::Cqe rc = co_await ctx.wait_one(*p.rcq_s, kWaitTimeout);
    require_ok(rc, "server recv");
    require_rc(co_await ctx.post_recv(*p.qs, {i + 1, {slot(i + 1), kPingSlot, p.mr_s->lkey}}),
               "server post_recv");
    nic::SendWr wr;
    wr.wr_id = i;
    wr.sge = {slot(i), rc.byte_len, p.mr_s->lkey};
    wr.inline_data = rc.byte_len <= p.sys->config().nic.max_inline;
    require_rc(co_await ctx.post_send(*p.qs, std::move(wr)), "server post_send");
    require_ok(co_await ctx.wait_one(*p.scq_s, kWaitTimeout), "server send");
  }
}

sim::Task<> ping_client(Pair& p, const std::vector<std::uint32_t>& sizes,
                        sim::Samples& one_way_ns, std::size_t& ok) {
  verbs::Context& ctx = *p.cli;
  std::byte* tx = p.buf_c.data();
  std::byte* rx = p.buf_c.data() + kPingSlot;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint32_t len = sizes[i];
    std::memset(tx, static_cast<int>(ping_pattern(i)), len);
    std::memset(rx, 0, len);
    require_rc(co_await ctx.post_recv(*p.qc, {i, {uptr(rx), kPingSlot, p.mr_c->lkey}}),
               "client post_recv");
    const sim::Time t0 = ctx.core().engine().now();
    nic::SendWr wr;
    wr.wr_id = i;
    wr.sge = {uptr(tx), len, p.mr_c->lkey};
    wr.inline_data = len <= p.sys->config().nic.max_inline;
    require_rc(co_await ctx.post_send(*p.qc, std::move(wr)), "client post_send");
    require_ok(co_await ctx.wait_one(*p.scq_c, kWaitTimeout), "client send");
    const nic::Cqe echo = co_await ctx.wait_one(*p.rcq_c, kWaitTimeout);
    require_ok(echo, "client recv");
    const sim::Time rtt = ctx.core().engine().now() - t0;
    if (echo.byte_len != len || std::memcmp(rx, tx, len) != 0) {
      throw std::runtime_error("ping-pong echo does not match the ping");
    }
    if (i >= kPingWarmup) one_way_ns.add(sim::to_ns(rtt) / 2.0);
    ++ok;
  }
}

sim::Task<> ping_pong(Pair& p, const std::vector<std::uint32_t>& sizes,
                      sim::Samples& one_way_ns, std::size_t& ok) {
  require_rc(co_await p.srv->post_recv(*p.qs, {0, {uptr(p.buf_s.data()), kPingSlot,
                                                    p.mr_s->lkey}}),
             "server initial post_recv");
  sim::Joinable server(p.sys->engine(), ping_server(p, sizes.size()));
  // Join the server even when the client fails: its waits time out, and
  // the Joinable must not be destroyed while the server still runs.
  std::exception_ptr error;
  try {
    co_await ping_client(p, sizes, one_way_ns, ok);
  } catch (...) {
    error = std::current_exception();
  }
  try {
    co_await server.join();
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  if (error) std::rethrow_exception(error);
}

void pingpong(const Inputs& in, std::size_t mode, Ledger& ledger, Pass& pass,
              Tracing* tr) {
  const auto dp = mode == kCord ? verbs::DataplaneMode::kCord
                                : verbs::DataplaneMode::kBypass;
  auto p = make_pair(pass, dp, 1, 2 * kPingSlot, 2 * kPingSlot, 256);
  if (tr != nullptr) p->sys->set_tracing(true);
  sim::Samples one_way_ns;
  std::size_t ok = 0;
  std::string error;
  const auto t0 = Clock::now();
  try {
    drive(*p->sys, ping_pong(*p, in.ping_sizes, one_way_ns, ok));
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double host = since(t0);
  pass.run_s += host;
  pass.host_s["pingpong"] += host;
  const std::string key = std::string("pingpong.") + mode_name(mode);
  settle(ledger, in.ping_sizes.size(), ok, error, key);
  settle(ledger, 1, p->sys->sharded().clamped_events() == 0, "", key + " engine clamp");
  pass.modelled[key + ".p50_ns"] = one_way_ns.count() ? one_way_ns.percentile(50) : 0.0;
  pass.modelled[key + ".p99_ns"] = one_way_ns.count() ? one_way_ns.percentile(99) : 0.0;
  pass.ctr[mode].add(*p->sys);
  if (tr != nullptr) tr->collect(*p->sys, mode, /*observe=*/true);
}

// --- 64 B RC write stream ---------------------------------------------------

sim::Task<> write_stream(Pair& p, sim::Time& elapsed, std::size_t& ok) {
  verbs::Context& ctx = *p.cli;
  std::memset(p.buf_c.data(), 0x5A, kStreamMsg);
  std::vector<nic::Cqe> wc(64);
  std::uint32_t posted = 0;
  const sim::Time t0 = ctx.core().engine().now();
  const sim::Time deadline = t0 + 100 * kWaitTimeout;
  while (ok < kStreamWrites) {
    while (posted < kStreamWrites && posted - ok < kStreamWindow) {
      nic::SendWr wr;
      wr.wr_id = posted;
      wr.opcode = nic::Opcode::kRdmaWrite;
      wr.sge = {uptr(p.buf_c.data()), kStreamMsg, p.mr_c->lkey};
      wr.inline_data = kStreamMsg <= p.sys->config().nic.max_inline;
      wr.remote_addr = uptr(p.buf_s.data() + (posted % kStreamSlots) * kStreamMsg);
      wr.rkey = p.mr_s->rkey;
      require_rc(co_await ctx.post_send(*p.qc, std::move(wr)), "stream post_send");
      ++posted;
    }
    const std::size_t n = co_await ctx.poll_cq(*p.scq_c, wc);
    for (std::size_t j = 0; j < n; ++j) require_ok(wc[j], "stream write");
    ok += n;
    if (ctx.core().engine().now() > deadline) {
      throw std::runtime_error("write stream timed out");
    }
  }
  elapsed = ctx.core().engine().now() - t0;
  if (ctx.deferred_errors() != 0) throw std::runtime_error("deferred post errors");
  for (std::uint32_t s = 0; s < kStreamSlots; ++s) {
    const std::byte* slot = p.buf_s.data() + s * kStreamMsg;
    for (std::uint32_t b = 0; b < kStreamMsg; ++b) {
      if (slot[b] != std::byte{0x5A}) throw std::runtime_error("stream payload mismatch");
    }
  }
}

void stream(std::size_t mode, std::uint32_t tx_batch, const std::string& label,
            Ledger& ledger, Pass& pass, Tracing* tr) {
  const auto dp = mode == kCord ? verbs::DataplaneMode::kCord
                                : verbs::DataplaneMode::kBypass;
  auto p = make_pair(pass, dp, tx_batch, kStreamMsg,
                     std::size_t{kStreamSlots} * kStreamMsg, kStreamWindow + 16);
  if (mode == kCord) {
    // One allow-list entry puts the policy chain, and with batching its
    // verdict cache, on every CoRD post of the stream.
    auto& acl = static_cast<os::SecurityAcl&>(p->sys->host(0).kernel().policies().install(
        std::make_unique<os::SecurityAcl>()));
    acl.allow(0, 1);
  }
  if (tr != nullptr) p->sys->set_tracing(true);
  sim::Time elapsed = 0;
  std::size_t ok = 0;
  std::string error;
  const auto t0 = Clock::now();
  try {
    drive(*p->sys, write_stream(*p, elapsed, ok));
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double host = since(t0);
  pass.run_s += host;
  pass.host_s["stream"] += host;
  settle(ledger, kStreamWrites, ok, error, "stream." + label);
  settle(ledger, 1, p->sys->sharded().clamped_events() == 0, "",
         "stream." + label + " engine clamp");
  pass.modelled["stream." + label + ".mmsg_s"] =
      elapsed > 0 ? kStreamWrites / sim::to_sec(elapsed) / 1e6 : 0.0;
  pass.ctr[mode].add(*p->sys);
  if (tr != nullptr) tr->collect(*p->sys, mode, /*observe=*/false);
}

// --- noisy neighbor -----------------------------------------------------------

void noisy(const Inputs& in, bool cord_with_policies, Ledger& ledger, Pass& pass) {
  perftest::NoisyParams np;
  np.victim_gap = in.victim_gap;
  np.cord = cord_with_policies;
  np.policies = cord_with_policies;
  const std::string key = cord_with_policies ? "noisy.cord" : "noisy.bypass";
  const std::uint64_t pings = np.victims * np.victim_pings;
  const auto t0 = Clock::now();
  try {
    const perftest::NoisyResult r = perftest::run_noisy_neighbor(core::system_l(), np);
    settle(ledger, pings, r.victim_us.count(), "", key + " victim pings");
    settle(ledger, 1, r.clamped_events == 0, "", key + " engine clamp");
    pass.modelled[key + ".victim_p99_us"] = r.victim_p99_us;
    pass.modelled[key + ".victim_pings"] = static_cast<double>(r.victim_us.count());
    pass.modelled[key + ".attacker_ops"] = static_cast<double>(r.attacker_ops);
    pass.modelled[key + ".attacker_denied"] = static_cast<double>(r.attacker_denied);
    pass.modelled[key + ".icm_qp_misses"] = static_cast<double>(r.icm_qp_misses);
  } catch (const std::exception& e) {
    settle(ledger, pings, 0, e.what(), key);
  }
  const double host = since(t0);
  pass.run_s += host;
  pass.host_s["noisy"] += host;
}

}  // namespace

const char* mode_name(std::size_t m) {
  switch (m) {
    case kBypass: return "bypass";
    case kCord: return "cord";
    case kIpoib: return "ipoib";
  }
  return "?";
}

Inputs draw_inputs(std::uint64_t seed) {
  sim::Rng rng(0xE2EB00ull ^ (seed * 0x9E3779B97F4A7C15ull));
  Inputs in;
  // Small messages, all inline on System L (max_inline 220 B), so the mix
  // moves per-op cost rather than flipping between inline and DMA paths.
  in.ping_sizes.resize(kPingOps);
  for (auto& s : in.ping_sizes) s = 8 + static_cast<std::uint32_t>(rng.next_below(193));
  // Victims ping every 14-16 us of virtual time (the scenario's default
  // gap is 15 us); the gap is the only victim timing the scenario exposes.
  in.victim_gap = sim::us(14) + static_cast<sim::Time>(rng.next_below(sim::us(2) + 1));
  return in;
}

void Ledger::record(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                    const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops != 0 && failures.size() < 8) {
    failures.push_back(what);
  }
}

void Counters::add(core::System& sys) {
  sim::Engine& eng = sys.engine();
  events += eng.events_processed();
  clamped += eng.clamped_events();
  queue_peak = std::max(queue_peak, eng.queue_peak_depth());
  for (std::size_t h = 0; h < sys.host_count(); ++h) {
    os::Host& host = sys.host(h);
    const nic::NicCounters& n = host.nic().counters();
    tx_msgs += n.tx_msgs;
    tx_bytes += n.tx_bytes;
    doorbells += n.doorbells;
    sq_bursts += n.sq_bursts;
    sq_burst_wrs += n.sq_burst_wrs;
    fused += n.sq_fused_batches;
    seg_msgs += n.seg_msgs;
    seg_chunks += n.seg_chunks;
    const os::Kernel& k = host.kernel();
    crossings += k.syscall_count();
    ops_serviced += k.ops_serviced_count();
    batch_flushes += k.batch_flushes();
    batch_flushed_ops += k.batch_flushed_ops();
    interrupts += k.interrupt_count();
    verdict_hits += k.verdict_cache().stats().hits;
    verdict_misses += k.verdict_cache().stats().misses;
    for (std::size_t c = 0; c < host.core_count(); ++c) {
      const os::Core& core = host.core(c);
      t_compute += core.time_compute();
      t_spin += core.time_spin();
      t_kernel += core.time_kernel();
    }
  }
}

Counters& Counters::operator+=(const Counters& o) {
  events += o.events;
  clamped += o.clamped;
  queue_peak = std::max(queue_peak, o.queue_peak);
  tx_msgs += o.tx_msgs;
  tx_bytes += o.tx_bytes;
  doorbells += o.doorbells;
  sq_bursts += o.sq_bursts;
  sq_burst_wrs += o.sq_burst_wrs;
  fused += o.fused;
  seg_msgs += o.seg_msgs;
  seg_chunks += o.seg_chunks;
  crossings += o.crossings;
  ops_serviced += o.ops_serviced;
  batch_flushes += o.batch_flushes;
  batch_flushed_ops += o.batch_flushed_ops;
  interrupts += o.interrupts;
  verdict_hits += o.verdict_hits;
  verdict_misses += o.verdict_misses;
  t_compute += o.t_compute;
  t_spin += o.t_spin;
  t_kernel += o.t_kernel;
  sock_segments += o.sock_segments;
  return *this;
}

void Tracing::collect(core::System& sys, std::size_t mode, bool observe) {
  const std::vector<trace::Record> recs = sys.merged_trace();
  records += recs.size();
  dropped += sys.trace_dropped();
  if (!observe || mode > kCord) return;
  const auto t0 = Clock::now();
  for (const trace::causal::Waterfall& w : trace::causal::build_waterfalls(recs)) {
    agg[mode].observe(w);
    for (std::size_t s = 0; s < trace::causal::kStageCount; ++s) {
      stage_ns[mode][s].add(sim::to_ns(w.stages[s].span));
    }
  }
  ingest_s += since(t0);
}

Counters Pass::total() const {
  Counters t;
  for (const Counters& c : ctr) t += c;
  return t;
}

Pass run_verbs_family(const Inputs& in, Ledger& ledger, Tracing* tr) {
  Pass pass;
  for (std::size_t mode : {kBypass, kCord}) pingpong(in, mode, ledger, pass, tr);
  stream(kBypass, 1, "bypass", ledger, pass, tr);
  stream(kCord, 1, "cord_b1", ledger, pass, tr);
  stream(kCord, 16, "cord_b16", ledger, pass, tr);
  if (tr == nullptr) {
    noisy(in, false, ledger, pass);
    noisy(in, true, ledger, pass);
  }
  return pass;
}

Pass run_npb_family(const NpbSpec& spec, Ledger& ledger, Tracing* tr) {
  Pass pass;
  for (const auto& [kernel, cls] : spec.kernels) {
    const std::string kname(npb::to_string(kernel));
    std::array<mpi::World::Traffic, kModeCount> traffic{};
    for (std::size_t mode = 0; mode < kModeCount; ++mode) {
      const auto t0 = Clock::now();
      core::System sys(core::system_a(), 2);
      pass.build_s += since(t0);
      mpi::WorldConfig cfg;
      cfg.net = static_cast<mpi::NetMode>(mode);
      cfg.srq_slots = 512;  // as in the Fig. 6 bench
      mpi::World world(sys, spec.ranks, cfg);
      pass.setup_s += since(t0);
      if (tr != nullptr) sys.set_tracing(true);
      const std::string key = "npb." + kname + "." + mode_name(mode);
      const auto t1 = Clock::now();
      npb::Result r;
      std::string error;
      try {
        r = npb::run(world, {kernel, cls, /*verify=*/false, spec.iterations});
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double host = since(t1);
      pass.run_s += host;
      pass.host_s[std::string("npb.") + mode_name(mode)] += host;
      pass.host_s[key] += host;
      settle(ledger, 1, 1, error, key);
      settle(ledger, 1, sys.sharded().clamped_events() == 0, "", key + " engine clamp");
      traffic[mode] = {r.messages, r.bytes};
      pass.modelled[key + ".vms"] = sim::to_ms(r.elapsed);
      pass.modelled[key + ".msgs"] = static_cast<double>(r.messages);
      pass.modelled[key + ".bytes"] = static_cast<double>(r.bytes);
      Counters c;
      c.add(sys);
      if (mode == kIpoib) c.sock_segments = world.traffic().messages;
      pass.ctr[mode] += c;
      if (tr != nullptr) tr->collect(sys, mode, /*observe=*/true);
    }
    // CoRD changes the dataplane, never what the application sends.
    const bool same = traffic[kBypass].messages == traffic[kCord].messages &&
                      traffic[kBypass].bytes == traffic[kCord].bytes;
    settle(ledger, 1, same, "", "npb." + kname + " bypass/CoRD traffic");
  }
  return pass;
}

}  // namespace e2e
