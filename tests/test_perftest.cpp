// Integration tests for the perftest harness. These encode the paper's
// qualitative claims as assertions: what each "technique removal" costs
// (Fig. 1), which side of which operation pays for CoRD (Fig. 3), how
// throughput degrades (Fig. 4), and the system A peculiarities (Fig. 5).
#include <gtest/gtest.h>

#include "perftest/perftest.hpp"

namespace cord::perftest {
namespace {

using verbs::DataplaneMode;

Params quick(TestOp op, std::size_t size, Transport tr = Transport::kRC) {
  Params p;
  p.op = op;
  p.transport = tr;
  p.msg_size = size;
  p.iterations = 120;
  p.warmup = 20;
  return p;
}

Params quick_modes(TestOp op, std::size_t size, DataplaneMode client,
                   DataplaneMode server, const core::SystemConfig& cfg) {
  Params p = quick(op, size);
  p.client = verbs::ContextOptions{.mode = client,
                                   .cord_inline_support = cfg.cord_inline_support};
  p.server = verbs::ContextOptions{.mode = server,
                                   .cord_inline_support = cfg.cord_inline_support};
  return p;
}

TEST(Baseline, SmallSendLatencyRealistic) {
  auto r = run_latency(core::system_l(), quick(TestOp::kSend, 8));
  // CX-6 class one-way small-message latency: ~1–2.5 us.
  EXPECT_GT(r.avg_us, 0.8);
  EXPECT_LT(r.avg_us, 2.5);
}

TEST(Baseline, ReadLatencyAboveSendLatency) {
  auto send = run_latency(core::system_l(), quick(TestOp::kSend, 64));
  auto read = run_latency(core::system_l(), quick(TestOp::kRead, 64));
  // A read is a full round trip; send_lat reports RTT/2.
  EXPECT_GT(read.avg_us, send.avg_us);
}

TEST(Baseline, LargeMessageBandwidthNearsWireRate) {
  Params p = quick(TestOp::kSend, 1 << 20);
  p.iterations = 60;
  auto r = run_bandwidth(core::system_l(), p);
  EXPECT_GT(r.gbps, 80.0) << "1 MiB sends should approach 100 Gbit/s";
  EXPECT_LT(r.gbps, 100.0) << "nothing may beat the wire";
}

TEST(Baseline, SmallMessagesAreCpuBound) {
  Params p = quick(TestOp::kSend, 16);
  p.iterations = 2000;
  auto r = run_bandwidth(core::system_l(), p);
  // Paper: "the baseline variant achieves only 1.4 Gbit/s" for small
  // messages on a 100 Gbit/s wire — i.e. single-digit percent of line rate.
  EXPECT_LT(r.gbps, 8.0);
  EXPECT_GT(r.mmsg_per_sec, 0.5) << "but still millions of messages/s";
}

// --- Fig. 1: technique removal -------------------------------------------

TEST(Fig1, RemovingZeroCopyCostsProportionalToSize) {
  Params base = quick(TestOp::kSend, 1 << 20);
  base.iterations = 40;
  Params nocopy = base;
  nocopy.knobs.extra_copy = true;
  auto rb = run_latency(core::system_l(), base);
  auto rn = run_latency(core::system_l(), nocopy);
  // One extra copy on each one-way path: +140 us per MiB (paper's figure).
  const double delta = rn.avg_us - rb.avg_us;
  EXPECT_NEAR(delta, 140.0, 30.0);
}

TEST(Fig1, RemovingKernelBypassCostsSmallConstant) {
  auto delta_at = [](std::size_t size) {
    Params base = quick(TestOp::kSend, size);
    Params nobypass = base;
    nobypass.knobs.extra_syscall = true;
    auto rb = run_latency(core::system_l(), base);
    auto rn = run_latency(core::system_l(), nobypass);
    return rn.avg_us - rb.avg_us;
  };
  const double d_small = delta_at(64);
  const double d_large = delta_at(65536);
  EXPECT_GT(d_small, 0.05) << "a syscall is not free";
  EXPECT_LT(d_small, 1.0) << "but it is small";
  EXPECT_NEAR(d_small, d_large, 0.5) << "and constant in message size";
}

TEST(Fig1, RemovingPollingCostsLargeConstant) {
  auto delta_at = [](std::size_t size) {
    Params base = quick(TestOp::kSend, size);
    base.iterations = 60;
    Params nopoll = base;
    nopoll.knobs.interrupt_wait = true;
    auto rb = run_latency(core::system_l(), base);
    auto rn = run_latency(core::system_l(), nopoll);
    return rn.avg_us - rb.avg_us;
  };
  const double d_small = delta_at(64);
  const double d_large = delta_at(1 << 20);
  EXPECT_GT(d_small, 3.0) << "interrupts add microseconds";
  EXPECT_LT(d_small, 25.0);
  EXPECT_NEAR(d_small, d_large, d_small * 0.5)
      << "absolute overhead stays the same even for very large messages";
}

TEST(Fig1, PollingMattersMoreThanKernelBypassForLatency) {
  Params base = quick(TestOp::kSend, 64);
  Params nobypass = base;
  nobypass.knobs.extra_syscall = true;
  Params nopoll = base;
  nopoll.knobs.interrupt_wait = true;
  auto rb = run_latency(core::system_l(), base);
  auto rnb = run_latency(core::system_l(), nobypass);
  auto rnp = run_latency(core::system_l(), nopoll);
  EXPECT_GT(rnp.avg_us - rb.avg_us, (rnb.avg_us - rb.avg_us) * 3)
      << "paper: polling is more important than kernel-bypass";
}

TEST(Fig1, EveryRemovalHurtsSmallMessageThroughput) {
  Params base = quick(TestOp::kSend, 64);
  base.iterations = 1500;
  auto rb = run_bandwidth(core::system_l(), base);
  for (int knob = 0; knob < 3; ++knob) {
    Params v = base;
    v.knobs.extra_copy = knob == 0;
    v.knobs.extra_syscall = knob == 1;
    v.knobs.interrupt_wait = knob == 2;
    auto rv = run_bandwidth(core::system_l(), v);
    EXPECT_LT(rv.gbps, rb.gbps * 0.9)
        << "removing technique #" << knob << " must hurt small-message bw";
  }
}

TEST(Fig1, OnlyZeroCopyMattersForLargeMessageThroughput) {
  Params base = quick(TestOp::kSend, 1 << 20);
  base.iterations = 50;
  auto rb = run_bandwidth(core::system_l(), base);
  Params nocopy = base;
  nocopy.knobs.extra_copy = true;
  auto rnc = run_bandwidth(core::system_l(), nocopy);
  EXPECT_LT(rnc.gbps, rb.gbps * 0.75)
      << "copies throttle large messages below the wire rate";
  Params nobypass = base;
  nobypass.knobs.extra_syscall = true;
  auto rnb = run_bandwidth(core::system_l(), nobypass);
  EXPECT_GT(rnb.gbps, rb.gbps * 0.97)
      << "a per-message syscall is invisible at 1 MiB";
}

// --- Fig. 3: who pays for CoRD -------------------------------------------

TEST(Fig3, ReadWithServerSideCordIsFree) {
  const auto cfg = core::system_l();
  auto bp = run_latency(cfg, quick_modes(TestOp::kRead, 4096,
                                         DataplaneMode::kBypass,
                                         DataplaneMode::kBypass, cfg));
  auto cd_server = run_latency(cfg, quick_modes(TestOp::kRead, 4096,
                                                DataplaneMode::kBypass,
                                                DataplaneMode::kCord, cfg));
  EXPECT_NEAR(cd_server.avg_us, bp.avg_us, 0.05)
      << "the server CPU does not participate in an RDMA read";
}

TEST(Fig3, ReadWithClientSideCordPays) {
  const auto cfg = core::system_l();
  auto bp = run_latency(cfg, quick_modes(TestOp::kRead, 4096,
                                         DataplaneMode::kBypass,
                                         DataplaneMode::kBypass, cfg));
  auto cd_client = run_latency(cfg, quick_modes(TestOp::kRead, 4096,
                                                DataplaneMode::kCord,
                                                DataplaneMode::kBypass, cfg));
  EXPECT_GT(cd_client.avg_us, bp.avg_us + 0.2);
}

TEST(Fig3, SendOverheadIsSymmetricAcrossSides) {
  const auto cfg = core::system_l();
  auto bp = run_latency(cfg, quick_modes(TestOp::kSend, 4096,
                                         DataplaneMode::kBypass,
                                         DataplaneMode::kBypass, cfg));
  auto cd_c = run_latency(cfg, quick_modes(TestOp::kSend, 4096,
                                           DataplaneMode::kCord,
                                           DataplaneMode::kBypass, cfg));
  auto cd_s = run_latency(cfg, quick_modes(TestOp::kSend, 4096,
                                           DataplaneMode::kBypass,
                                           DataplaneMode::kCord, cfg));
  auto cd_cs = run_latency(cfg, quick_modes(TestOp::kSend, 4096,
                                            DataplaneMode::kCord,
                                            DataplaneMode::kCord, cfg));
  const double oc = cd_c.avg_us - bp.avg_us;
  const double os_ = cd_s.avg_us - bp.avg_us;
  const double ocs = cd_cs.avg_us - bp.avg_us;
  EXPECT_NEAR(oc, os_, 0.5) << "each side contributes equally (paper §5)";
  EXPECT_NEAR(ocs, oc + os_, 0.6) << "both sides roughly sum";
}

TEST(Fig3, WriteWithServerCordPaysBecauseOfTheResponseWrite) {
  const auto cfg = core::system_l();
  auto bp = run_latency(cfg, quick_modes(TestOp::kWrite, 4096,
                                         DataplaneMode::kBypass,
                                         DataplaneMode::kBypass, cfg));
  auto cd_s = run_latency(cfg, quick_modes(TestOp::kWrite, 4096,
                                           DataplaneMode::kBypass,
                                           DataplaneMode::kCord, cfg));
  EXPECT_GT(cd_s.avg_us, bp.avg_us + 0.1)
      << "write_lat's server posts the response write through the kernel";
}

// --- Fig. 4: throughput degradation --------------------------------------

TEST(Fig4, LargeSendBandwidthAlmostUnaffected) {
  const auto cfg = core::system_l();
  Params bp = quick_modes(TestOp::kSend, 32768, DataplaneMode::kBypass,
                          DataplaneMode::kBypass, cfg);
  bp.iterations = 400;
  Params cd = quick_modes(TestOp::kSend, 32768, DataplaneMode::kCord,
                          DataplaneMode::kCord, cfg);
  cd.iterations = 400;
  auto rb = run_bandwidth(cfg, bp);
  auto rc = run_bandwidth(cfg, cd);
  // Paper checkpoint: ~370 k msgs/s at 32 KiB and only ~1 % degradation.
  EXPECT_NEAR(rb.mmsg_per_sec, 0.37, 0.08);
  EXPECT_GT(rc.gbps, rb.gbps * 0.95);
}

TEST(Fig4, SmallSendThroughputDegradesSubstantially) {
  const auto cfg = core::system_l();
  Params bp = quick_modes(TestOp::kSend, 64, DataplaneMode::kBypass,
                          DataplaneMode::kBypass, cfg);
  bp.iterations = 1500;
  Params cd = quick_modes(TestOp::kSend, 64, DataplaneMode::kCord,
                          DataplaneMode::kCord, cfg);
  cd.iterations = 1500;
  auto rb = run_bandwidth(cfg, bp);
  auto rc = run_bandwidth(cfg, cd);
  EXPECT_LT(rc.gbps, rb.gbps * 0.75)
      << "constant per-message cost throttles small-message rate";
}

// --- Fig. 5 / system A -----------------------------------------------------

TEST(Fig5, SystemABimodalOverhead) {
  const auto cfg = core::system_a();
  auto overhead_at = [&](std::size_t size) {
    auto bp = run_latency(cfg, quick_modes(TestOp::kSend, size,
                                           DataplaneMode::kBypass,
                                           DataplaneMode::kBypass, cfg));
    auto cd = run_latency(cfg, quick_modes(TestOp::kSend, size,
                                           DataplaneMode::kCord,
                                           DataplaneMode::kCord, cfg));
    return cd.avg_us - bp.avg_us;
  };
  const double small = overhead_at(256);    // <= 1 KiB: bypass uses inline
  const double large = overhead_at(8192);   // both sides DMA
  EXPECT_GT(small, large + 0.1)
      << "missing inline support inflates small-message overhead (Fig. 5a)";
}

TEST(Fig5, SystemAJitterExceedsSystemL) {
  // Jitter lives in the (virtualized) syscall path, so compare CoRD runs.
  auto spread = [](const core::SystemConfig& cfg) {
    auto r = run_latency(cfg, quick_modes(TestOp::kSend, 4096,
                                          DataplaneMode::kCord,
                                          DataplaneMode::kCord, cfg));
    return r.latency_us.stddev();
  };
  EXPECT_GT(spread(core::system_a()), spread(core::system_l()) + 0.01)
      << "virtualized syscalls are noisier";
}

// --- Transports ------------------------------------------------------------

TEST(Transports, UdValidation) {
  EXPECT_THROW(run_latency(core::system_l(), quick(TestOp::kWrite, 64, Transport::kUD)),
               std::invalid_argument);
  EXPECT_THROW(run_latency(core::system_l(), quick(TestOp::kSend, 8192, Transport::kUD)),
               std::invalid_argument);
  // Degenerate run shapes fail loudly instead of aborting, hanging or
  // running silently clamped.
  Params no_iters = quick(TestOp::kSend, 64);
  no_iters.iterations = 0;
  EXPECT_THROW(run_bandwidth(core::system_l(), no_iters), std::invalid_argument);
  EXPECT_THROW(run_latency(core::system_l(), no_iters), std::invalid_argument);
  Params neg_warmup = quick(TestOp::kSend, 64);
  neg_warmup.warmup = -1;
  EXPECT_THROW(run_latency(core::system_l(), neg_warmup), std::invalid_argument);
  Params no_depth = quick(TestOp::kSend, 64);
  no_depth.tx_depth = 0;
  EXPECT_THROW(run_bandwidth(core::system_l(), no_depth), std::invalid_argument);
  Params no_batch = quick(TestOp::kSend, 64);
  no_batch.tx_batch = 0;
  EXPECT_THROW(run_bandwidth(core::system_l(), no_batch), std::invalid_argument);
  core::System sys(core::system_l(), 2);
  EXPECT_THROW(verbs::Context(sys.host(0), 0, {.tx_batch = 0}),
               std::invalid_argument);
}

TEST(Transports, UdLatencyComparableToRc) {
  auto rc = run_latency(core::system_l(), quick(TestOp::kSend, 256, Transport::kRC));
  auto ud = run_latency(core::system_l(), quick(TestOp::kSend, 256, Transport::kUD));
  EXPECT_NEAR(ud.avg_us, rc.avg_us, 0.6);
}

TEST(Transports, UdBandwidthWorks) {
  Params p = quick(TestOp::kSend, 2048, Transport::kUD);
  p.iterations = 800;
  auto r = run_bandwidth(core::system_l(), p);
  EXPECT_GT(r.gbps, 5.0);
}

// --- Determinism -----------------------------------------------------------

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  Params p = quick(TestOp::kSend, 1024);
  auto a = run_latency(core::system_l(), p);
  auto b = run_latency(core::system_l(), p);
  EXPECT_DOUBLE_EQ(a.avg_us, b.avg_us);
  auto ba = run_bandwidth(core::system_l(), p);
  auto bb = run_bandwidth(core::system_l(), p);
  EXPECT_DOUBLE_EQ(ba.gbps, bb.gbps);
}

}  // namespace
}  // namespace cord::perftest
