// Rack-topology tests: the leaf-spine builder and its routed multi-hop
// paths, route determinism and error paths, the duplicate-connect
// regression, and golden perftest and NIC-level results on rack fabrics.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fabric/link.hpp"
#include "fabric/topology.hpp"
#include "nic/nic.hpp"
#include "perftest/perftest.hpp"

namespace cord {
namespace {

fabric::RackConfig two_by_two() { return fabric::RackConfig{}; }

void add_hosts(fabric::Network& net, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(static_cast<fabric::NodeId>(i),
                 sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  }
}

// --- Topology geometry and routing ------------------------------------

TEST(RackTopology, ConfigGeometry) {
  fabric::RackConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  EXPECT_EQ(cfg.host_count(), 12u);
  EXPECT_EQ(cfg.switch_count(), 4u);  // 3 ToRs + spine
  EXPECT_EQ(cfg.node_count(), 16u);
  EXPECT_EQ(cfg.rack_of(0), 0u);
  EXPECT_EQ(cfg.rack_of(11), 2u);
  EXPECT_EQ(cfg.tor_id(0), 12u);
  EXPECT_EQ(cfg.tor_id(2), 14u);
  EXPECT_EQ(cfg.spine_id(), 15u);

  fabric::RackConfig single;
  single.racks = 1;
  EXPECT_EQ(single.switch_count(), 1u);  // one rack needs no spine
}

TEST(RackTopology, BuilderRejectsDegenerateShapes) {
  sim::Engine e;
  fabric::Network net(e);
  fabric::RackConfig cfg;
  cfg.racks = 0;
  EXPECT_THROW(fabric::build_rack(net, cfg), std::invalid_argument);
  cfg.racks = 1;
  cfg.hosts_per_rack = 0;
  EXPECT_THROW(fabric::build_rack(net, cfg), std::invalid_argument);
}

TEST(RackTopology, RoutedPathsFollowLeafSpine) {
  sim::Engine e;
  fabric::Network net(e);
  const fabric::RackConfig cfg = two_by_two();  // 2 racks x 2 hosts
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);

  // Node ids: hosts 0..3, ToRs 4 (rack 0) and 5, spine 6.
  EXPECT_TRUE(net.is_switch(4));
  EXPECT_TRUE(net.is_switch(6));
  EXPECT_FALSE(net.is_switch(0));

  // Intra-rack: two hops through the ToR.
  EXPECT_EQ(net.route(0, 1), (std::vector<fabric::NodeId>{0, 4, 1}));
  const fabric::Path intra = net.path(0, 1);
  EXPECT_EQ(intra.hop_count, 2);
  // Host hop carries only the wire's propagation; the hop leaving the ToR
  // folds in the ToR's forwarding latency.
  EXPECT_EQ(intra.hops[0].propagation, cfg.host_propagation);
  EXPECT_EQ(intra.hops[1].propagation, cfg.host_propagation + cfg.tor_latency);
  EXPECT_EQ(intra.propagation(), sim::ns(150 + 150 + 300));

  // Cross-rack: four hops via the spine.
  EXPECT_EQ(net.route(0, 2), (std::vector<fabric::NodeId>{0, 4, 6, 5, 2}));
  const fabric::Path cross = net.path(0, 2);
  EXPECT_EQ(cross.hop_count, 4);
  EXPECT_EQ(cross.hops[0].propagation, cfg.host_propagation);
  EXPECT_EQ(cross.hops[1].propagation,
            cfg.uplink_propagation + cfg.tor_latency);
  EXPECT_EQ(cross.hops[2].propagation,
            cfg.uplink_propagation + cfg.spine_latency);
  EXPECT_EQ(cross.hops[3].propagation, cfg.host_propagation + cfg.tor_latency);
  EXPECT_EQ(cross.propagation(), sim::ns(150 + 650 + 800 + 450));
  // The src/dst split is topological (climbing hops vs descending hops):
  // the cross-rack route splits at the spine, which dates UD completions
  // and ctrl-lane handoffs.
  EXPECT_EQ(cross.src_hops, 2);
  EXPECT_EQ(cross.dst_hops(), 2);
  // Intra-rack: up to the ToR is source-side, down to the host dst-side.
  EXPECT_EQ(intra.src_hops, 1);
  EXPECT_EQ(intra.dst_hops(), 1);

  // Routes are directional and deterministic: the reverse path mirrors.
  EXPECT_EQ(net.route(2, 0), (std::vector<fabric::NodeId>{2, 5, 6, 4, 0}));
  // Loopback stays the 1-hop special case.
  EXPECT_EQ(net.route(3, 3), (std::vector<fabric::NodeId>{3}));
  EXPECT_EQ(net.path(3, 3).hop_count, 1);
}

TEST(RackTopology, SingleRackHasNoSpine) {
  sim::Engine e;
  fabric::Network net(e);
  fabric::RackConfig cfg;
  cfg.racks = 1;
  cfg.hosts_per_rack = 3;
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);
  EXPECT_EQ(net.route(0, 2), (std::vector<fabric::NodeId>{0, 3, 2}));
  EXPECT_FALSE(net.is_switch(cfg.spine_id()));  // never added
  EXPECT_TRUE(net.has_path(1, 2));
}

TEST(RackTopology, PathErrorPaths) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  // No wiring at all: unknown loopback and no-link both throw.
  EXPECT_THROW(net.path(7, 7), std::invalid_argument);
  EXPECT_THROW(net.path(0, 1), std::invalid_argument);
  EXPECT_FALSE(net.has_path(0, 1));
  // A switch wired to only one of the hosts: host 1 stays unreachable, and
  // the error distinguishes "no route" from "no link".
  net.add_switch(10, /*tier=*/1, sim::ns(300));
  net.connect(0, 10, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  EXPECT_FALSE(net.has_path(0, 1));
  EXPECT_THROW(net.path(0, 1), std::invalid_argument);
  EXPECT_THROW(net.route(0, 1), std::invalid_argument);
}

// --- Regression: duplicate connect ------------------------------------
//
// Pre-fix, Network::connect silently replaced the Link, destroying the
// Resources inside it while Paths handed to NICs still pointed at them.

TEST(RackTopology, DuplicateConnectThrows) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  EXPECT_THROW(
      net.connect(0, 1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The pair key is unordered: reconnecting in reverse is the same link.
  EXPECT_THROW(
      net.connect(1, 0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The original link (and any Path resource taken from it) is untouched.
  const fabric::Path p = net.path(0, 1);
  EXPECT_EQ(p.hops[0].propagation, sim::ns(150));
}

TEST(RackTopology, RewiringABuiltRackThrows) {
  sim::Engine e;
  fabric::Network net(e);
  const fabric::RackConfig cfg = two_by_two();
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);
  EXPECT_THROW(net.connect(0, cfg.tor_id(0), cfg.host_bandwidth,
                           cfg.host_propagation),
               std::invalid_argument);
  // A node can be a host or a switch, never both.
  EXPECT_THROW(net.add_switch(0, 1), std::invalid_argument);
}


TEST(RackTopology, SystemRejectsHostCountMismatch) {
  core::SystemConfig cfg = core::system_l();
  cfg.wiring = core::SystemConfig::Wiring::kRack;
  cfg.rack = two_by_two();
  EXPECT_THROW(core::System(cfg, 3), std::invalid_argument);
  EXPECT_NO_THROW(core::System(cfg, 4));
}

// --- Goldens: perftest on a rack fabric --------------------------------
//
// Client on host 0, server on host 7 — the far corner of a 4-rack x
// 2-host leaf-spine. Hex floats are exact; times are integer ps.

perftest::Params rack_params(perftest::TestOp op) {
  perftest::Params p;
  p.op = op;
  p.msg_size = 64;
  p.iterations = 30;
  p.warmup = 5;
  p.racks = 4;
  p.hosts_per_rack = 2;
  return p;
}

struct LatencyGolden {
  double avg, p50, p99;
};

void expect_latency(const perftest::LatencyResult& r, const LatencyGolden& g) {
  EXPECT_EQ(r.avg_us, g.avg);
  EXPECT_EQ(r.p50_us, g.p50);
  EXPECT_EQ(r.p99_us, g.p99);
  EXPECT_EQ(r.clamped_events, 0u);
}

TEST(RackGolden, SendLatency) {
  expect_latency(
      perftest::run_latency(core::system_l(),
                            rack_params(perftest::TestOp::kSend)),
      {0x1.93d70a3d70a3dp+1, 0x1.93d70a3d70a3dp+1, 0x1.93d70a3d70a3ep+1});
}

TEST(RackGolden, WriteAndReadLatency) {
  const struct {
    perftest::TestOp op;
    LatencyGolden golden;
  } cases[] = {
      {perftest::TestOp::kWrite,
       {0x1.7947ae147ae14p+1, 0x1.7947ae147ae14p+1, 0x1.7947ae147ae14p+1}},
      {perftest::TestOp::kRead,
       {0x1.5851eb851eb85p+2, 0x1.5851eb851eb85p+2, 0x1.5851eb851eb85p+2}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("op=" + std::to_string(static_cast<int>(c.op)));
    expect_latency(perftest::run_latency(core::system_l(), rack_params(c.op)),
                   c.golden);
  }
}

TEST(RackGolden, Bandwidth) {
  perftest::Params p = rack_params(perftest::TestOp::kSend);
  p.msg_size = 8192;
  p.iterations = 100;
  const auto r = perftest::run_bandwidth(core::system_l(), p);
  EXPECT_EQ(r.gbps, 0x1.67980e0bf08c8p+6);
  EXPECT_EQ(r.elapsed, 72'900'000);
  EXPECT_EQ(r.messages, 100u);
}

TEST(RackGolden, MtuBoundarySizes) {
  // MTU segmentation edge cases (1 byte, exactly k*MTU, k*MTU + 1) across
  // the routed rack fabric. The NIC default MTU is 4096.
  const struct {
    std::size_t msg_size;
    LatencyGolden golden;
  } cases[] = {
      {1, {0x1.90a3d70a3d70ap+1, 0x1.90a3d70a3d70ap+1, 0x1.90a3d70a3d70ap+1}},
      {4096,
       {0x1.2f0a3d70a3d71p+2, 0x1.2f0a3d70a3d71p+2, 0x1.2f0a3d70a3d72p+2}},
      {3 * 4096,
       {0x1.58a3d70a3d70ap+2, 0x1.58a3d70a3d70ap+2, 0x1.58a3d70a3d70ap+2}},
      {3 * 4096 + 1,
       {0x1.58a3d70a3d70ap+2, 0x1.58a3d70a3d70ap+2, 0x1.58a3d70a3d70ap+2}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("msg_size=" + std::to_string(c.msg_size));
    perftest::Params p = rack_params(perftest::TestOp::kSend);
    p.msg_size = c.msg_size;
    p.iterations = 10;
    p.warmup = 2;
    expect_latency(perftest::run_latency(core::system_l(), p), c.golden);
  }
}

TEST(RackGolden, UdSend) {
  // UD completes a send at the end of the path's source-side segment (the
  // topological split at the spine), not at full 4-hop delivery. Traced,
  // so the UD trace path is exercised too.
  perftest::Params p = rack_params(perftest::TestOp::kSend);
  p.transport = perftest::Transport::kUD;
  p.msg_size = 512;
  p.iterations = 10;
  p.warmup = 2;
  p.capture_trace = true;
  const auto r = perftest::run_latency(core::system_l(), p);
  EXPECT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace_dropped, 0u);
  expect_latency(r, {0x1.c7ae147ae147bp+1, 0x1.c7ae147ae147bp+1,
                     0x1.c7ae147ae147bp+1});
}

// --- Goldens: NIC-level rack runs ---------------------------------------
//
// core::System shares one NicConfig across hosts and its workloads never
// converge on a downlink, so these regressions drive NICs directly over a
// hand-built rack with per-host NicConfigs.

struct RackNicFixture {
  fabric::RackConfig rack;
  sim::Engine engine;
  fabric::Network net{engine};
  nic::NicRegistry registry;
  std::vector<std::unique_ptr<nic::Nic>> nics;

  RackNicFixture(const fabric::RackConfig& r,
                 const std::vector<nic::NicConfig>& cfgs)
      : rack(r) {
    for (std::size_t i = 0; i < rack.host_count(); ++i) {
      net.add_node(static_cast<fabric::NodeId>(i),
                   sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    }
    fabric::build_rack(net, rack);
    for (std::size_t i = 0; i < rack.host_count(); ++i) {
      nics.push_back(std::make_unique<nic::Nic>(
          engine, net, registry, static_cast<fabric::NodeId>(i),
          cfgs.at(i % cfgs.size())));
    }
  }

  struct RcPair {
    nic::QueuePair* qp_a;
    nic::QueuePair* qp_b;
    nic::CompletionQueue* scq_a;
    nic::CompletionQueue* rcq_a;
    nic::CompletionQueue* scq_b;
    nic::CompletionQueue* rcq_b;
    nic::ProtectionDomainId pd_a;
    nic::ProtectionDomainId pd_b;
  };

  RcPair connect_rc(std::size_t a, std::size_t b) {
    RcPair p{};
    nic::Nic& na = *nics.at(a);
    nic::Nic& nb = *nics.at(b);
    p.pd_a = na.alloc_pd();
    p.pd_b = nb.alloc_pd();
    p.scq_a = na.create_cq(1024);
    p.rcq_a = na.create_cq(1024);
    p.scq_b = nb.create_cq(1024);
    p.rcq_b = nb.create_cq(1024);
    p.qp_a = na.create_qp(
        nic::QpConfig{nic::QpType::kRC, p.pd_a, p.scq_a, p.rcq_a, 128, 512, 0});
    p.qp_b = nb.create_qp(
        nic::QpConfig{nic::QpType::kRC, p.pd_b, p.scq_b, p.rcq_b, 128, 512, 0});
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kInit), nic::kOk);
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kRtr,
                           {static_cast<fabric::NodeId>(b), p.qp_b->qpn()}),
              nic::kOk);
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kRts), nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kInit), nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kRtr,
                           {static_cast<fabric::NodeId>(a), p.qp_a->qpn()}),
              nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kRts), nic::kOk);
    return p;
  }
};

/// Drain one successful completion from a CQ.
nic::Cqe take_one(nic::CompletionQueue& cq) {
  std::array<nic::Cqe, 4> wc;
  EXPECT_EQ(cq.poll(wc), 1u) << "expected exactly one completion";
  EXPECT_EQ(wc[0].status, nic::WcStatus::kSuccess);
  return wc[0];
}

// Per-NIC header configs: every hop of the path serializes the *sender's*
// framing (payload + the sender's header_bytes), never the receiver's.
TEST(RackNic, HeterogeneousHeaderBytesGolden) {
  fabric::RackConfig r;
  r.racks = 2;
  r.hosts_per_rack = 1;
  nic::NicConfig sender_cfg;  // default 58-byte framing
  nic::NicConfig receiver_cfg;
  receiver_cfg.header_bytes = 190;
  RackNicFixture f(r, {sender_cfg, receiver_cfg});
  auto rc = f.connect_rc(0, 1);

  std::vector<std::byte> src(8192, std::byte{0x5a});
  std::vector<std::byte> dst(8192);
  const auto& smr = f.nics[0]->register_mr(rc.pd_a, src.data(), src.size(),
                                           nic::kAccessLocalWrite);
  const auto& dmr = f.nics[1]->register_mr(rc.pd_b, dst.data(), dst.size(),
                                           nic::kAccessLocalWrite);
  nic::RecvWr rwr;
  rwr.wr_id = 1;
  rwr.sge = {reinterpret_cast<std::uintptr_t>(dst.data()),
             static_cast<std::uint32_t>(dst.size()), dmr.lkey};
  EXPECT_EQ(f.nics[1]->post_recv(*rc.qp_b, rwr), nic::kOk);
  nic::SendWr swr;
  swr.wr_id = 2;
  swr.opcode = nic::Opcode::kSend;
  swr.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
             static_cast<std::uint32_t>(src.size()), smr.lkey};
  EXPECT_EQ(f.nics[0]->post_send(*rc.qp_a, swr), nic::kOk);

  EXPECT_EQ(f.engine.run(), 6'940'320);
  take_one(*rc.scq_a);
  take_one(*rc.rcq_b);
  EXPECT_EQ(dst, src);
}

// Converging traffic: host 1 streams a multi-chunk write to host 2
// (occupying the spine->ToR1 and ToR1->host2 downlinks) while host 0
// issues a read of host 2's memory. Ctrl packets (the read request; the
// write's ACK, which shares the spine->ToR0 downlink with the
// read-response data) reserve only the source-side hops and ride the
// priority lane over the rest, so they never queue behind the data stream.
TEST(RackNic, ConvergingDownlinkTrafficGolden) {
  fabric::RackConfig r;
  r.racks = 2;
  r.hosts_per_rack = 2;  // hosts 0, 1 | 2, 3
  RackNicFixture f(r, {nic::NicConfig{}});
  auto reader = f.connect_rc(0, 2);
  auto writer = f.connect_rc(1, 2);

  std::vector<std::byte> read_dst(2048);
  std::vector<std::byte> read_src(2048, std::byte{0x11});
  std::vector<std::byte> write_src(32768, std::byte{0x22});
  std::vector<std::byte> write_dst(32768);
  const auto& rd = f.nics[0]->register_mr(reader.pd_a, read_dst.data(),
                                          read_dst.size(),
                                          nic::kAccessLocalWrite);
  const auto& rs = f.nics[2]->register_mr(reader.pd_b, read_src.data(),
                                          read_src.size(),
                                          nic::kAccessRemoteRead);
  const auto& ws = f.nics[1]->register_mr(writer.pd_a, write_src.data(),
                                          write_src.size(),
                                          nic::kAccessLocalWrite);
  const auto& wd = f.nics[2]->register_mr(writer.pd_b, write_dst.data(),
                                          write_dst.size(),
                                          nic::kAccessRemoteWrite);

  nic::SendWr write;
  write.wr_id = 10;
  write.opcode = nic::Opcode::kRdmaWrite;
  write.sge = {reinterpret_cast<std::uintptr_t>(write_src.data()),
               static_cast<std::uint32_t>(write_src.size()), ws.lkey};
  write.remote_addr = reinterpret_cast<std::uintptr_t>(write_dst.data());
  write.rkey = wd.rkey;
  EXPECT_EQ(f.nics[1]->post_send(*writer.qp_a, write), nic::kOk);

  nic::SendWr read;
  read.wr_id = 11;
  read.opcode = nic::Opcode::kRdmaRead;
  read.sge = {reinterpret_cast<std::uintptr_t>(read_dst.data()),
              static_cast<std::uint32_t>(read_dst.size()), rd.lkey};
  read.remote_addr = reinterpret_cast<std::uintptr_t>(read_src.data());
  read.rkey = rs.rkey;
  EXPECT_EQ(f.nics[0]->post_send(*reader.qp_a, read), nic::kOk);

  EXPECT_EQ(f.engine.run(), 9'161'800);
  take_one(*writer.scq_a);
  take_one(*reader.scq_a);
  EXPECT_EQ(read_dst, read_src);
  EXPECT_EQ(write_dst, write_src);
}

}  // namespace
}  // namespace cord
