// Fabric tests: the one-hop paths of fabric::Network (links, loopbacks,
// duplicate-connect and missing-path errors), the sender-side framing on
// the wire, core::System's full-mesh wiring, and its config validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fabric/link.hpp"
#include "nic/nic.hpp"

namespace cord {
namespace {

void add_hosts(fabric::Network& net, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(static_cast<fabric::NodeId>(i),
                 sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  }
}

TEST(Fabric, PathIsTheLinkOrTheLoopback) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(600));
  const fabric::Hop up = net.path(0, 1);
  const fabric::Hop down = net.path(1, 0);
  EXPECT_EQ(up.propagation, sim::ns(600));
  EXPECT_EQ(up.bandwidth.gbps(), 100.0);
  // Full duplex: each direction has its own serialization resource, and
  // every lookup hands out the same one.
  EXPECT_NE(up.tx, down.tx);
  EXPECT_EQ(net.path(0, 1).tx, up.tx);
  const fabric::Hop loop = net.path(1, 1);
  EXPECT_EQ(loop.propagation, sim::ns(150));
  EXPECT_EQ(loop.bandwidth.gbps(), 200.0);
  EXPECT_NE(loop.tx, up.tx);
  EXPECT_NE(loop.tx, down.tx);
  // A 1 KiB chunk ready at 0 serializes for 80 ns, then propagates.
  EXPECT_EQ(up.reserve(0, 1000), sim::ns(80 + 600));
  // The direction is busy until 80 ns now; the other one is not.
  EXPECT_EQ(up.reserve(0, 1000), sim::ns(160 + 600));
  EXPECT_EQ(down.reserve(0, 1000), sim::ns(80 + 600));
}

TEST(Fabric, PathErrors) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 3);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  // Unknown node (no loopback registered) and unlinked pairs both throw.
  EXPECT_THROW(net.path(7, 7), std::invalid_argument);
  EXPECT_THROW(net.path(0, 2), std::invalid_argument);
  EXPECT_THROW(net.path(2, 1), std::invalid_argument);
  EXPECT_THROW(net.path(0, 7), std::invalid_argument);
  EXPECT_NO_THROW(net.path(1, 0));
}

// Regression: Network::connect used to replace the Link silently,
// destroying the Resources inside it while Hops handed to NICs still
// pointed at them.
TEST(Fabric, DuplicateConnectThrows) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  const fabric::Hop before = net.path(0, 1);
  EXPECT_THROW(
      net.connect(0, 1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The pair key is unordered: reconnecting in reverse is the same link.
  EXPECT_THROW(
      net.connect(1, 0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The original link (and any Hop resource taken from it) is untouched.
  const fabric::Hop after = net.path(0, 1);
  EXPECT_EQ(after.tx, before.tx);
  EXPECT_EQ(after.propagation, sim::ns(150));
}

/// Virtual time for node 0 to RDMA-write 8 KiB to node 1 over a direct
/// wire, with per-NIC configs.
sim::Time write_time(const nic::NicConfig& sender, const nic::NicConfig& receiver) {
  sim::Engine engine;
  fabric::Network net(engine);
  add_hosts(net, 2);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  nic::NicRegistry registry;
  nic::Nic n0(engine, net, registry, 0, sender);
  nic::Nic n1(engine, net, registry, 1, receiver);
  const nic::ProtectionDomainId pd0 = n0.alloc_pd();
  const nic::ProtectionDomainId pd1 = n1.alloc_pd();
  nic::CompletionQueue* cq0 = n0.create_cq(16);
  nic::CompletionQueue* cq1 = n1.create_cq(16);
  nic::QueuePair* qp0 =
      n0.create_qp(nic::QpConfig{nic::QpType::kRC, pd0, cq0, cq0, 16, 16, 0});
  nic::QueuePair* qp1 =
      n1.create_qp(nic::QpConfig{nic::QpType::kRC, pd1, cq1, cq1, 16, 16, 0});
  EXPECT_EQ(n0.modify_qp(*qp0, nic::QpState::kInit), nic::kOk);
  EXPECT_EQ(n0.modify_qp(*qp0, nic::QpState::kRtr, {1, qp1->qpn()}), nic::kOk);
  EXPECT_EQ(n0.modify_qp(*qp0, nic::QpState::kRts), nic::kOk);
  EXPECT_EQ(n1.modify_qp(*qp1, nic::QpState::kInit), nic::kOk);
  EXPECT_EQ(n1.modify_qp(*qp1, nic::QpState::kRtr, {0, qp0->qpn()}), nic::kOk);
  EXPECT_EQ(n1.modify_qp(*qp1, nic::QpState::kRts), nic::kOk);

  std::vector<std::byte> src(8192, std::byte{0x5a});
  std::vector<std::byte> dst(8192);
  const auto& smr =
      n0.register_mr(pd0, src.data(), src.size(), nic::kAccessLocalWrite);
  const auto& dmr =
      n1.register_mr(pd1, dst.data(), dst.size(), nic::kAccessRemoteWrite);
  nic::SendWr wr;
  wr.wr_id = 1;
  wr.opcode = nic::Opcode::kRdmaWrite;
  wr.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
            static_cast<std::uint32_t>(src.size()), smr.lkey};
  wr.remote_addr = reinterpret_cast<std::uintptr_t>(dst.data());
  wr.rkey = dmr.rkey;
  EXPECT_EQ(n0.post_send(*qp0, wr), nic::kOk);
  const sim::Time t = engine.run();
  EXPECT_EQ(dst, src);
  return t;
}

// The wire carries the payload plus the *sender's* per-packet header,
// whatever the receiver's config says.
TEST(Fabric, WireCarriesTheSendersHeader) {
  nic::NicConfig plain;  // default 58-byte framing
  nic::NicConfig fat;
  fat.header_bytes = 190;
  const sim::Time base = write_time(plain, plain);
  EXPECT_EQ(write_time(plain, fat), base);
  EXPECT_GT(write_time(fat, plain), base);
}

TEST(Fabric, SystemLinksEveryHostPair) {
  core::SystemConfig cfg = core::system_a();
  core::System sys(cfg, 4);
  fabric::Network& net = *sys.network_ptr();
  for (fabric::NodeId a = 0; a < 4; ++a) {
    for (fabric::NodeId b = 0; b < 4; ++b) {
      const fabric::Hop hop = net.path(a, b);
      EXPECT_EQ(hop.propagation,
                a == b ? cfg.loopback_delay : cfg.wire_propagation)
          << a << "->" << b;
    }
  }
  EXPECT_THROW(net.path(0, 4), std::invalid_argument);
}

/// The std::invalid_argument message System's constructor throws for
/// `cfg`, or "" if it does not throw.
std::string rejection(const core::SystemConfig& cfg) {
  try {
    core::System sys(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SystemConfig, RejectsZeroMtu) {
  core::SystemConfig cfg = core::system_l();
  cfg.nic.mtu = 0;
  EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
  EXPECT_NE(rejection(cfg).find("nic.mtu"), std::string::npos);
}

TEST(SystemConfig, RejectsZeroRates) {
  const sim::Bandwidth zero = sim::Bandwidth::gbit_per_sec(0.0);
  {
    core::SystemConfig cfg = core::system_l();
    cfg.wire_bandwidth = zero;
    EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
    EXPECT_NE(rejection(cfg).find("wire_bandwidth"), std::string::npos);
  }
  {
    core::SystemConfig cfg = core::system_l();
    cfg.loopback_bandwidth = zero;
    EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
    EXPECT_NE(rejection(cfg).find("loopback_bandwidth"), std::string::npos);
  }
  {
    core::SystemConfig cfg = core::system_a();
    cfg.nic.pcie_bandwidth = zero;
    EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
    EXPECT_NE(rejection(cfg).find("nic.pcie_bandwidth"), std::string::npos);
  }
  {
    core::SystemConfig cfg = core::system_a();
    cfg.cpu.memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(0.0);
    EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
    EXPECT_NE(rejection(cfg).find("cpu.memcpy_bandwidth"), std::string::npos);
  }
  {
    core::SystemConfig cfg = core::system_l();
    cfg.wire_bandwidth = sim::Bandwidth::gbit_per_sec(-100.0);
    EXPECT_THROW(core::System(cfg, 2), std::invalid_argument);
  }
}

TEST(SystemConfig, AcceptsThePresetsAndUnlimitedRates) {
  EXPECT_NO_THROW(core::System(core::system_l(), 2));
  EXPECT_NO_THROW(core::System(core::system_l_turbo(), 2));
  EXPECT_NO_THROW(core::System(core::system_a(), 2));
  // Unlimited (0 ps/byte) is a rate, not a defect: transfers take no time.
  core::SystemConfig cfg = core::system_l();
  cfg.loopback_bandwidth = sim::Bandwidth::unlimited();
  EXPECT_NO_THROW(core::System(cfg, 2));
}

}  // namespace
}  // namespace cord
