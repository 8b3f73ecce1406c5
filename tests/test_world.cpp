// MPI World mechanics: rank placement, traffic accounting, configuration
// knobs (eager threshold, kernel-routed polls), input validation, and
// error propagation.
#include <gtest/gtest.h>

#include "mpi/world.hpp"
#include "os/policies.hpp"

namespace cord::mpi {
namespace {

TEST(World, BlockDistributionAcrossHosts) {
  core::System sys(core::system_l(), 2);
  World world(sys, 10, {});
  for (int r = 0; r < 5; ++r) EXPECT_EQ(world.host_of(r), 0) << "rank " << r;
  for (int r = 5; r < 10; ++r) EXPECT_EQ(world.host_of(r), 1) << "rank " << r;
}

TEST(World, RejectsInvalidInputs) {
  core::System sys(core::system_l(), 2);
  EXPECT_THROW(World(sys, 0, {}), std::invalid_argument);
  EXPECT_THROW(World(sys, -2, {}), std::invalid_argument);
  EXPECT_THROW(World(sys, 4, {.send_slots = 0}), std::invalid_argument);
  EXPECT_THROW(World(sys, 4, {.srq_slots = 0}), std::invalid_argument);
  EXPECT_NO_THROW(World(sys, 1, {}));
}

TEST(World, TrafficCountersGrowWithCommunication) {
  core::System sys(core::system_l(), 2);
  World world(sys, 4, {});
  const World::Traffic before = world.traffic();
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<std::byte> buf(1024);
    const int peer = r.id() ^ 1;
    co_await r.sendrecv<std::byte>(peer, 1, buf, peer, 1, buf);
  });
  const World::Traffic after = world.traffic();
  EXPECT_GT(after.messages, before.messages);
  EXPECT_GE(after.bytes - before.bytes, 4u * 1024u)
      << "four ranks exchanged 1 KiB each";
}

TEST(World, RankExceptionPropagatesOutOfRun) {
  core::System sys(core::system_l(), 2);
  World world(sys, 4, {});
  EXPECT_THROW(
      (void)world.run([](Rank& r) -> sim::Task<> {
        co_await r.barrier();
        if (r.id() == 2) throw std::logic_error("rank 2 exploded");
      }),
      std::logic_error);
}

TEST(World, EagerThresholdKnobChangesProtocol) {
  // With a tiny eager threshold, a 1 KiB message must travel by
  // rendezvous: the NIC sees an extra control round trip (RTS + read +
  // FIN) compared to the one-shot eager send.
  auto messages_for = [](std::size_t threshold) {
    core::System sys(core::system_l(), 2);
    World world(sys, 2, {.eager_threshold = threshold});
    (void)world.run([](Rank& r) -> sim::Task<> {
      std::vector<std::byte> buf(1024);
      if (r.id() == 0) {
        co_await r.send<std::byte>(1, 1, buf);
      } else {
        (void)co_await r.recv<std::byte>(0, 1, buf);
      }
    });
    return world.traffic().messages;
  };
  EXPECT_GT(messages_for(128), messages_for(4096))
      << "rendezvous needs more wire messages than eager";
}

TEST(World, KernelRoutedPollsGenerateSyscallStorm) {
  auto syscalls_for = [](bool poll_via_kernel) {
    core::System sys(core::system_l(), 2);
    World world(sys, 2,
                {.net = NetMode::kCord, .cord_poll_via_kernel = poll_via_kernel});
    (void)world.run([](Rank& r) -> sim::Task<> {
      std::vector<std::byte> buf(256);
      const int peer = r.id() ^ 1;
      for (int i = 0; i < 10; ++i) {
        co_await r.sendrecv<std::byte>(peer, 1, buf, peer, 1, buf);
      }
    });
    return sys.host(0).kernel().syscall_count() +
           sys.host(1).kernel().syscall_count();
  };
  // The absolute counts are dominated by the SRQ prefill (1024 posted
  // receives per rank, each a CoRD syscall); the poll routing must add a
  // clear increment on top.
  EXPECT_GT(syscalls_for(true), syscalls_for(false) + 100)
      << "routing poll_cq through the kernel adds per-poll syscalls";
}

TEST(World, TenantIdReachesThePolicyLayer) {
  core::System sys(core::system_l(), 2);
  auto& stats = static_cast<os::StatsCollector&>(
      sys.host(0).kernel().policies().install(
          std::make_unique<os::StatsCollector>()));
  World world(sys, 2, {.net = NetMode::kCord, .tenant = 77});
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<std::byte> buf(64);
    if (r.id() == 0) {
      co_await r.send<std::byte>(1, 1, buf);
    } else {
      (void)co_await r.recv<std::byte>(0, 1, buf);
    }
  });
  EXPECT_GT(stats.tenant(77).post_sends, 0u)
      << "the whole MPI stack must run under the configured tenant";
}

TEST(World, SingleHostSystemAlsoWorks) {
  // All ranks on one host: everything rides the NIC loopback.
  core::System sys(core::system_l(), 1);
  World world(sys, 4, {});
  const sim::Time t = world.run([](Rank& r) -> sim::Task<> {
    std::vector<double> in{1.0};
    std::vector<double> out(1);
    co_await r.allreduce<double>(in, out, Op::kSum);
    if (out[0] != 4.0) throw std::runtime_error("loopback allreduce wrong");
  });
  EXPECT_GT(t, 0);
}

}  // namespace
}  // namespace cord::mpi
