// Tests for the MPI runtime: point-to-point semantics (eager, rendezvous,
// unexpected messages, ordering), every collective, all three network
// modes (RDMA bypass / CoRD / IPoIB), and cross-mode behaviour claims.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "mpi/world.hpp"

namespace cord::mpi {
namespace {

/// Run `body` on a fresh 2-host system-L world of `n` ranks.
sim::Time run_world(int n, NetMode net, std::function<sim::Task<>(Rank&)> body,
                    WorldConfig cfg = {}) {
  core::System sys(core::system_l(), 2);
  cfg.net = net;
  World world(sys, n, cfg);
  return world.run(std::move(body));
}

const NetMode kAllModes[] = {NetMode::kBypass, NetMode::kCord, NetMode::kIpoib};

TEST(PointToPoint, EagerSmallMessage) {
  for (NetMode net : kAllModes) {
    run_world(2, net, [](Rank& r) -> sim::Task<> {
      if (r.id() == 0) {
        std::vector<int> data{1, 2, 3, 4};
        co_await r.send<int>(1, 7, data);
      } else {
        std::vector<int> out(4);
        const std::size_t n = co_await r.recv<int>(0, 7, out);
        if (n != 4 || out != std::vector<int>{1, 2, 3, 4}) {
          throw std::runtime_error("eager payload mismatch");
        }
      }
    });
  }
}

TEST(PointToPoint, RendezvousLargeMessage) {
  for (NetMode net : kAllModes) {
    run_world(2, net, [](Rank& r) -> sim::Task<> {
      constexpr std::size_t kN = 64 * 1024;  // 512 KiB of doubles
      if (r.id() == 0) {
        std::vector<double> data(kN);
        std::iota(data.begin(), data.end(), 0.5);
        co_await r.send<double>(1, 9, data);
      } else {
        std::vector<double> out(kN);
        (void)co_await r.recv<double>(0, 9, out);
        for (std::size_t i = 0; i < kN; ++i) {
          if (out[i] != static_cast<double>(i) + 0.5) {
            throw std::runtime_error("rendezvous payload mismatch");
          }
        }
      }
    });
  }
}

TEST(PointToPoint, UnexpectedMessagesBufferAndMatchLater) {
  run_world(2, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      std::vector<int> a{10}, b{20};
      co_await r.send<int>(1, 1, a);
      co_await r.send<int>(1, 2, b);
    } else {
      co_await r.core().engine().delay(sim::us(100));  // let both arrive
      // Receive out of tag order: tag 2 first.
      std::vector<int> x(1), y(1);
      (void)co_await r.recv<int>(0, 2, x);
      (void)co_await r.recv<int>(0, 1, y);
      if (x[0] != 20 || y[0] != 10) throw std::runtime_error("matching broken");
    }
  });
}

TEST(PointToPoint, SameTagMessagesArriveInOrder) {
  run_world(2, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    constexpr int kMsgs = 32;
    if (r.id() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<int> v{i};
        co_await r.send<int>(1, 5, v);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<int> v(1);
        (void)co_await r.recv<int>(0, 5, v);
        if (v[0] != i) throw std::runtime_error("ordering violated");
      }
    }
  });
}

TEST(PointToPoint, MixedEagerAndRendezvousInterleave) {
  // Eager (small) first, rendezvous (large) second; the receiver takes
  // them in the opposite order. (The reverse send order would be unsafe
  // MPI: a blocking large send may not complete until matched.)
  run_world(2, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    const std::size_t big = 128 * 1024;
    if (r.id() == 0) {
      std::vector<int> small{42};
      std::vector<std::byte> large(big, std::byte{0xCD});
      co_await r.send<int>(1, 2, small);
      co_await r.send<std::byte>(1, 1, large);
    } else {
      std::vector<std::byte> large(big);
      (void)co_await r.recv<std::byte>(0, 1, large);
      std::vector<int> small(1);
      (void)co_await r.recv<int>(0, 2, small);
      if (small[0] != 42 || large[big - 1] != std::byte{0xCD}) {
        throw std::runtime_error("mixed protocol mismatch");
      }
    }
  });
}

TEST(PointToPoint, TruncationThrows) {
  EXPECT_THROW(
      run_world(2, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
        if (r.id() == 0) {
          std::vector<int> data(8);
          co_await r.send<int>(1, 1, data);
        } else {
          std::vector<int> out(4);  // too small
          (void)co_await r.recv<int>(0, 1, out);
        }
      }),
      std::runtime_error);
}

// A rank that sends to itself into its own posted receive copies the
// payload once, in memory: its core is charged exactly one memcpy_time(n)
// of compute for the pair, in every mode.
TEST(PointToPoint, SelfSendIntoPostedReceiveChargesOneCopy) {
  for (NetMode net : kAllModes) {
    SCOPED_TRACE("net=" + std::to_string(static_cast<int>(net)));
    sim::Time one_copy = 0;
    sim::Time charged = 0;
    run_world(2, net, [&](Rank& r) -> sim::Task<> {
      if (r.id() != 0) co_return;
      constexpr std::size_t kN = 16 * 1024;
      std::vector<std::byte> in(kN, std::byte{0x3c});
      std::vector<std::byte> out(kN);
      os::Core& core = r.core();
      const sim::Time c0 = core.time_compute();
      co_await core.do_memcpy(kN);
      one_copy = core.time_compute() - c0;

      sim::Joinable rx(core.engine(),
                       [](Rank& r, std::span<std::byte> out) -> sim::Task<> {
                         (void)co_await r.recv<std::byte>(0, 5, out);
                       }(r, out));
      co_await core.engine().delay(sim::us(1));  // the receive is posted
      const sim::Time before = core.time_compute();
      co_await r.send<std::byte>(0, 5, in);
      co_await rx.join();
      charged = core.time_compute() - before;
      if (out != in) throw std::runtime_error("self-send payload mismatch");
    });
    EXPECT_GT(one_copy, 0);
    EXPECT_EQ(charged, one_copy);
  }
}

TEST(Collectives, BarrierCompletesForOddAndEvenSizes) {
  for (int n : {2, 3, 8, 13}) {
    run_world(n, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
      for (int i = 0; i < 3; ++i) co_await r.barrier();
    });
  }
}

TEST(Collectives, BcastDeliversFromEveryRoot) {
  run_world(6, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    for (int root = 0; root < r.size(); ++root) {
      std::vector<int> buf(5);
      if (r.id() == root) {
        std::iota(buf.begin(), buf.end(), root * 100);
      }
      co_await r.bcast<int>(buf, root);
      for (int i = 0; i < 5; ++i) {
        if (buf[i] != root * 100 + i) throw std::runtime_error("bcast mismatch");
      }
    }
  });
}

TEST(Collectives, ReduceSumAtRoot) {
  run_world(7, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    std::vector<double> in{static_cast<double>(r.id()), 1.0};
    std::vector<double> out(2, -1.0);
    co_await r.reduce<double>(in, out, Op::kSum, 3);
    if (r.id() == 3) {
      const double expect = 7.0 * 6.0 / 2.0;
      if (out[0] != expect || out[1] != 7.0) {
        throw std::runtime_error("reduce mismatch");
      }
    }
  });
}

TEST(Collectives, AllreduceSumMaxMinPow2AndNot) {
  for (int n : {4, 6}) {
    run_world(n, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
      const int n = r.size();
      std::vector<std::int64_t> in{r.id(), -r.id(), r.id() * r.id()};
      std::vector<std::int64_t> out(3);
      co_await r.allreduce<std::int64_t>(in, out, Op::kSum);
      if (out[0] != n * (n - 1) / 2) throw std::runtime_error("allreduce sum");
      co_await r.allreduce<std::int64_t>(in, out, Op::kMax);
      if (out[0] != n - 1 || out[1] != 0) throw std::runtime_error("allreduce max");
      co_await r.allreduce<std::int64_t>(in, out, Op::kMin);
      if (out[0] != 0 || out[1] != -(n - 1)) throw std::runtime_error("allreduce min");
    });
  }
}

TEST(Collectives, AllgatherRing) {
  run_world(5, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    std::vector<int> mine{r.id() * 10, r.id() * 10 + 1};
    std::vector<int> all(2 * r.size());
    co_await r.allgather<int>(mine, all);
    for (int i = 0; i < r.size(); ++i) {
      if (all[2 * i] != i * 10 || all[2 * i + 1] != i * 10 + 1) {
        throw std::runtime_error("allgather mismatch");
      }
    }
  });
}

TEST(Collectives, AlltoallPairwise) {
  run_world(6, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    const int n = r.size();
    std::vector<int> in(n), out(n);
    for (int i = 0; i < n; ++i) in[i] = r.id() * 100 + i;
    co_await r.alltoall<int>(in, out);
    for (int i = 0; i < n; ++i) {
      if (out[i] != i * 100 + r.id()) throw std::runtime_error("alltoall mismatch");
    }
  });
}

TEST(Collectives, AlltoallvVariableBlocks) {
  run_world(4, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
    const int n = r.size();
    // Rank r sends (r + i + 1) ints to rank i, value-tagged.
    std::vector<std::size_t> scounts(n), rcounts(n);
    for (int i = 0; i < n; ++i) {
      scounts[i] = static_cast<std::size_t>(r.id() + i + 1);
      rcounts[i] = static_cast<std::size_t>(i + r.id() + 1);
    }
    std::size_t stotal = 0, rtotal = 0;
    for (int i = 0; i < n; ++i) {
      stotal += scounts[i];
      rtotal += rcounts[i];
    }
    std::vector<int> in(stotal), out(rtotal, -1);
    std::size_t off = 0;
    for (int i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < scounts[i]; ++k) in[off++] = r.id() * 1000 + i;
    }
    co_await r.alltoallv<int>(in, scounts, out, rcounts);
    off = 0;
    for (int i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < rcounts[i]; ++k) {
        if (out[off++] != i * 1000 + r.id()) {
          throw std::runtime_error("alltoallv mismatch");
        }
      }
    }
  });
}

TEST(Collectives, WorkInEveryNetMode) {
  for (NetMode net : kAllModes) {
    run_world(4, net, [](Rank& r) -> sim::Task<> {
      std::vector<double> in{1.0};
      std::vector<double> out(1);
      co_await r.allreduce<double>(in, out, Op::kSum);
      if (out[0] != 4.0) throw std::runtime_error("allreduce in mode failed");
      co_await r.barrier();
    });
  }
}

TEST(Modes, CordRoutesDataplaneThroughKernel) {
  core::System sys(core::system_l(), 2);
  World world(sys, 4, {.net = NetMode::kCord});
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<int> v{1};
    std::vector<int> o(1);
    co_await r.allreduce<int>(v, o, Op::kSum);
  });
  EXPECT_GT(sys.host(0).kernel().syscall_count(), 100u)
      << "CoRD MPI must generate data-plane syscalls";
}

TEST(Modes, LatencyOrderIsRdmaThenCordThenIpoib) {
  auto pingpong_time = [](NetMode net) {
    return run_world(2, net, [](Rank& r) -> sim::Task<> {
      std::vector<std::byte> buf(256);
      for (int i = 0; i < 50; ++i) {
        if (r.id() == 0) {
          co_await r.send<std::byte>(1, 1, buf);
          (void)co_await r.recv<std::byte>(1, 2, buf);
        } else {
          (void)co_await r.recv<std::byte>(0, 1, buf);
          co_await r.send<std::byte>(0, 2, buf);
        }
      }
    });
  };
  const sim::Time rdma = pingpong_time(NetMode::kBypass);
  const sim::Time cord = pingpong_time(NetMode::kCord);
  const sim::Time ipoib = pingpong_time(NetMode::kIpoib);
  EXPECT_LT(rdma, cord);
  EXPECT_LT(cord, ipoib);
  EXPECT_GT(ipoib, cord * 2) << "IPoIB small messages are much slower";
}

TEST(Modes, CordOverheadSmallRelativeToRdma) {
  auto exchange_time = [](NetMode net) {
    return run_world(8, net, [](Rank& r) -> sim::Task<> {
      // A CG-like pattern: medium messages + allreduce, several rounds.
      std::vector<double> buf(4096);
      std::vector<double> sum_in{1.0}, sum_out(1);
      for (int it = 0; it < 10; ++it) {
        const int partner = r.id() ^ 1;
        co_await r.sendrecv<double>(partner, 3, buf, partner, 3, buf);
        co_await r.allreduce<double>(sum_in, sum_out, Op::kSum);
        co_await r.compute(sim::us(200));
      }
    });
  };
  const double rdma = sim::to_us(exchange_time(NetMode::kBypass));
  const double cord = sim::to_us(exchange_time(NetMode::kCord));
  EXPECT_LT(cord / rdma, 1.15) << "CoRD must stay within ~15% on app patterns";
}

TEST(Determinism, SameWorldSameTime) {
  auto once = [] {
    return run_world(4, NetMode::kBypass, [](Rank& r) -> sim::Task<> {
      std::vector<int> in(16, r.id()), out(16);
      co_await r.allreduce<int>(in, out, Op::kSum);
    });
  };
  EXPECT_EQ(once(), once());
}

// --- deadlock guard ----------------------------------------------------------

struct TimeoutPrint {
  sim::Time thrown_at;
  sim::Time spin;
  std::uint64_t verbs_ops;
  std::string what;
};

/// Rank 0 posts a receive nobody ever sends; rank 1 returns at once.
TimeoutPrint unmatched_recv(NetMode net) {
  core::System sys(core::system_a(), 2);
  World world(sys, 2, {.net = net});
  TimeoutPrint p{};
  try {
    (void)world.run([](Rank& r) -> sim::Task<> {
      if (r.id() != 0) co_return;
      std::vector<int> out(4);
      (void)co_await r.recv<int>(1, 99, out);
    });
  } catch (const std::runtime_error& e) {
    p.what = e.what();
  }
  p.thrown_at = sys.engine().now();
  p.spin = world.rank(0).core().time_spin();
  p.verbs_ops =
      dynamic_cast<VerbsEndpoint&>(world.rank(0).endpoint()).context().dataplane_ops();
  return p;
}

TEST(Deadlock, UnmatchedRecvTimesOutAtTheLoopsStep) {
  // The deadline guard turns a hung wait into an exception 5 s of virtual
  // time after the wait began, at the first deadline check past it. The
  // instant, the spin charged until then and the polls issued were
  // captured from the step-by-step progress loop.
  const struct {
    NetMode net;
    sim::Time thrown_at;
    sim::Time spin;
    std::uint64_t verbs_ops;
  } cases[] = {
      {NetMode::kBypass, 5000399705868, 5000012927843, 500740},
      {NetMode::kCord, 5000977090687, 5000013995753, 500718},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.net == NetMode::kCord ? "cord" : "bypass");
    const TimeoutPrint p = unmatched_recv(c.net);
    EXPECT_EQ(p.what, "MPI progress timed out: recv (posted)");
    EXPECT_EQ(p.thrown_at, c.thrown_at);
    EXPECT_EQ(p.spin, c.spin);
    EXPECT_EQ(p.verbs_ops, c.verbs_ops);
  }
}
// --- two waits on one endpoint -------------------------------------------

/// Each of `n` ranks exchanges with both ring neighbours through sendrecv:
/// a rendezvous send (waiting for its FIN) and a receive wait on the same
/// endpoint at once, on ranks that run in lockstep, so one wait often
/// ends in its own poll step while the other is parked.
sim::Time ring_sendrecv(NetMode net, int n, std::size_t bytes, int rounds) {
  core::System sys(core::system_a(), 2);
  World world(sys, n, {.net = net});
  return world.run([=](Rank& r) -> sim::Task<> {
    std::vector<std::byte> out(bytes, std::byte{1});
    std::vector<std::byte> in(bytes);
    const int right = (r.id() + 1) % r.size();
    const int left = (r.id() + r.size() - 1) % r.size();
    for (int i = 0; i < rounds; ++i) {
      co_await r.sendrecv<std::byte>(right, i, out, left, i, in);
      co_await r.compute(sim::us(3));
    }
  });
}

TEST(TwoWaits, RingSendrecvKeepsTheSteppingLoopsTimes) {
  // Elapsed time captured from the step-by-step progress loop.
  EXPECT_EQ(ring_sendrecv(NetMode::kBypass, 4, 65536, 6), 111642688);
  EXPECT_EQ(ring_sendrecv(NetMode::kCord, 4, 65536, 6), 124804713);
  EXPECT_EQ(ring_sendrecv(NetMode::kBypass, 8, 256, 20), 114194213);
}
}  // namespace
}  // namespace cord::mpi
