// NPB kernel tests: verify mode (real arithmetic / integrity stamps) for
// every kernel at class S, across network modes, plus the qualitative
// communication-profile properties Fig. 6 depends on.
#include <gtest/gtest.h>

#include "npb/npb.hpp"

namespace cord::npb {
namespace {

using mpi::NetMode;

Result run_kernel(Kernel k, int ranks, NetMode net, bool verify = true,
                  Class cls = Class::kS, int iters = 0) {
  core::System sys(core::system_l(), 2);
  mpi::World world(sys, ranks, {.net = net});
  return run(world, RunConfig{k, cls, verify, iters});
}

// --- verification at class S, every kernel, RDMA ---------------------------

struct KernelCase {
  Kernel kernel;
  int ranks;
};

class NpbVerify : public ::testing::TestWithParam<KernelCase> {};

TEST_P(NpbVerify, ClassSVerifiesOverRdma) {
  const auto [kernel, ranks] = GetParam();
  Result res = run_kernel(kernel, ranks, NetMode::kBypass);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.elapsed, 0);
  if (kernel != Kernel::kEP) {
    EXPECT_GT(res.messages, 0u) << "every non-EP kernel communicates";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, NpbVerify,
    ::testing::Values(KernelCase{Kernel::kEP, 8}, KernelCase{Kernel::kIS, 8},
                      KernelCase{Kernel::kCG, 8}, KernelCase{Kernel::kMG, 8},
                      KernelCase{Kernel::kFT, 8}, KernelCase{Kernel::kLU, 8},
                      KernelCase{Kernel::kSP, 9}, KernelCase{Kernel::kBT, 9}),
    [](const auto& info) {
      return std::string(to_string(info.param.kernel));
    });

class NpbModes : public ::testing::TestWithParam<NetMode> {};

TEST_P(NpbModes, IsAndCgVerifyInEveryMode) {
  EXPECT_TRUE(run_kernel(Kernel::kIS, 4, GetParam()).verified);
  EXPECT_TRUE(run_kernel(Kernel::kCG, 4, GetParam()).verified);
}

INSTANTIATE_TEST_SUITE_P(Modes, NpbModes,
                         ::testing::Values(NetMode::kBypass, NetMode::kCord,
                                           NetMode::kIpoib),
                         [](const auto& info) {
                           switch (info.param) {
                             case NetMode::kBypass: return "rdma";
                             case NetMode::kCord: return "cord";
                             case NetMode::kIpoib: return "ipoib";
                           }
                           return "?";
                         });

// --- communication-profile properties ---------------------------------------

TEST(Profiles, EpBarelyCommunicates) {
  Result ep = run_kernel(Kernel::kEP, 8, NetMode::kBypass);
  Result is = run_kernel(Kernel::kIS, 8, NetMode::kBypass);
  EXPECT_LT(ep.bytes * 20, is.bytes) << "EP must move far less data than IS";
}

TEST(Profiles, LuSendsManySmallMessages) {
  Result lu = run_kernel(Kernel::kLU, 8, NetMode::kBypass, true, Class::kS, 10);
  Result cg = run_kernel(Kernel::kCG, 8, NetMode::kBypass, true, Class::kS, 10);
  const double lu_avg = static_cast<double>(lu.bytes) / lu.messages;
  const double cg_avg = static_cast<double>(cg.bytes) / cg.messages;
  EXPECT_LT(lu_avg, cg_avg) << "LU's average message is smaller than CG's";
}

TEST(Profiles, FtMovesTheMostDataPerMessage) {
  Result ft = run_kernel(Kernel::kFT, 8, NetMode::kBypass, true, Class::kS, 3);
  Result lu = run_kernel(Kernel::kLU, 8, NetMode::kBypass, true, Class::kS, 3);
  const double ft_avg = static_cast<double>(ft.bytes) / ft.messages;
  const double lu_avg = static_cast<double>(lu.bytes) / lu.messages;
  EXPECT_GT(ft_avg, 10 * lu_avg);
}

TEST(Profiles, SpBtRequireSquareRankCounts) {
  EXPECT_THROW(run_kernel(Kernel::kSP, 8, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kBT, 8, NetMode::kBypass), std::invalid_argument);
}

TEST(Profiles, CgFtLuRequirePow2) {
  EXPECT_THROW(run_kernel(Kernel::kCG, 6, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kFT, 6, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kLU, 6, NetMode::kBypass), std::invalid_argument);
}

// --- Fig. 6 shape at small scale -------------------------------------------

TEST(Fig6Small, CordCloseToRdmaIpoibSlowerOnIs) {
  // Class S at 8 ranks is tiny, but the ordering must already hold.
  const double rdma = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kBypass,
                                            false).elapsed);
  const double cord = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kCord,
                                            false).elapsed);
  const double ipoib = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kIpoib,
                                             false).elapsed);
  EXPECT_LT(cord / rdma, 1.5);
  EXPECT_GT(ipoib / rdma, 1.2);
  EXPECT_GT(ipoib, cord);
}

TEST(IpoibGolden, IsAndCgClassSExact) {
  // Golden values for the IPoIB baseline (hex floats and integer
  // picoseconds are exact). The socket stack's host data structures may
  // change freely; its modelled charges may not, so these must never move
  // unless the IPoIB cost model itself changes on purpose.
  const struct {
    Kernel kernel;
    sim::Time elapsed;
    double elapsed_ms;
    std::uint64_t messages;
    std::uint64_t bytes;
  } cases[] = {
      {Kernel::kIS, 2'144'219'810, 0x1.1275cb73b152ap+1, 1416, 2'332'504},
      {Kernel::kCG, 40'933'028'250, 0x1.4776d783dff3fp+5, 24384, 34'137'048},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.kernel));
    const Result r = run_kernel(c.kernel, 8, NetMode::kIpoib);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.elapsed, c.elapsed);
    EXPECT_EQ(sim::to_ms(r.elapsed), c.elapsed_ms);
    EXPECT_EQ(r.messages, c.messages);
    EXPECT_EQ(r.bytes, c.bytes);
  }
}

TEST(Fig6Small, EpInsensitiveToNetwork) {
  const double rdma =
      sim::to_ms(run_kernel(Kernel::kEP, 8, NetMode::kBypass, false).elapsed);
  const double ipoib =
      sim::to_ms(run_kernel(Kernel::kEP, 8, NetMode::kIpoib, false).elapsed);
  EXPECT_NEAR(ipoib / rdma, 1.0, 0.05) << "EP barely communicates";
}

TEST(Determinism, TracingLeavesElapsedTimeUnchanged) {
  // Arming the tracer must not change the modelled run: traced and
  // untraced runs take the same NIC drain path. IS at 4 ranks on System A
  // drives several QPs per NIC, where a differently ordered drain would
  // reserve shared NIC resources in a different order.
  const struct {
    NetMode net;
    sim::Time elapsed;
  } cases[] = {
      {NetMode::kBypass, 1'572'572'659},
      {NetMode::kCord, 1'725'441'787},
  };
  for (const auto& c : cases) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(std::string(c.net == NetMode::kCord ? "cord" : "bypass") +
                   (traced ? " traced" : " untraced"));
      core::System sys(core::system_a(), 2);
      mpi::World world(sys, 4, {.net = c.net});
      sys.set_tracing(traced);
      const Result r = run(world, RunConfig{Kernel::kIS, Class::kS,
                                            /*verify=*/false, 0});
      EXPECT_EQ(r.elapsed, c.elapsed);
      if (traced) {
        EXPECT_GT(sys.tracer().size(), 0u);
      }
    }
  }
}

// --- verbs progress goldens -------------------------------------------------
//
// Everything an MPI rank's progress loop charges, pinned exactly for the
// verbs transports: elapsed time and traffic, the per-kind core time and
// DVFS residency summed over ranks, every data-plane verb issued, and the
// kernel and NIC counters. An idle rank's polls are replayed as
// arithmetic rather than simulated one by one (mpi::VerbsEndpoint), so
// these catch a replay that charges a different amount, in a different
// order or on the wrong counter. The values were captured from the
// step-by-step progress loop.

struct ProgressPrint {
  sim::Time elapsed;
  std::uint64_t messages;
  std::uint64_t bytes;
  sim::Time spin;
  sim::Time compute;
  sim::Time kernel;
  double spin_load;
  std::uint64_t verbs_ops;
  std::int64_t syscalls;
  std::int64_t doorbells;
};

ProgressPrint progress_print(core::SystemConfig sys_cfg, Kernel k, int ranks,
                             NetMode net) {
  core::System sys(std::move(sys_cfg), 2);
  mpi::World world(sys, ranks, {.net = net});
  const Result r = run(world, RunConfig{k, Class::kS, /*verify=*/false, 0});
  ProgressPrint p{r.elapsed, r.messages, r.bytes, 0, 0, 0, 0.0, 0, 0, 0};
  for (int i = 0; i < world.size(); ++i) {
    os::Core& c = world.rank(i).core();
    p.spin += c.time_spin();
    p.compute += c.time_compute();
    p.kernel += c.time_kernel();
    p.spin_load += c.spin_load();
    auto& ep = dynamic_cast<mpi::VerbsEndpoint&>(world.rank(i).endpoint());
    p.verbs_ops += ep.context().dataplane_ops();
  }
  p.syscalls = sys.metrics().gauge_value("kernel.syscalls");
  p.doorbells = sys.metrics().gauge_value("nic.doorbells");
  return p;
}

void expect_print(const ProgressPrint& got, const ProgressPrint& want) {
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.spin, want.spin);
  EXPECT_EQ(got.compute, want.compute);
  EXPECT_EQ(got.kernel, want.kernel);
  EXPECT_EQ(got.spin_load, want.spin_load);
  EXPECT_EQ(got.verbs_ops, want.verbs_ops);
  EXPECT_EQ(got.syscalls, want.syscalls);
  EXPECT_EQ(got.doorbells, want.doorbells);
}

TEST(ProgressGolden, CgLuMgClassSOnSystemA) {
  const struct {
    Kernel kernel;
    NetMode net;
    ProgressPrint want;
  } cases[] = {
      {Kernel::kCG, NetMode::kBypass,
       {23286237404, 36384, 68562264, 109147039146, 113999672352, 1711060852,
        0x1.3267b188fb4ffp+2, 4271680, 288, 34862}},
      {Kernel::kCG, NetMode::kCord,
       {29171631844, 36384, 68562264, 145216198565, 110555691264, 34421214299,
        0x1.43e32196b255p+2, 5026162, 75248, 34696}},
      {Kernel::kLU, NetMode::kBypass,
       {8392885197, 13224, 2880984, 25631886260, 42219988648, 1647920994,
        0x1.d78cf12b01542p+1, 387836, 272, 12924}},
      {Kernel::kLU, NetMode::kCord,
       {9698252842, 13224, 2880984, 27845345790, 39678386170, 14991675162,
        0x1.c647bd058310cp+1, 408602, 34912, 13099}},
      {Kernel::kMG, NetMode::kBypass,
       {766606850, 1272, 1083864, 2709374742, 4230619906, 1647920994,
        0x1.7504745b52cdbp+1, 143972, 272, 1122}},
      {Kernel::kMG, NetMode::kCord,
       {986124293, 1272, 1083864, 3873535027, 3813664749, 5392086473,
        0x1.a926552278c1ep+1, 174182, 11008, 1238}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.kernel)) +
                 (c.net == NetMode::kCord ? " cord" : " bypass"));
    expect_print(progress_print(core::system_a(), c.kernel, 8, c.net), c.want);
  }
}

TEST(ProgressGolden, SamePicosecondArrivalTies) {
  // CQEs that land on the exact picosecond of the receiving rank's next
  // poll: the step-by-step loop polled 2 of them (CG, 4 ranks, System A,
  // bypass) and 37 of them (System L, CoRD) at the very instant they
  // arrived. Whether each poll saw its CQE depends on which of the two
  // events was queued first.
  expect_print(progress_print(core::system_a(), Kernel::kCG, 4, NetMode::kBypass),
               {32267052756, 12878, 25674088, 45338654893, 97012135906,
                623750911, 0x1.d0f78cbb83242p+0, 1706528, 80, 12092});
  expect_print(progress_print(core::system_l(), Kernel::kCG, 4, NetMode::kCord),
               {37562716125, 12878, 25674088, 34195500000, 121570514500,
                10153900000, 0x1.7005f1038ef64p+0, 1225286, 27682, 12285});
}

TEST(Determinism, NpbRunsReproduce) {
  const Result a = run_kernel(Kernel::kMG, 8, NetMode::kBypass);
  const Result b = run_kernel(Kernel::kMG, 8, NetMode::kBypass);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.bytes, b.bytes);
}

}  // namespace
}  // namespace cord::npb
