// Scenario families of the end-to-end benchmark. Each family drives the
// simulator only through its public entry points (core::System,
// verbs::Context, perftest::run_noisy_neighbor, mpi::World + npb::run,
// trace::causal) and times those calls from outside; nothing here adds
// tracing or tags inside the simulator.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "npb/npb.hpp"
#include "sim/stats.hpp"
#include "trace/causal/aggregate.hpp"

namespace e2e {

using namespace cord;

/// Dataplane modes compared by every family (IPoIB: MPI families only).
enum Mode : std::size_t { kBypass = 0, kCord = 1, kIpoib = 2, kModeCount = 3 };
const char* mode_name(std::size_t m);

/// Everything a workload draws from its seed. The simulator receives only
/// these generated values, never the seed itself.
struct Inputs {
  std::vector<std::uint32_t> ping_sizes;  ///< one payload size per ping-pong op
  sim::Time victim_gap = 0;               ///< noisy-neighbor victim ping gap
};
Inputs draw_inputs(std::uint64_t seed);

/// Operations attempted and failed across a run (fail_ratio's base).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the report
  void record(std::uint64_t attempted_ops, std::uint64_t failed_ops,
              const std::string& what);
};

/// Counters the layers expose, summed over the Systems of one mode.
struct Counters {
  std::uint64_t events = 0, clamped = 0;
  std::size_t queue_peak = 0;
  std::uint64_t tx_msgs = 0, tx_bytes = 0;
  std::uint64_t doorbells = 0, sq_bursts = 0, sq_burst_wrs = 0, fused = 0;
  std::uint64_t seg_msgs = 0, seg_chunks = 0;
  std::uint64_t crossings = 0, ops_serviced = 0;
  std::uint64_t batch_flushes = 0, batch_flushed_ops = 0, interrupts = 0;
  std::uint64_t verdict_hits = 0, verdict_misses = 0;
  sim::Time t_compute = 0, t_spin = 0, t_kernel = 0;
  std::uint64_t sock_segments = 0;

  void add(core::System& sys);
  Counters& operator+=(const Counters& o);
};

/// State of the traced pass: one causal aggregator and per-stage samples
/// per verbs mode (bypass, CoRD), plus the trace volume and ingest cost.
struct Tracing {
  std::array<trace::causal::Aggregator, 2> agg;
  std::array<std::array<sim::Samples, trace::causal::kStageCount>, 2> stage_ns;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  double ingest_s = 0.0;

  /// Collect a traced System's records; fold its waterfalls into the
  /// aggregates when `observe` (the scenario is part of the stage view).
  void collect(core::System& sys, std::size_t mode, bool observe);
};

/// One pass over a family's fixed simulated work.
struct Pass {
  double setup_s = 0.0;  ///< System/World construction + QP connection
  double build_s = 0.0;  ///< System constructors alone (part of setup_s)
  double run_s = 0.0;    ///< the timed phase
  /// Host seconds of the timed phase per call family ("pingpong",
  /// "stream", "noisy", "npb.<mode>", "npb.<kernel>.<mode>").
  std::map<std::string, double> host_s;
  /// Modelled (virtual-time) outputs; deterministic for given inputs.
  std::map<std::string, double> modelled;
  std::array<Counters, kModeCount> ctr;

  Counters total() const;
};

/// verbs_mix: send ping-pong (bypass, CoRD), 64 B RC write stream (bypass,
/// CoRD tx_batch 1, CoRD tx_batch 16) and the noisy-neighbor run (bypass,
/// CoRD + policy chain), all on System L. `tr` is null for untraced
/// passes; the noisy-neighbor run has no trace hook and is skipped there.
Pass run_verbs_family(const Inputs& in, Ledger& ledger, Tracing* tr);

struct NpbSpec {
  std::vector<std::pair<npb::Kernel, npb::Class>> kernels;
  int ranks = 0;
  int iterations = 0;
};
/// Each kernel under bypass, CoRD and IPoIB on System A.
Pass run_npb_family(const NpbSpec& spec, Ledger& ledger, Tracing* tr);

}  // namespace e2e
