// End-to-end benchmark of the CoRD simulator: one workload per run, one
// process, one simulation engine per System (shards = 1).
//
//   e2ebench --workload verbs_mix|npb_msg|npb_bulk --seed N --seconds S --trace 0|1
//
// A run repeats untraced passes over the workload's fixed simulated work
// for S seconds of host time, runs the scenario families the workload does
// not time once (so every metric has a value on every workload), then one
// traced pass. Host metrics aggregate the untraced passes; modelled
// metrics are virtual-time results and must repeat exactly across passes
// and between the untraced and traced passes. The last stdout line is one
// JSON object: end-to-end metrics with --trace 0, per-layer with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "scenarios.hpp"

namespace {

using namespace e2e;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload verbs_mix|npb_msg|npb_bulk "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// A workload: the family its passes time, and the family it runs once so
/// that the other family's modelled metrics are reported too.
struct Workload {
  bool verbs_timed = false;
  NpbSpec npb;  ///< timed when !verbs_timed, else the once-run MPI family
};

// NPB scale: the largest rank count whose pass (3 modes x 2 kernels) fits
// several times into one run on a 4-core host; see README.md.
constexpr int kNpbRanks = 32;
constexpr int kNpbIterations = 2;

bool workload_for(const std::string& name, Workload& w) {
  using npb::Class;
  using npb::Kernel;
  if (name == "verbs_mix") {
    w.verbs_timed = true;
    w.npb = {{{Kernel::kCG, Class::kB}, {Kernel::kLU, Class::kB}}, 8, 1};
  } else if (name == "npb_msg") {
    w.npb = {{{Kernel::kCG, Class::kB}, {Kernel::kLU, Class::kB}},
             kNpbRanks, kNpbIterations};
  } else if (name == "npb_bulk") {
    w.npb = {{{Kernel::kIS, Class::kB}, {Kernel::kFT, Class::kA}},
             kNpbRanks, kNpbIterations};
  } else {
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every modelled key of `b` must equal the reference value bit for bit;
/// returns the first that does not.
std::string first_mismatch(const Pass& ref, const Pass& b) {
  for (const auto& [k, v] : b.modelled) {
    const auto it = ref.modelled.find(k);
    if (it == ref.modelled.end() || it->second != v) return k;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Workload w;
  if (!workload_for(args.workload, w)) usage(("unknown workload " + args.workload).c_str());
  const Inputs in = draw_inputs(args.seed);
  Ledger ledger;

  auto timed_family = [&](Tracing* tr) {
    return w.verbs_timed ? run_verbs_family(in, ledger, tr)
                         : run_npb_family(w.npb, ledger, tr);
  };

  // Untraced passes for --seconds of host time (at least one).
  std::vector<Pass> passes;
  const auto t_begin = Clock::now();
  do {
    passes.push_back(timed_family(nullptr));
  } while (std::chrono::duration<double>(Clock::now() - t_begin).count() < args.seconds);
  const Pass once = w.verbs_timed ? run_npb_family(w.npb, ledger, nullptr)
                                  : run_verbs_family(in, ledger, nullptr);
  Tracing tracing;
  const Pass traced = timed_family(&tracing);

  const Pass& ref = passes.front();
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const std::string k = first_mismatch(ref, passes[i]);
    ledger.record(1, !k.empty(), "pass " + std::to_string(i) + " modelled " + k);
  }
  // Tracing must not change what the model computes. It does at HEAD for
  // MPI over verbs (the tracer switches the NIC onto its per-WQE drain),
  // so the divergence is reported as its own metric rather than folded
  // into the measured runs' failures; see README.md.
  std::vector<std::string> divergent;
  double max_divergence = 0.0;
  for (const auto& [k, v] : traced.modelled) {
    const auto it = ref.modelled.find(k);
    const double base = it == ref.modelled.end() ? 0.0 : it->second;
    if (it != ref.modelled.end() && v == base) continue;
    divergent.push_back(k + " " + std::to_string(base) + " untraced vs " +
                        std::to_string(v) + " traced");
    max_divergence = std::max(max_divergence, base == 0.0 ? 1.0 : std::fabs(v / base - 1.0));
  }

  // Modelled results of both families, and host times per call family.
  std::map<std::string, double> m = once.modelled;
  for (const auto& [k, v] : ref.modelled) m[k] = v;
  // Set-up times are medians over passes. Timed-phase host times are means:
  // pass times on a shared VM are bimodal (whole seconds at a time run
  // ~1.6x slower), which makes a run's median jump between the modes,
  // while the mean moves only with the share of slow time.
  auto pass_median = [&](const std::function<double(const Pass&)>& f) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(f(p));
    return median(v);
  };
  auto pass_mean = [&](const std::function<double(const Pass&)>& f) {
    double sum = 0.0;
    for (const Pass& p : passes) sum += f(p);
    return sum / static_cast<double>(passes.size());
  };
  auto host_s = [&](const std::string& family) {
    if (ref.host_s.count(family)) {
      return pass_mean([&](const Pass& p) { return p.host_s.at(family); });
    }
    const auto it = once.host_s.find(family);
    return it == once.host_s.end() ? 0.0 : it->second;
  };
  const double run_s = pass_mean([](const Pass& p) { return p.run_s; });
  const double traced_base =
      pass_mean([](const Pass& p) { return p.run_s - (p.host_s.count("noisy") ? p.host_s.at("noisy") : 0.0); });

  double npb_bypass_ms = 0, log_cord = 0, log_ipoib = 0;
  std::array<double, kModeCount> npb_vms{}, mpi_msgs{}, mpi_bytes{};
  for (const auto& [kernel, cls] : w.npb.kernels) {
    const std::string k = "npb." + std::string(npb::to_string(kernel)) + ".";
    for (std::size_t mode = 0; mode < kModeCount; ++mode) {
      npb_vms[mode] += m[k + mode_name(mode) + ".vms"];
      mpi_msgs[mode] += m[k + mode_name(mode) + ".msgs"];
      mpi_bytes[mode] += m[k + mode_name(mode) + ".bytes"];
    }
    const double base = m[k + "bypass.vms"];
    npb_bypass_ms += base;
    log_cord += std::log(ratio(m[k + "cord.vms"], base));
    log_ipoib += std::log(ratio(m[k + "ipoib.vms"], base));
  }
  const double nk = static_cast<double>(w.npb.kernels.size());

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double fail_ratio =
      ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted));

  const std::vector<Metric> end_to_end = {
      {"setup_s", pass_median([](const Pass& p) { return p.setup_s; }), "s"},
      {"run_s", run_s, "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"ok_ratio", 1.0 - fail_ratio, "ratio"},
      {"bypass_lat_ns", m["pingpong.bypass.p50_ns"], "ns_sim"},
      {"cord_lat_overhead_ns", m["pingpong.cord.p50_ns"] - m["pingpong.bypass.p50_ns"], "ns_sim"},
      {"cord_rate_ratio", ratio(m["stream.cord_b1.mmsg_s"], m["stream.bypass.mmsg_s"]), "ratio"},
      {"cord_batch_rate_ratio", ratio(m["stream.cord_b16.mmsg_s"], m["stream.bypass.mmsg_s"]), "ratio"},
      {"victim_p99_us", m["noisy.cord.victim_p99_us"], "us_sim"},
      {"npb_bypass_ms", npb_bypass_ms, "ms_sim"},
      {"npb_cord_rel", std::exp(log_cord / nk), "ratio"},
      {"npb_ipoib_rel", std::exp(log_ipoib / nk), "ratio"},
  };

  const Counters c = ref.total();
  const Counters t = traced.total();
  const Counters& cord = ref.ctr[kCord];
  const double core_time = static_cast<double>(c.t_compute + c.t_spin + c.t_kernel);
  const double noisy_ops = m["noisy.cord.attacker_ops"] + m["noisy.cord.victim_pings"];
  std::vector<Metric> per_layer = {
      {"fail_ratio", fail_ratio, "ratio"},
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.events_per_msg", ratio(c.events, c.tx_msgs + c.sock_segments), "count"},
      {"sim.host_ns_per_event", ratio(run_s * 1e9, c.events), "ns"},
      {"sim.queue_peak_depth", static_cast<double>(c.queue_peak), "count"},
      {"core.system_build_ms", 1e3 * pass_median([](const Pass& p) { return p.build_s; }), "ms"},
      {"nic.doorbells_per_wr", ratio(c.doorbells, c.sq_burst_wrs), "ratio"},
      {"nic.wrs_per_burst", ratio(c.sq_burst_wrs, c.sq_bursts), "ratio"},
      {"nic.fused_share", ratio(c.fused, c.sq_bursts), "ratio"},
      {"nic.fused_share_traced", ratio(t.fused, t.sq_bursts), "ratio"},
      {"nic.chunks_per_msg", ratio(c.seg_chunks, c.seg_msgs), "ratio"},
      {"nic.tx_gb", static_cast<double>(c.tx_bytes) / 1e9, "GB"},
      {"nic.icm_miss_ratio", ratio(m["noisy.cord.icm_qp_misses"], noisy_ops), "ratio"},
      {"os.crossings_per_op", ratio(cord.crossings, cord.ops_serviced), "ratio"},
      {"os.verdict_hit_ratio", ratio(c.verdict_hits, c.verdict_hits + c.verdict_misses), "ratio"},
      {"os.denied_ratio", ratio(m["noisy.cord.attacker_denied"],
                                m["noisy.cord.attacker_denied"] + m["noisy.cord.attacker_ops"]), "ratio"},
      {"os.kernel_share", ratio(static_cast<double>(c.t_kernel), core_time), "ratio"},
      {"os.spin_share", ratio(static_cast<double>(c.t_spin), core_time), "ratio"},
      {"os.compute_share", ratio(static_cast<double>(c.t_compute), core_time), "ratio"},
      {"os.interrupts", static_cast<double>(c.interrupts), "count"},
      {"verbs.ops_per_flush", ratio(c.batch_flushed_ops, c.batch_flushes), "ratio"},
      {"sock.segments_per_msg", ratio(ref.ctr[kIpoib].sock_segments, mpi_msgs[kBypass]), "ratio"},
      {"verbs.pingpong.host_ms", 1e3 * host_s("pingpong"), "ms"},
      {"verbs.stream.host_ms", 1e3 * host_s("stream"), "ms"},
      {"perftest.noisy.host_ms", 1e3 * host_s("noisy"), "ms"},
      {"perftest.victim_p99_bypass_us", m["noisy.bypass.victim_p99_us"], "us_sim"},
  };
  for (std::size_t mode = 0; mode < kModeCount; ++mode) {
    const std::string mn = mode_name(mode);
    per_layer.push_back({"mpi.msgs." + mn, mpi_msgs[mode], "count"});
    per_layer.push_back({"mpi.bytes_per_msg." + mn, ratio(mpi_bytes[mode], mpi_msgs[mode]), "B"});
    per_layer.push_back({"mpi.host_s." + mn, host_s("npb." + mn), "s"});
    per_layer.push_back({"npb.vms." + mn, npb_vms[mode], "ms_sim"});
  }
  for (std::size_t mode = 0; mode < 2; ++mode) {
    for (std::size_t s = 0; s < trace::causal::kStageCount; ++s) {
      std::string stage(trace::causal::stage_name(static_cast<trace::causal::Stage>(s)));
      std::replace(stage.begin(), stage.end(), '-', '_');
      const sim::Samples& ns = tracing.stage_ns[mode][s];
      per_layer.push_back({"trace.stage_ns." + stage + "." + mode_name(mode),
                           ns.count() ? ns.percentile(50) : 0.0, "ns_sim"});
    }
  }
  per_layer.push_back({"trace.overhead", ratio(traced.run_s, traced_base), "ratio"});
  per_layer.push_back({"trace.records", static_cast<double>(tracing.records), "count"});
  per_layer.push_back({"trace.dropped", static_cast<double>(tracing.dropped), "count"});
  per_layer.push_back({"trace.ingest_ms", 1e3 * tracing.ingest_s, "ms"});
  per_layer.push_back({"trace.divergent_outputs", static_cast<double>(divergent.size()), "count"});
  per_layer.push_back({"trace.max_divergence", max_divergence, "ratio"});

  const std::vector<Metric>* all_metrics[] = {&end_to_end, &per_layer};
  for (const std::vector<Metric>* set : all_metrics) {
    for (const Metric& x : *set) {
      ledger.record(1, !std::isfinite(x.value), x.name + " is not a finite number");
    }
  }

  // Human-readable report: every metric, then the per-kernel detail.
  std::printf("workload %s seed %llu: %zu untraced passes, %.3f s host\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(),
              std::chrono::duration<double>(Clock::now() - t_begin).count());
  std::printf("  pass run_s:");
  for (const Pass& p : passes) std::printf(" %.4f", p.run_s);
  std::printf("\n");
  for (const std::vector<Metric>* set : all_metrics) {
    for (const Metric& x : *set) {
      std::printf("  %-36s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
  }
  for (const auto& [kernel, cls] : w.npb.kernels) {
    const std::string k = "npb." + std::string(npb::to_string(kernel)) + ".";
    for (std::size_t mode = 0; mode < kModeCount; ++mode) {
      const std::string km = k + mode_name(mode);
      std::printf("  %-36s %.6g ms_sim, %.6g s host (%d ranks)\n", km.c_str(),
                  m[km + ".vms"], host_s(km), w.npb.ranks);
    }
  }
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const trace::causal::Aggregator& a = tracing.agg[mode];
    const std::string_view dominant = trace::causal::stage_name(a.critical().dominant());
    std::printf("  causal %-6s %llu spans, e2e p50 ~%.0f ns_sim, dominant stage %.*s\n",
                mode_name(mode), static_cast<unsigned long long>(a.spans()),
                a.e2e().percentile(50) / 1e3, static_cast<int>(dominant.size()),
                dominant.data());
  }
  if (c.fused != t.fused) {
    std::printf("  note: the traced pass drains the NIC send queue on a different "
                "path (fused drains %llu untraced vs %llu traced)\n",
                static_cast<unsigned long long>(c.fused),
                static_cast<unsigned long long>(t.fused));
  }
  for (const std::string& d : divergent) {
    std::printf("  TRACED PASS DIVERGES: %s\n", d.c_str());
  }
  for (const std::string& f : ledger.failures) std::printf("  FAILED: %s\n", f.c_str());

  const std::vector<Metric>& out = args.trace ? per_layer : end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ledger.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;  // counted failed above
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out[i].name.c_str(), v, out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
