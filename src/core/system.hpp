// System assembly: puts engine, fabric, NICs, kernels and cores together,
// with named presets for the paper's two testbeds.
//
//   System L — two nodes, Intel i5-4590 (3.3/3.7 GHz, Turbo disabled for
//              benchmarks), ConnectX-6 Dx RoCE back-to-back at 100 Gbit/s
//              (motherboard-limited), bare metal, KPTI off, CoRD prototype
//              supports inline sends.
//   System A — two Azure HB120 nodes, virtualized EPYC 7V73X, virtualized
//              ConnectX-6 InfiniBand at 200 Gbit/s, DVFS cannot be
//              disabled, syscalls are costlier and jittery (virtualized),
//              KPTI off (hardware-mitigated Meltdown), CoRD prototype
//              lacks inline support — producing the bimodal overhead of
//              Fig. 5a.
//
// A System owns exactly one sim::Engine, which simulates every host, NIC
// and fabric resource, and one trace::Tracer on that engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/link.hpp"
#include "os/conn.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace cord::core {

struct SystemConfig {
  std::string name;
  sim::Bandwidth wire_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  sim::Time wire_propagation = sim::ns(150);
  sim::Bandwidth loopback_bandwidth = sim::Bandwidth::gbit_per_sec(200.0);
  sim::Time loopback_delay = sim::ns(150);
  nic::NicConfig nic;
  os::CpuModel cpu;
  os::KernelConfig kernel;
  /// Whether this system's CoRD prototype supports inline sends.
  bool cord_inline_support = true;
  /// Default for routing poll_cq through the kernel in CoRD mode.
  bool cord_poll_via_kernel = true;
  /// Connection-endpoint mode (the runtime conn=exclusive|shared knob,
  /// os::parse_conn_mode). Exclusive gives every logical connection its
  /// own physical QP; shared multiplexes logical connections over a
  /// bounded pool of `shared_qp_pool` physical QPs per destination
  /// (DCT/RDMAvisor-style, os/conn.hpp), keeping the NIC context working
  /// set and host memory bounded at millions of logical connections.
  os::ConnMode conn_mode = os::ConnMode::kExclusive;
  std::uint32_t shared_qp_pool = 64;
};

/// The paper's local testbed (defaults as benchmarked: Turbo disabled).
SystemConfig system_l();
/// System L with Turbo Boost left on (the DVFS-interaction observation).
SystemConfig system_l_turbo();
/// The Azure HB120 testbed.
SystemConfig system_a();

/// A full mesh of `host_count` hosts: every host pair has its own direct
/// link at the config's wire bandwidth and propagation.
class System {
 public:
  /// Throws std::invalid_argument, naming the field, for a config that
  /// cannot be simulated: nic.mtu == 0, or a wire, loopback, PCIe or
  /// memcpy bandwidth that is not a positive rate (e.g. built from
  /// 0 Gbit/s, which would make every transfer take forever).
  explicit System(SystemConfig cfg, std::size_t host_count = 2);

  sim::Engine& engine() { return engine_; }
  /// Alias of engine(), kept for existing callers.
  sim::Engine& sharded() { return engine_; }

  fabric::Network* network_ptr() { return &network_; }
  const SystemConfig& config() const { return cfg_; }
  std::size_t host_count() const { return hosts_.size(); }
  os::Host& host(std::size_t i) { return *hosts_.at(i); }

  /// The system tracer, disabled by default (zero data-path cost until
  /// set_tracing(true) arms the trace points).
  trace::Tracer& tracer() { return tracer_; }
  /// Arm or disarm the tracer.
  void set_tracing(bool on) { tracer_.set_enabled(on); }
  /// The captured records ordered by virtual time. The NIC emits some
  /// records ahead of their timestamp (a fused SQ drain reserves a whole
  /// burst from one event), so the raw buffer is not time-sorted; the sort
  /// is stable, so equal timestamps keep emission order.
  std::vector<trace::Record> merged_trace() const;
  /// Records dropped by the tracer (ring overflow).
  std::uint64_t trace_dropped() const { return tracer_.dropped(); }

  /// Rebuild the system-wide causal aggregate from the current merged
  /// trace (clears previous observations; SLO configuration is kept).
  /// Feeds the causal.* gauges in metrics().
  const trace::causal::Aggregator& analyze_causal();
  /// The causal aggregate as last built by analyze_causal() (empty until
  /// the first call). Configure SLOs here before running:
  /// `causal().set_slo(...)` — const_cast-free via the non-const overload.
  trace::causal::Aggregator& causal() { return causal_; }
  const trace::causal::Aggregator& causal() const { return causal_; }

  /// System-wide metrics, built from the metric tables: every
  /// os::Kernel::metric_table() row combined across hosts as the row says
  /// (sum, max or read once), plus this class's own rows (engine health,
  /// causal aggregate).
  trace::MetricsRegistry& metrics() { return metrics_; }
  /// The rows only the system view has, read through the System.
  static std::span<const trace::MetricRow<System>> metric_table();

  /// Context options for a process on this system in the given mode,
  /// applying the system's CoRD capabilities.
  verbs::ContextOptions options(verbs::DataplaneMode mode,
                                os::TenantId tenant = 0) const {
    return verbs::ContextOptions{
        .mode = mode,
        .poll_via_kernel = cfg_.cord_poll_via_kernel,
        .cord_inline_support = cfg_.cord_inline_support,
        .tenant = tenant,
    };
  }

 private:
  SystemConfig cfg_;
  sim::Engine engine_;
  fabric::Network network_;
  nic::NicRegistry registry_;
  std::vector<std::unique_ptr<os::Host>> hosts_;
  trace::Tracer tracer_;
  trace::MetricsRegistry metrics_;
  trace::causal::Aggregator causal_;
};

}  // namespace cord::core
