#include "core/system.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace cord::core {

SystemConfig system_l() {
  SystemConfig c;
  c.name = "L";
  // ConnectX-6 Dx at 200 Gbit/s capped to 100 Gbit/s by the motherboard.
  c.wire_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  c.wire_propagation = sim::ns(150);  // back-to-back cable
  c.nic = nic::NicConfig{};           // CX-6 class defaults
  c.nic.max_inline = 220;

  c.cpu = os::CpuModel{};
  c.cpu.base_ghz = 3.3;   // i5-4590
  c.cpu.turbo_ghz = 3.7;
  c.cpu.turbo_enabled = false;  // paper: "we disable Turbo Boost"
  c.cpu.kpti = false;           // paper: "we disable KPTI"
  c.cpu.syscall_crossing = sim::ns(180);
  c.cpu.memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(7.5);

  c.kernel = os::KernelConfig{};
  c.cord_inline_support = true;
  c.cord_poll_via_kernel = true;
  return c;
}

SystemConfig system_l_turbo() {
  SystemConfig c = system_l();
  c.name = "L+turbo";
  c.cpu.turbo_enabled = true;
  return c;
}

SystemConfig system_a() {
  SystemConfig c;
  c.name = "A";
  // Virtualized ConnectX-6 InfiniBand, 200 Gbit/s, through a switch.
  c.wire_bandwidth = sim::Bandwidth::gbit_per_sec(200.0);
  c.wire_propagation = sim::ns(600);

  c.nic = nic::NicConfig{};
  c.nic.pcie_bandwidth = sim::Bandwidth::gbit_per_sec(256.0);  // PCIe gen4 x16
  c.nic.dma_latency = sim::ns(500);      // SR-IOV adds latency
  c.nic.doorbell_latency = sim::ns(400); // virtualized MMIO
  c.nic.interrupt_delivery = sim::ns(1200);
  c.nic.max_inline = 1024;  // CX-6 IB configured for large inline; this is
                            // why the bimodal split sits at ~1 KiB (Fig. 5a)

  c.cpu = os::CpuModel{};
  c.cpu.base_ghz = 2.2;   // EPYC 7V73X base
  c.cpu.turbo_ghz = 3.5;
  c.cpu.turbo_enabled = true;  // cloud policy: DVFS cannot be disabled
  c.cpu.kpti = false;          // Meltdown mitigated in hardware
  c.cpu.syscall_crossing = sim::ns(220);
  c.cpu.virt_overhead = 0.8;   // nested paging, virtualized MSRs
  c.cpu.syscall_jitter = 0.30; // noisy neighbours, hypervisor scheduling
  c.cpu.memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(12.0);

  c.kernel = os::KernelConfig{};
  c.cord_inline_support = false;  // the paper's prototype gap on system A
  c.cord_poll_via_kernel = true;
  return c;
}

System::System(SystemConfig cfg, std::size_t host_count)
    : cfg_(std::move(cfg)), network_(engine_), tracer_(engine_) {
  for (std::size_t i = 0; i < host_count; ++i) {
    network_.add_node(static_cast<nic::NodeId>(i), cfg_.loopback_bandwidth,
                      cfg_.loopback_delay);
  }
  switch (cfg_.wiring) {
    case SystemConfig::Wiring::kFullMesh:
      for (std::size_t i = 0; i < host_count; ++i) {
        for (std::size_t j = i + 1; j < host_count; ++j) {
          network_.connect(static_cast<nic::NodeId>(i),
                           static_cast<nic::NodeId>(j), cfg_.wire_bandwidth,
                           cfg_.wire_propagation);
        }
      }
      break;
    case SystemConfig::Wiring::kPairs:
      for (std::size_t i = 0; i + 1 < host_count; i += 2) {
        network_.connect(static_cast<nic::NodeId>(i),
                         static_cast<nic::NodeId>(i + 1), cfg_.wire_bandwidth,
                         cfg_.wire_propagation);
      }
      break;
    case SystemConfig::Wiring::kRack: {
      const fabric::RackConfig& rack = cfg_.rack;
      if (rack.host_count() != host_count) {
        throw std::invalid_argument(
            "System: rack topology (" + std::to_string(rack.racks) + " x " +
            std::to_string(rack.hosts_per_rack) + " hosts) does not match "
            "host_count = " + std::to_string(host_count));
      }
      fabric::build_rack(network_, rack);
      break;
    }
  }
  for (std::size_t i = 0; i < host_count; ++i) {
    hosts_.push_back(std::make_unique<os::Host>(
        engine_, network_, registry_, static_cast<nic::NodeId>(i), cfg_.nic,
        cfg_.cpu, cfg_.kernel));
  }
  // The system view of every host row, then the system's own rows; all
  // are read live, with no per-event bookkeeping.
  for (const auto& row : os::Kernel::metric_table()) {
    const auto read = row.read;
    switch (row.combine) {
      case trace::Combine::kSum:
        metrics_.callback_gauge(row.name, [this, read] {
          std::uint64_t total = 0;
          for (const auto& h : hosts_) total += read(h->kernel());
          return static_cast<std::int64_t>(total);
        });
        break;
      case trace::Combine::kMax:
        metrics_.callback_gauge(row.name, [this, read] {
          std::uint64_t most = 0;
          for (const auto& h : hosts_) most = std::max(most, read(h->kernel()));
          return static_cast<std::int64_t>(most);
        });
        break;
      case trace::Combine::kEngineWide:
        metrics_.callback_gauge(row.name, [this, read] {
          return hosts_.empty()
                     ? std::int64_t{0}
                     : static_cast<std::int64_t>(read(hosts_.front()->kernel()));
        });
        break;
      case trace::Combine::kHostOnly:
        break;
    }
  }
  for (const auto& row : metric_table()) {
    metrics_.callback_gauge(row.name, [this, read = row.read] {
      return static_cast<std::int64_t>(read(*this));
    });
  }
}

std::span<const trace::MetricRow<System>> System::metric_table() {
  static constexpr trace::MetricRow<System> kRows[] = {
      // Engine health. The clamp gauge is how the bench harness notices a
      // truncated run (a clamped run is a lie unless surfaced).
      {"engine.events_processed", "events", "events the engine dispatched",
       [](const System& s) { return s.engine_.events_processed(); }},
      {"engine.clamped_events", "events",
       "events scheduled in the past and clamped to now",
       [](const System& s) { return s.engine_.clamped_events(); }},
      // Causal-layer health: views of the aggregate analyze_causal() last
      // built (zero until it runs; no data-path cost ever).
      {"causal.spans", "spans", "spans in the last causal analysis",
       [](const System& s) { return s.causal_.spans(); }},
      {"causal.watchdog_violations", "violations",
       "latency-SLO watchdog firings in the last causal analysis",
       [](const System& s) { return s.causal_.watchdog_violations(); }},
      {"causal.p99_e2e_ns", "ns", "p99 end-to-end span latency",
       [](const System& s) {
         return static_cast<std::uint64_t>(s.causal_.e2e().percentile(99.0) /
                                           1e3);
       }},
  };
  return kRows;
}

std::vector<trace::Record> System::merged_trace() const {
  // Stable by time: order emission indices by (t, index), then copy the
  // records out in that order. Sorting 4-byte indices instead of the
  // 40-byte records (std::stable_sort would also allocate a half-size
  // scratch copy) keeps the export's peak memory near one extra copy.
  std::vector<std::uint32_t> order(tracer_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const sim::Time ta = tracer_[a].t;
              const sim::Time tb = tracer_[b].t;
              return ta != tb ? ta < tb : a < b;
            });
  std::vector<trace::Record> records;
  records.reserve(order.size());
  for (const std::uint32_t i : order) records.push_back(tracer_[i]);
  return records;
}

const trace::causal::Aggregator& System::analyze_causal() {
  causal_.clear();
  causal_.ingest(merged_trace());
  return causal_;
}

}  // namespace cord::core
