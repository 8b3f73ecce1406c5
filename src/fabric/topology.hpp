// Rack-style topology preset for fabric::Network: `racks` top-of-rack
// switches with `hosts_per_rack` hosts each, every ToR uplinked to one
// spine switch (a single rack needs no spine). Host ids are
// [0, host_count()); switch ids follow — ToR of rack r is
// host_count() + r, the spine comes last.
//
//     host0 host1   host2 host3          tiers:  host = 0
//        \   /         \   /                     ToR  = 1
//        ToR0          ToR1                      spine = 2
//           \          /
//            \        /
//              spine
#pragma once

#include <cstddef>

#include "fabric/link.hpp"

namespace cord::fabric {

struct RackConfig {
  std::size_t racks = 2;
  std::size_t hosts_per_rack = 2;
  /// Host <-> ToR access links.
  sim::Bandwidth host_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  sim::Time host_propagation = sim::ns(150);
  /// ToR <-> spine uplinks (typically fatter than access links).
  sim::Bandwidth uplink_bandwidth = sim::Bandwidth::gbit_per_sec(400.0);
  sim::Time uplink_propagation = sim::ns(350);
  /// Per-switch forwarding latency, charged on every hop leaving the
  /// switch (cut-through ASIC pipeline; folded into hop propagation).
  sim::Time tor_latency = sim::ns(300);
  sim::Time spine_latency = sim::ns(450);

  std::size_t host_count() const { return racks * hosts_per_rack; }
  std::size_t switch_count() const { return racks + (racks > 1 ? 1 : 0); }
  std::size_t node_count() const { return host_count() + switch_count(); }
  std::size_t rack_of(NodeId host) const { return host / hosts_per_rack; }
  NodeId tor_id(std::size_t rack) const {
    return static_cast<NodeId>(host_count() + rack);
  }
  NodeId spine_id() const { return static_cast<NodeId>(host_count() + racks); }
};

/// Wire `cfg` into `net` and compute the static routes. The hosts
/// [0, cfg.host_count()) must already be registered with add_node (the
/// builder adds only switches and links). Throws std::invalid_argument for
/// degenerate shapes (zero racks/hosts).
void build_rack(Network& net, const RackConfig& cfg);

}  // namespace cord::fabric
