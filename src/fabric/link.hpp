// Fabric between NICs: point-to-point links, rack-style switched
// topologies, and statically routed multi-hop paths.
//
// A Link is full duplex: each direction is an independent FIFO Resource at
// the wire bandwidth plus a fixed propagation delay. The paper's two
// evaluation systems are back-to-back two-node setups (a single link plus
// per-NIC loopback paths), and that direct-wire fast path is unchanged.
// Beyond it, a Network may contain switch nodes (added with add_switch,
// wired with the same connect()) and then computes static shortest-path
// routes between hosts; path() returns a multi-hop Path chain traversed
// store-and-forward at MTU-chunk granularity (see topology.hpp for the
// rack preset and topology.cpp for route computation).
//
// Every routed Path splits *topologically* into a source-side prefix
// (tier-climbing hops) and a destination-side suffix (tier-descending
// hops); see Path::src_hops. The split point dates UD send completions
// (local wire egress) and the hand-off of control packets to their
// non-contending priority lane.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/units.hpp"

namespace cord::fabric {

using NodeId = std::uint32_t;

/// One wire segment of a (possibly multi-hop) path: the direction's
/// serialization resource plus its effective propagation — link
/// propagation, with the forwarding latency of the switch the hop leaves
/// from folded in at route-build time.
struct Hop {
  sim::Resource* tx = nullptr;
  sim::Bandwidth bandwidth;
  sim::Time propagation = 0;
};

/// The directed path from a source host towards a destination host: up to
/// kMaxHops store-and-forward hops. The first `src_hops` hops are the
/// tier-climbing (source-side) segment; the remaining tier-descending hops
/// form the destination-side segment. The split is a function of the
/// route's shape alone, and everything dated at the boundary (UD
/// completions, the ctrl-lane handoff) follows from it. A direct link or a
/// loopback is the 1-hop special case with src_hops == hop_count == 1.
struct Path {
  static constexpr std::size_t kMaxHops = 4;  // host->ToR->spine->ToR->host
  std::array<Hop, kMaxHops> hops{};
  std::uint8_t hop_count = 0;
  std::uint8_t src_hops = 0;

  std::uint8_t dst_hops() const { return hop_count - src_hops; }

  /// Reserve the source-side segment for one chunk that is ready to enter
  /// the wire at `ready`; returns when the chunk has fully crossed the
  /// last source-side hop (== arrival at the destination node when the
  /// path has no destination-side segment).
  sim::Time reserve_src(sim::Time ready, std::uint64_t wire_bytes) const {
    sim::Time t = ready;
    for (std::size_t i = 0; i < src_hops; ++i) {
      t = hops[i].tx->reserve_at(t, hops[i].bandwidth.time_for(wire_bytes)) +
          hops[i].propagation;
    }
    return t;
  }

  /// Reserve the destination-side segment for a chunk that crossed the
  /// boundary at `at`; returns arrival at the destination node.
  sim::Time reserve_dst(sim::Time at, std::uint64_t wire_bytes) const {
    sim::Time t = at;
    for (std::size_t i = src_hops; i < hop_count; ++i) {
      t = hops[i].tx->reserve_at(t, hops[i].bandwidth.time_for(wire_bytes)) +
          hops[i].propagation;
    }
    return t;
  }

  /// Reserve every hop (e.g. the socket stack): equivalent to
  /// reserve_dst(reserve_src(...)).
  sim::Time reserve_all(sim::Time ready, std::uint64_t wire_bytes) const {
    return reserve_dst(reserve_src(ready, wire_bytes), wire_bytes);
  }

  /// Serialization + propagation of the destination-side segment without
  /// reserving it — used for control packets (ACK/NAK), which ride a
  /// priority lane and do not contend on downlinks.
  sim::Time dst_latency(std::uint64_t wire_bytes) const {
    sim::Time t = 0;
    for (std::size_t i = src_hops; i < hop_count; ++i) {
      t += hops[i].bandwidth.time_for(wire_bytes) + hops[i].propagation;
    }
    return t;
  }

  /// Total propagation over all hops.
  sim::Time propagation() const {
    sim::Time t = 0;
    for (std::size_t i = 0; i < hop_count; ++i) t += hops[i].propagation;
    return t;
  }
};

class Link {
 public:
  Link(sim::Engine& engine, NodeId a, NodeId b, sim::Bandwidth bw,
       sim::Time propagation)
      : a_(a),
        b_(b),
        a_to_b_(engine),
        b_to_a_(engine),
        bandwidth_(bw),
        propagation_(propagation) {}

  NodeId a() const { return a_; }
  NodeId b() const { return b_; }
  sim::Time propagation() const { return propagation_; }
  sim::Bandwidth bandwidth() const { return bandwidth_; }

  sim::Resource* tx_from(NodeId src) {
    if (src == a_) return &a_to_b_;
    if (src == b_) return &b_to_a_;
    throw std::invalid_argument("node not on this link");
  }

  Path path_from(NodeId src) {
    Path p;
    p.hops[0] = Hop{tx_from(src), bandwidth_, propagation_};
    p.hop_count = 1;
    p.src_hops = 1;
    return p;
  }

 private:
  NodeId a_;
  NodeId b_;
  sim::Resource a_to_b_;
  sim::Resource b_to_a_;
  sim::Bandwidth bandwidth_;
  sim::Time propagation_;
};

/// The set of links, switches and per-node loopback paths, plus the static
/// route table between hosts (computed on demand; see topology.cpp).
class Network {
 public:
  /// Every link, switch and loopback resource runs on `engine`.
  explicit Network(sim::Engine& engine) : engine_(&engine) {}

  /// Create a bidirectional link between two nodes. Reconnecting an
  /// existing pair throws: replacing the Link would dangle the Path hop
  /// resources already handed to NICs mid-simulation.
  void connect(NodeId a, NodeId b, sim::Bandwidth bw, sim::Time propagation) {
    const auto key = ordered(a, b);
    if (links_.contains(key)) {
      throw std::invalid_argument(
          "Network::connect: nodes " + std::to_string(a) + " and " +
          std::to_string(b) +
          " are already linked (reconnecting would invalidate Path "
          "resources held by NICs)");
    }
    links_[key] = std::make_unique<Link>(*engine_, a, b, bw, propagation);
    routes_ready_ = false;
  }

  /// Register a host node and configure its loopback characteristics
  /// (traffic from a node to itself still traverses the NIC, bounded by
  /// PCIe).
  void add_node(NodeId n, sim::Bandwidth loopback_bw, sim::Time loopback_delay) {
    auto [it, inserted] = loopback_.try_emplace(n);
    if (inserted) {
      it->second.resource = std::make_unique<sim::Resource>(*engine_);
    }
    it->second.bandwidth = loopback_bw;
    it->second.delay = loopback_delay;
    routes_ready_ = false;
  }

  /// Register a switch node. `tier` orders the topology (hosts are tier 0,
  /// ToRs 1, spines 2); `forward_latency` is charged per hop leaving the
  /// switch and folded into that hop's propagation at route-build time.
  void add_switch(NodeId n, int tier, sim::Time forward_latency = 0) {
    if (loopback_.contains(n)) {
      throw std::invalid_argument("Network::add_switch: node " +
                                  std::to_string(n) + " is already a host");
    }
    switches_[n] = Switch{tier, forward_latency};
    routes_ready_ = false;
  }

  bool is_switch(NodeId n) const { return switches_.contains(n); }

  /// The directed path from `src` towards `dst` (both hosts). Direct links
  /// and loopbacks resolve immediately; anything else consults the static
  /// route table, computing it on first use. Throws std::invalid_argument
  /// when no route exists.
  Path path(NodeId src, NodeId dst) {
    if (src == dst) {
      auto it = loopback_.find(src);
      if (it == loopback_.end()) throw std::invalid_argument("unknown node");
      Path p;
      p.hops[0] = Hop{it->second.resource.get(), it->second.bandwidth,
                      it->second.delay};
      p.hop_count = 1;
      p.src_hops = 1;
      return p;
    }
    if (auto it = links_.find(ordered(src, dst)); it != links_.end()) {
      return it->second->path_from(src);
    }
    if (switches_.empty()) {
      throw std::invalid_argument("no link between nodes");
    }
    ensure_routes();
    auto it = routes_.find({src, dst});
    if (it == routes_.end()) {
      throw std::invalid_argument("no route between nodes " +
                                  std::to_string(src) + " and " +
                                  std::to_string(dst));
    }
    return it->second.path;
  }

  bool has_path(NodeId src, NodeId dst) {
    if (src == dst) return loopback_.contains(src);
    if (links_.contains(ordered(src, dst))) return true;
    if (switches_.empty()) return false;
    ensure_routes();
    return routes_.contains({src, dst});
  }

  /// The node sequence (src .. dst inclusive) of the routed path, for
  /// tests and reports. Direct links return {src, dst}.
  std::vector<NodeId> route(NodeId src, NodeId dst);

  /// Compute static shortest-path routes between every host pair (BFS by
  /// hop count, ties broken towards lower node ids — deterministic), and
  /// split each route topologically: tier-climbing hops form the source
  /// prefix, tier-descending hops the destination suffix. Throws
  /// std::invalid_argument for routes that climb again after descending
  /// (defined in topology.cpp).
  void compute_routes();

 private:
  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  int tier_of(NodeId n) const {
    auto it = switches_.find(n);
    return it == switches_.end() ? 0 : it->second.tier;
  }

  sim::Time forward_latency_of(NodeId n) const {
    auto it = switches_.find(n);
    return it == switches_.end() ? 0 : it->second.forward_latency;
  }

  void ensure_routes() {
    if (!routes_ready_) compute_routes();
  }

  struct Loopback {
    std::unique_ptr<sim::Resource> resource;
    sim::Bandwidth bandwidth;
    sim::Time delay = 0;
  };

  struct Switch {
    int tier = 1;
    sim::Time forward_latency = 0;
  };

  struct RouteEntry {
    Path path;
    std::vector<NodeId> nodes;  // src .. dst inclusive
  };

  sim::Engine* engine_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
  std::map<NodeId, Loopback> loopback_;
  std::map<NodeId, Switch> switches_;
  std::map<std::pair<NodeId, NodeId>, RouteEntry> routes_;
  bool routes_ready_ = false;
};

}  // namespace cord::fabric
