// Fabric between NICs: hosts, their loopback paths and direct links.
//
// A Link is full duplex: each direction is an independent FIFO Resource at
// the wire bandwidth plus a fixed propagation delay. The paper's two
// evaluation systems are back-to-back two-node setups (a single link plus
// per-NIC loopback paths); core::System generalises them to a full mesh,
// where every host pair has its own link. Every path is therefore one
// hop: path() returns the Hop of the link or of the loopback.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/units.hpp"

namespace cord::fabric {

using NodeId = std::uint32_t;

/// The directed path from a source host to a destination host: the
/// direction's serialization resource plus its propagation.
struct Hop {
  sim::Resource* tx = nullptr;
  sim::Bandwidth bandwidth;
  sim::Time propagation = 0;

  /// Reserve the wire for one chunk that is ready to enter it at `ready`;
  /// returns when the chunk has fully arrived at the destination node.
  sim::Time reserve(sim::Time ready, std::uint64_t wire_bytes) const {
    return tx->reserve_at(ready, bandwidth.time_for(wire_bytes)) + propagation;
  }
};

class Link {
 public:
  Link(sim::Engine& engine, NodeId a, sim::Bandwidth bw, sim::Time propagation)
      : a_(a),
        a_to_b_(engine),
        b_to_a_(engine),
        bandwidth_(bw),
        propagation_(propagation) {}

  Hop hop_from(NodeId src) {
    return Hop{src == a_ ? &a_to_b_ : &b_to_a_, bandwidth_, propagation_};
  }

 private:
  NodeId a_;
  sim::Resource a_to_b_;
  sim::Resource b_to_a_;
  sim::Bandwidth bandwidth_;
  sim::Time propagation_;
};

/// The set of links and per-node loopback paths.
class Network {
 public:
  /// Every link and loopback resource runs on `engine`.
  explicit Network(sim::Engine& engine) : engine_(&engine) {}

  /// Create a bidirectional link between two nodes. Reconnecting an
  /// existing pair throws: replacing the Link would dangle the Hop
  /// resources already handed to NICs mid-simulation.
  void connect(NodeId a, NodeId b, sim::Bandwidth bw, sim::Time propagation) {
    const auto key = ordered(a, b);
    if (links_.contains(key)) {
      throw std::invalid_argument(
          "Network::connect: nodes " + std::to_string(a) + " and " +
          std::to_string(b) +
          " are already linked (reconnecting would invalidate Hop "
          "resources held by NICs)");
    }
    links_[key] = std::make_unique<Link>(*engine_, a, bw, propagation);
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
  }

  /// The directed path from `src` to `dst`: the loopback when they are
  /// the same node, else their link. Throws std::invalid_argument for an
  /// unknown node or an unlinked pair.
  Hop path(NodeId src, NodeId dst) {
    if (src == dst) {
      auto it = loopback_.find(src);
      if (it == loopback_.end()) throw std::invalid_argument("unknown node");
      return Hop{it->second.resource.get(), it->second.bandwidth,
                 it->second.delay};
    }
    auto it = links_.find(ordered(src, dst));
    if (it == links_.end()) {
      throw std::invalid_argument("no link between nodes " +
                                  std::to_string(src) + " and " +
                                  std::to_string(dst));
    }
    return it->second->hop_from(src);
  }

 private:
  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  struct Loopback {
    std::unique_ptr<sim::Resource> resource;
    sim::Bandwidth bandwidth;
    sim::Time delay = 0;
  };

  sim::Engine* engine_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
  std::map<NodeId, Loopback> loopback_;
};

}  // namespace cord::fabric
