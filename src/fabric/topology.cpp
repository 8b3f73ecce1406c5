#include "fabric/topology.hpp"

#include <algorithm>
#include <deque>
#include <string>

namespace cord::fabric {

void build_rack(Network& net, const RackConfig& cfg) {
  if (cfg.racks == 0 || cfg.hosts_per_rack == 0) {
    throw std::invalid_argument(
        "build_rack: racks and hosts_per_rack must be >= 1");
  }
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    net.add_switch(cfg.tor_id(r), /*tier=*/1, cfg.tor_latency);
  }
  if (cfg.racks > 1) {
    net.add_switch(cfg.spine_id(), /*tier=*/2, cfg.spine_latency);
  }
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    for (std::size_t h = 0; h < cfg.hosts_per_rack; ++h) {
      net.connect(static_cast<NodeId>(r * cfg.hosts_per_rack + h),
                  cfg.tor_id(r), cfg.host_bandwidth, cfg.host_propagation);
    }
    if (cfg.racks > 1) {
      net.connect(cfg.tor_id(r), cfg.spine_id(), cfg.uplink_bandwidth,
                  cfg.uplink_propagation);
    }
  }
  net.compute_routes();
}

void Network::compute_routes() {
  routes_.clear();
  // Deterministic adjacency: neighbors in ascending node-id order, so BFS
  // tie-breaking (and thus every route) is a pure function of the wiring.
  std::map<NodeId, std::vector<std::pair<NodeId, Link*>>> adj;
  for (auto& [key, link] : links_) {
    adj[link->a()].emplace_back(link->b(), link.get());
    adj[link->b()].emplace_back(link->a(), link.get());
  }
  for (auto& [n, neigh] : adj) {
    std::sort(neigh.begin(), neigh.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
  }

  for (const auto& [src, lb] : loopback_) {
    // BFS by hop count from `src`; first visit wins, so among equal-length
    // routes the lexicographically-smallest (by node id) is chosen.
    std::map<NodeId, std::pair<NodeId, Link*>> parent;  // node -> (prev, link)
    std::deque<NodeId> frontier{src};
    parent[src] = {src, nullptr};
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (const auto& [v, link] : it->second) {
        if (parent.contains(v)) continue;
        parent[v] = {u, link};
        frontier.push_back(v);
      }
    }

    for (const auto& [dst, lb2] : loopback_) {
      if (dst == src || !parent.contains(dst)) continue;
      // Reconstruct dst -> src, then reverse into forward hop order.
      std::vector<NodeId> nodes{dst};
      while (nodes.back() != src) nodes.push_back(parent[nodes.back()].first);
      std::reverse(nodes.begin(), nodes.end());
      const std::size_t hops = nodes.size() - 1;
      if (hops > Path::kMaxHops) {
        throw std::invalid_argument(
            "Network::compute_routes: route from " + std::to_string(src) +
            " to " + std::to_string(dst) + " needs " + std::to_string(hops) +
            " hops, more than Path::kMaxHops (" +
            std::to_string(Path::kMaxHops) +
            ") — topology deeper than host->ToR->spine->ToR->host is not "
            "modeled");
      }

      RouteEntry entry;
      entry.nodes = nodes;
      entry.path.hop_count = static_cast<std::uint8_t>(hops);
      // Source/destination split: the first src_hops hops are the
      // source-side segment (UD completes at its end; ctrl packets ride
      // a non-contending lane past it). The split is a pure function of
      // the route's *shape*: a hop leaving its lower-or-equal-tier
      // upstream endpoint (climbing) belongs to the source side; a hop
      // dropping down a tier belongs to the destination side. Leaf-spine
      // routes climb then descend, so the result is always a
      // prefix/suffix split.
      std::size_t prefix = 0;
      bool descending = false;
      for (std::size_t i = 0; i < hops; ++i) {
        const NodeId u = nodes[i];
        const NodeId v = nodes[i + 1];
        Link* link = parent[v].second;
        entry.path.hops[i] =
            Hop{link->tx_from(u), link->bandwidth(),
                link->propagation() + forward_latency_of(u)};
        const bool climbs = tier_of(u) <= tier_of(v);
        if (climbs && descending) {
          throw std::invalid_argument(
              "Network::compute_routes: the route from " +
              std::to_string(src) + " to " + std::to_string(dst) +
              " climbs tiers again after descending (hop " +
              std::to_string(u) + " -> " + std::to_string(v) +
              ") — only climb-then-descend shapes split into a sender "
              "prefix and a receiver suffix");
        }
        if (!climbs) descending = true;
        if (!descending) ++prefix;
      }
      entry.path.src_hops = static_cast<std::uint8_t>(prefix);
      routes_.emplace(std::pair{src, dst}, std::move(entry));
    }
  }
  routes_ready_ = true;
}

std::vector<NodeId> Network::route(NodeId src, NodeId dst) {
  if (src == dst) return {src};
  if (links_.contains(ordered(src, dst)) && switches_.empty()) {
    return {src, dst};
  }
  ensure_routes();
  auto it = routes_.find({src, dst});
  if (it == routes_.end()) {
    if (links_.contains(ordered(src, dst))) return {src, dst};
    throw std::invalid_argument("no route between nodes " +
                                std::to_string(src) + " and " +
                                std::to_string(dst));
  }
  return it->second.nodes;
}

}  // namespace cord::fabric
