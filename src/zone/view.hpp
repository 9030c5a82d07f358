// Split-horizon DNS (BIND-style `view` + `match-clients`): the mechanism the
// meta-DNS-server uses to emulate many independent authoritative servers on
// one address (§2.4). The recursive proxy rewrites each query's source
// address to the original query destination (the public address of the
// nameserver being imitated); the view set then selects the zone group
// belonging to that nameserver.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "util/ip.hpp"
#include "zone/zone.hpp"

namespace ldp::zone {

/// A group of zones served together (one logical nameserver). Lookups route
/// to the closest enclosing zone, mirroring how a real server with several
/// zones picks the one to answer from.
class ZoneSet {
 public:
  /// Add a zone. Fails on duplicate origin.
  Result<void> add(Zone zone);

  /// The zone whose origin is the longest suffix of qname, or nullptr.
  const Zone* find_zone(const Name& qname) const;

  const Zone* find_exact(const Name& origin) const;

  size_t size() const { return zones_.size(); }
  std::vector<const Zone*> all() const;

  /// Monotonic data revision: bumped whenever the set of served zones
  /// changes. Response caches key their validity on this — see
  /// ViewSet::revision() for the aggregate the server frontend watches.
  uint64_t revision() const { return revision_; }

 private:
  // Origin -> zone. Lookup walks qname's suffixes longest-first, so a
  // hosted child zone (example.com) wins over its hosted parent (com).
  std::unordered_map<Name, Zone, dns::NameHash> zones_;
  uint64_t revision_ = 0;
};

/// One view: the client source addresses that select it, plus the zones it
/// serves. An empty client set is a catch-all.
struct View {
  std::string name;
  std::unordered_set<IpAddr, IpAddrHash> match_clients;
  ZoneSet zones;

  bool matches(const IpAddr& client) const {
    return match_clients.empty() || match_clients.contains(client);
  }
};

/// Ordered view list, first match wins — exactly BIND's semantics, which is
/// what the paper relies on ("BIND with its view and match-clients
/// clauses").
class ViewSet {
 public:
  /// Views are consulted in insertion order.
  View& add_view(std::string name);

  /// The first view matching `client`, or nullptr if none.
  const View* match(const IpAddr& client) const;

  size_t view_count() const { return views_.size(); }
  const std::vector<std::unique_ptr<View>>& views() const { return views_; }

  /// Aggregate data revision over every view's zone set (plus the view
  /// count, so adding a view invalidates too). Pre-rendered response caches
  /// compare this against the revision they rendered under and drop their
  /// entries when it moves.
  uint64_t revision() const {
    uint64_t rev = views_.size();
    for (const auto& v : views_) rev += v->zones.revision();
    return rev;
  }

 private:
  std::vector<std::unique_ptr<View>> views_;
};

}  // namespace ldp::zone
