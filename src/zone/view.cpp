#include "zone/view.hpp"

namespace ldp::zone {

Result<void> ZoneSet::add(Zone zone) {
  Name origin = zone.origin();
  auto [it, inserted] = zones_.emplace(origin, std::move(zone));
  if (!inserted) return Err("duplicate zone " + origin.to_string());
  ++revision_;
  return Ok();
}

const Zone* ZoneSet::find_zone(const Name& qname) const {
  // Longest suffix first: k from full name length down to 0 (the root).
  for (size_t k = qname.label_count() + 1; k-- > 0;) {
    auto it = zones_.find(qname.suffix(k));
    if (it != zones_.end()) return &it->second;
  }
  return nullptr;
}

const Zone* ZoneSet::find_exact(const Name& origin) const {
  auto it = zones_.find(origin);
  return it == zones_.end() ? nullptr : &it->second;
}

std::vector<const Zone*> ZoneSet::all() const {
  std::vector<const Zone*> out;
  out.reserve(zones_.size());
  for (const auto& [origin, zone] : zones_) out.push_back(&zone);
  return out;
}

View& ViewSet::add_view(std::string name) {
  views_.push_back(std::make_unique<View>());
  views_.back()->name = std::move(name);
  return *views_.back();
}

const View* ViewSet::match(const IpAddr& client) const {
  for (const auto& v : views_) {
    if (v->matches(client)) return v.get();
  }
  return nullptr;
}

}  // namespace ldp::zone
