#include "src/common/timeline.h"

#include <algorithm>

namespace vf {

ResourceId ResourceClocks::add_resource() {
  clocks_.push_back(Clock{});
  return static_cast<ResourceId>(clocks_.size()) - 1;
}

ResourceId Timeline::add_resource(std::string name) {
  names_.push_back(std::move(name));
  return ResourceClocks::add_resource();
}

std::vector<Timeline::Interval> Timeline::busy_intervals(
    const std::vector<ResourceId>& resources) const {
  // One span list per distinct requested resource. Each list is already in
  // start order: an event starts no earlier than its resource's previous end.
  std::vector<int> list_of(static_cast<std::size_t>(resource_count()), -1);
  std::vector<std::vector<Interval>> lists;
  for (ResourceId r : resources) {
    if (r < 0 || r >= resource_count() || list_of[r] >= 0) continue;
    list_of[r] = static_cast<int>(lists.size());
    lists.emplace_back();
  }
  // Each list and the merge are sized before they fill: the spans are
  // counted first. Zero-length events occupy no time.
  const auto list_for = [&](const Event& ev) {
    return ev.end > ev.start ? list_of[ev.resource] : -1;
  };
  std::vector<std::size_t> count(lists.size(), 0);
  for (const Event& ev : events_) {
    if (const int k = list_for(ev); k >= 0) ++count[k];
  }
  std::size_t total = 0;
  for (std::size_t k = 0; k < lists.size(); ++k) {
    lists[k].reserve(count[k]);
    total += count[k];
  }
  for (const Event& ev : events_) {
    if (const int k = list_for(ev); k >= 0) lists[k].emplace_back(ev.start, ev.end);
  }
  // K-way merge by start, coalescing as the spans come out. The union of
  // the spans is unique, so the result does not depend on how equal starts
  // are ordered.
  std::vector<std::size_t> head(lists.size(), 0);
  std::vector<Interval> merged;
  merged.reserve(total);
  for (;;) {
    const Interval* next = nullptr;
    std::size_t from = 0;
    for (std::size_t k = 0; k < lists.size(); ++k) {
      if (head[k] == lists[k].size()) continue;
      const Interval& span = lists[k][head[k]];
      if (!next || span.first < next->first) {
        next = &span;
        from = k;
      }
    }
    if (!next) break;
    ++head[from];
    if (!merged.empty() && next->first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, next->second);
    } else {
      merged.push_back(*next);
    }
  }
  return merged;
}

}  // namespace vf
