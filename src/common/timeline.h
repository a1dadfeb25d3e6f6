// Discrete-event timeline for the modeled ZC702.
//
// The additive SimDuration ledger (src/common/sim_time.h) charges every cost
// sequentially, so concurrency between the PS, the PL engine, and the DMA
// channel can never be expressed — exactly the limitation that hid the
// paper's Fig. 5 schedule (buffer A processes while buffer B fills) and any
// frame-level PS/PL overlap. The Timeline replaces assumption with
// computation: named resources, events with absolute start/end timestamps,
// and greedy earliest-start scheduling (an event starts at
// max(ready, resource-free)), so overlap falls out of the event graph.
//
// Timestamps are SimDurations measured from the timeline's t=0; everything
// is deterministic — same schedule calls, same events, on any host
// (tests/test_timeline.cpp locks this across runs).
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"

namespace vf {

using ResourceId = int;

// The clock state of a set of resources: when each is next free, how long
// each has been busy, and the latest end across all of them. This is all a
// schedule needs to place the next event, so hot accounting paths (the
// batched accelerator, src/hw/driver.h) keep only this and never log an
// event: scheduling is O(1) and allocation-free.
class ResourceClocks {
 public:
  // `label` names what the event models ("drv", "comp", "fwd", ...). It
  // must point at a string that outlives every copy of the event (callers
  // pass literals), so placing an event never allocates or copies text.
  struct Event {
    ResourceId resource = 0;
    const char* label = "";
    SimDuration start, end;
    SimDuration duration() const { return end - start; }
  };

  // Registers a schedulable resource. Ids are dense and assigned in call
  // order.
  ResourceId add_resource();

  int resource_count() const { return static_cast<int>(clocks_.size()); }

  // Schedules a task on `r` that may not start before `ready`; it starts at
  // max(ready, the resource's free time) and occupies the resource for
  // `duration`. Returns the placed event (with resolved start/end). Defined
  // here so a caller that reads only part of the event (driver::place_batch
  // on the accounting path) keeps it in registers.
  Event schedule(ResourceId r, const char* label, SimDuration ready,
                 SimDuration duration) {
    assert(r >= 0 && r < resource_count());
    assert(duration >= SimDuration::zero());
    Clock& clock = clocks_[r];
    Event ev;
    ev.resource = r;
    ev.label = label;
    ev.start = std::max(ready, clock.free_at);
    ev.end = ev.start + duration;
    clock.free_at = ev.end;
    clock.busy += duration;
    if (ev.end > makespan_) makespan_ = ev.end;
    return ev;
  }

  // Earliest time a new event could start on `r` (ignoring ready deps).
  SimDuration free_at(ResourceId r) const { return clocks_[r].free_at; }

  // Sum of event durations on `r` (idle gaps excluded).
  SimDuration busy_time(ResourceId r) const { return clocks_[r].busy; }

  // End of the latest event across all resources (0 when empty).
  SimDuration makespan() const { return makespan_; }

 private:
  struct Clock {
    SimDuration free_at;
    SimDuration busy;
  };
  std::vector<Clock> clocks_;
  SimDuration makespan_;
};

// ResourceClocks plus named resources and a log of every placed event, for
// schedules whose events are read afterwards (busy_intervals for energy,
// tests, trace counts). Handing a Timeline to code that takes a
// ResourceClocks* advances its clocks without logging those events.
class Timeline : public ResourceClocks {
 public:
  // Registers a schedulable resource (e.g. "PS core", "PL engine",
  // "ACP DMA"). Ids are dense and assigned in call order.
  ResourceId add_resource(std::string name);

  const std::string& resource_name(ResourceId r) const { return names_[r]; }

  // ResourceClocks::schedule, and the placed event is logged.
  Event schedule(ResourceId r, const char* label, SimDuration ready,
                 SimDuration duration) {
    const Event ev = ResourceClocks::schedule(r, label, ready, duration);
    events_.push_back(ev);
    return ev;
  }

  const std::vector<Event>& events() const { return events_; }

  // Room for `n` events without regrowing the event log.
  void reserve_events(std::size_t n) { events_.reserve(n); }

  // Merged busy intervals of the given resources, sorted by start time, with
  // overlapping/adjacent intervals coalesced. This is the power-integration
  // view: during any merged interval at least one of the resources is
  // active, so a per-interval draw is charged once, not once per resource.
  // Duplicate and unknown ids are ignored; zero-length events occupy no
  // time. One resource's events are placed in start order and never
  // overlap, so this merges the per-resource lists in linear time.
  using Interval = std::pair<SimDuration, SimDuration>;
  std::vector<Interval> busy_intervals(const std::vector<ResourceId>& resources) const;

 private:
  std::vector<std::string> names_;
  std::vector<Event> events_;
};

}  // namespace vf
