#include "src/sched/streaming.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/hw/clock.h"
#include "src/hw/cost_constants.h"

namespace vf::sched::detail {

namespace {

constexpr const char* kStageLabels[4] = {"prep", "fwd", "fus", "inv"};

StreamOp timed_op(StreamOp::Kind kind, int stage, SimDuration d) {
  StreamOp op;
  op.kind = kind;
  op.stage = stage;
  op.ps = d;
  return op;
}

// A frame's four stages as ops: the PS part (sliced, or one block), the PL
// part as one opaque block, and a boundary between stages.
std::vector<StreamOp> stage_ops(const std::array<FleetStageCost, 4>& cost,
                                bool slice_ps) {
  std::vector<StreamOp> ops;
  for (int g = 0; g < 4; ++g) {
    const FleetStageCost& c = cost[static_cast<std::size_t>(g)];
    if (slice_ps) {
      append_sliced_ps(&ops, g, c.ps);
    } else if (c.ps > SimDuration::zero()) {
      ops.push_back(timed_op(StreamOp::Kind::kPs, g, c.ps));
    }
    if (c.pl > SimDuration::zero()) {
      ops.push_back(timed_op(StreamOp::Kind::kPlBlock, g, c.pl));
    }
    if (g < 3) {
      ops.push_back(timed_op(StreamOp::Kind::kStageBoundary, g, SimDuration::zero()));
    }
  }
  return ops;
}

}  // namespace

void append_sliced_ps(std::vector<StreamOp>* ops, int stage, SimDuration d) {
  if (!(d > SimDuration::zero())) return;
  const SimDuration quantum = hw::ps_cycles(hw::cost::kStreamPsSliceCycles);
  int n = 1;
  if (d > quantum) n = static_cast<int>(std::ceil(d / quantum));
  if (n < 1) n = 1;
  const SimDuration slice = d * (1.0 / n);
  for (int i = 0; i < n; ++i) {
    ops->push_back(timed_op(StreamOp::Kind::kPs, stage, slice));
  }
}

std::vector<StreamOp> stage_cost_ops(const std::array<FleetStageCost, 4>& cost) {
  return stage_ops(cost, /*slice_ps=*/true);
}

std::vector<StreamOp> stage_block_ops(const std::array<FleetStageCost, 4>& cost) {
  return stage_ops(cost, /*slice_ps=*/false);
}

FleetSchedule schedule_streaming(const std::vector<StreamingStreamInput>& streams,
                                 int cores, int engines, int pipeline_depth,
                                 bool steal_engines, double spill_wait_frac) {
  FleetSchedule out;
  const int ns = static_cast<int>(streams.size());
  if (cores < 1) cores = 1;
  if (engines < 1) engines = 1;
  if (pipeline_depth < 1) pipeline_depth = 1;
  for (int c = 0; c < cores; ++c) {
    out.cores.push_back(out.timeline.add_resource("PS core " + std::to_string(c)));
  }
  for (int e = 0; e < engines; ++e) {
    out.engines.push_back(
        out.timeline.add_resource("PL engine " + std::to_string(e)));
    out.dmas.push_back(out.timeline.add_resource("ACP DMA " + std::to_string(e)));
  }

  // Per-engine streaming state. The ping-pong buffers and the armed
  // descriptor chain live with the engine slot, not with a frame or a
  // stream: that is what lets the next frame's rows start filling buffer B
  // while the current frame's last batch still computes out of buffer A.
  std::vector<driver::EngineSlot> slots(static_cast<std::size_t>(engines));

  struct FrameState {
    int op_ptr = 0;
    bool use_spill = false;
    SimDuration ps_end;        // this frame's serial PS chain (floor: arrival)
    SimDuration dep_ready;     // barrier fence for batch inputs
    SimDuration last_out_end;  // drain point of this frame's outputs so far
  };
  // The pipeline-depth window: admitted[next_start] may start once
  // admitted[next_start - depth] has completed, and not before that
  // completion (so every frame before it has completed too).
  struct StreamState {
    int arrival_ptr = 0;
    int next_start = 0;  // index into `admitted` of the first unstarted frame
    int low = 0;         // admitted[..low) have all completed
    std::vector<int> admitted;
    std::vector<FrameState> fs;
  };
  std::vector<StreamState> state(static_cast<std::size_t>(ns));
  out.frames.resize(static_cast<std::size_t>(ns));
  out.stream_ps_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  out.stream_pl_busy.assign(static_cast<std::size_t>(ns), SimDuration::zero());
  // A batch places four events (drv/desc, in, comp, out), any other op at
  // most one; reserving that bound up front (a frame runs its normal or its
  // spill ops) keeps the event log from regrowing as the window lengthens.
  auto events_of = [](const std::vector<StreamOp>& ops) {
    std::size_t n = 0;
    for (const StreamOp& op : ops) n += op.kind == StreamOp::Kind::kBatch ? 4 : 1;
    return n;
  };
  // A one-entry spill list is every frame's spill.
  auto spill_of = [](const StreamingStreamInput& in, std::size_t f)
      -> const std::vector<StreamOp>& {
    return in.spill_ops[in.spill_ops.size() == 1 ? 0 : f];
  };
  std::size_t events = 0;
  for (int s = 0; s < ns; ++s) {
    const StreamingStreamInput& in = streams[static_cast<std::size_t>(s)];
    const std::size_t n = in.arrivals.size();
    state[static_cast<std::size_t>(s)].fs.resize(n);
    out.frames[static_cast<std::size_t>(s)].resize(n);
    const std::size_t shared_spill =
        in.spill_ops.size() == 1 ? events_of(in.spill_ops[0]) : 0;
    for (std::size_t f = 0; f < n && f < in.frame_ops.size(); ++f) {
      std::size_t e = std::max(events_of(in.frame_ops[f]), shared_spill);
      if (in.spill_ops.size() > 1 && f < in.spill_ops.size()) {
        e = std::max(e, events_of(in.spill_ops[f]));
      }
      events += e;
    }
  }
  out.timeline.reserve_events(events);

  auto stream_at = [&](int s) -> const StreamingStreamInput& {
    return streams[static_cast<std::size_t>(s)];
  };
  auto core_of = [&](int s) { return out.cores[static_cast<std::size_t>(s % cores)]; };
  auto fs_of = [&](int s, int f) -> FrameState& {
    return state[static_cast<std::size_t>(s)].fs[static_cast<std::size_t>(f)];
  };
  auto outcome_of = [&](int s, int f) -> FleetFrameOutcome& {
    return out.frames[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)];
  };
  auto frame_ops = [&](int s, int f) -> const std::vector<StreamOp>& {
    const StreamingStreamInput& in = stream_at(s);
    const FrameState& fs = fs_of(s, f);
    return fs.use_spill && !in.spill_ops.empty()
               ? spill_of(in, static_cast<std::size_t>(f))
               : in.frame_ops[static_cast<std::size_t>(f)];
  };
  auto done = [&](int s, int f) {
    return fs_of(s, f).op_ptr >= static_cast<int>(frame_ops(s, f).size());
  };
  // Earliest-free engine this stream may use: any engine when stealing, the
  // home slot otherwise; ties prefer home, then the lowest id.
  auto pick_engine = [&](int s) {
    const int home = ((stream_at(s).home_engine % engines) + engines) % engines;
    if (!steal_engines) return home;
    int best = home;
    SimDuration best_free =
        out.timeline.free_at(out.engines[static_cast<std::size_t>(home)]);
    for (int e = 0; e < engines; ++e) {
      const SimDuration free =
          out.timeline.free_at(out.engines[static_cast<std::size_t>(e)]);
      if (free < best_free) {
        best = e;
        best_free = free;
      }
    }
    return best;
  };
  // Stage-boundary ops are pure bookkeeping (no resource time): a phase
  // consumes the previous phase's outputs, so the frame's PS chain may not
  // continue before its drain point, and later batches see the new fence.
  auto apply_boundaries = [&](int s, int f) {
    FrameState& fs = fs_of(s, f);
    const std::vector<StreamOp>& ops = frame_ops(s, f);
    while (fs.op_ptr < static_cast<int>(ops.size()) &&
           ops[static_cast<std::size_t>(fs.op_ptr)].kind ==
               StreamOp::Kind::kStageBoundary) {
      fs.ps_end = std::max(fs.ps_end, fs.last_out_end);
      fs.dep_ready = fs.last_out_end;
      ++fs.op_ptr;
    }
  };
  // Feasible (ready, start) of frame (s, f)'s next op, without mutating.
  auto op_times = [&](int s, int f, SimDuration* ready_out) {
    const FrameState& fs = fs_of(s, f);
    const StreamOp& op = frame_ops(s, f)[static_cast<std::size_t>(fs.op_ptr)];
    SimDuration ready = fs.ps_end;
    SimDuration start;
    switch (op.kind) {
      case StreamOp::Kind::kBatch: {
        const int e = pick_engine(s);
        const driver::EngineSlot& slot = slots[static_cast<std::size_t>(e)];
        ready = std::max(ready,
                         op.batch.after_barrier ? fs.last_out_end : fs.dep_ready);
        ready = std::max(ready,
                         slot.buffer_free[slot.next_buffer(stream_at(s).costs)]);
        start = std::max(ready, out.timeline.free_at(core_of(s)));
        break;
      }
      case StreamOp::Kind::kPlBlock: {
        const int e = pick_engine(s);
        start = std::max(ready, out.timeline.free_at(
                                  out.engines[static_cast<std::size_t>(e)]));
        break;
      }
      default:
        start = std::max(ready, out.timeline.free_at(core_of(s)));
        break;
    }
    *ready_out = ready;
    return start;
  };

  // Event-driven dispatch, one op per iteration: commit the eligible op
  // with the earliest feasible start (ties: lower stream, then older
  // frame), unless the next arrival comes strictly earlier — the
  // admission/drop decision is made at the arrival instant, after earlier
  // work has left the queue. A stream's candidates are its unfinished
  // started frames plus, once the frame pipeline_depth places before it has
  // completed, its oldest unstarted frame, so each dispatch looks at no more
  // than pipeline_depth + 1 frames per stream however long the window is.
  for (;;) {
    int bs = -1, bframe = -1;
    SimDuration bready, bstart;
    auto consider = [&](int s, int f) {
      SimDuration ready;
      const SimDuration start = op_times(s, f, &ready);
      const bool better =
          bs < 0 || start < bstart ||
          (start == bstart && (s < bs || (s == bs && f < bframe)));
      if (better) {
        bs = s;
        bframe = f;
        bready = ready;
        bstart = start;
      }
    };
    for (int s = 0; s < ns; ++s) {
      StreamState& st = state[static_cast<std::size_t>(s)];
      for (int k = st.low; k < st.next_start; ++k) {
        const int f = st.admitted[static_cast<std::size_t>(k)];
        if (!done(s, f)) {
          consider(s, f);
        } else if (k == st.low) {
          ++st.low;
        }
      }
      // admitted[next_start - depth] has completed iff `low` has passed it.
      if (st.next_start == static_cast<int>(st.admitted.size()) ||
          st.low <= st.next_start - pipeline_depth) {
        continue;
      }
      const int f = st.admitted[static_cast<std::size_t>(st.next_start)];
      if (st.next_start >= pipeline_depth) {
        const int prev =
            st.admitted[static_cast<std::size_t>(st.next_start - pipeline_depth)];
        FrameState& fs = fs_of(s, f);
        fs.ps_end = std::max(fs.ps_end, outcome_of(s, prev).completion);
      }
      consider(s, f);
    }

    int as = -1;
    SimDuration at;
    for (int s = 0; s < ns; ++s) {
      const StreamState& st = state[static_cast<std::size_t>(s)];
      if (st.arrival_ptr >= static_cast<int>(stream_at(s).arrivals.size())) continue;
      const SimDuration a =
          stream_at(s).arrivals[static_cast<std::size_t>(st.arrival_ptr)];
      if (as < 0 || a < at) {
        as = s;
        at = a;
      }
    }

    if (bs < 0 && as < 0) break;

    if (as >= 0 && (bs < 0 || at < bstart)) {
      StreamState& st = state[static_cast<std::size_t>(as)];
      const int f = st.arrival_ptr++;
      const StreamingStreamInput& in = stream_at(as);
      const int queue_len = static_cast<int>(st.admitted.size()) - st.next_start;
      if (in.queue_depth > 0 && queue_len >= in.queue_depth) {
        outcome_of(as, f).dropped = true;
      } else {
        FrameState& fs = st.fs[static_cast<std::size_t>(f)];
        fs.ps_end = in.arrivals[static_cast<std::size_t>(f)];
        apply_boundaries(as, f);
        if (!done(as, f)) {
          st.admitted.push_back(f);
        } else {
          // A frame with no work (all-zero stage costs) completes on
          // arrival instead of never starting and blocking its stream.
          outcome_of(as, f).completion = fs.ps_end;
        }
      }
      continue;
    }

    StreamState& st = state[static_cast<std::size_t>(bs)];
    const StreamingStreamInput& in = stream_at(bs);
    FrameState& fs = fs_of(bs, bframe);
    FleetFrameOutcome& outcome = outcome_of(bs, bframe);
    if (st.next_start < static_cast<int>(st.admitted.size()) &&
        st.admitted[static_cast<std::size_t>(st.next_start)] == bframe) {
      ++st.next_start;
      // Spill decision at first dispatch: when the shortest engine wait
      // measured from the arrival already exceeds the configured fraction
      // of the frame period, this frame runs on the NEON cost model
      // instead of queueing on the saturated PL.
      if (spill_wait_frac > 0.0 && !in.spill_ops.empty() &&
          in.period > SimDuration::zero()) {
        const SimDuration engine_free = out.timeline.free_at(
            out.engines[static_cast<std::size_t>(pick_engine(bs))]);
        const SimDuration arrival =
            in.arrivals[static_cast<std::size_t>(bframe)];
        const SimDuration wait =
            engine_free > arrival ? engine_free - arrival : SimDuration::zero();
        if (wait > in.period * spill_wait_frac) {
          fs.use_spill = true;
          outcome.spilled = true;
          apply_boundaries(bs, bframe);
          // The op list changed: re-evaluate the whole candidate set.
          continue;
        }
      }
    }

    const StreamOp& op =
        frame_ops(bs, bframe)[static_cast<std::size_t>(fs.op_ptr)];
    const char* label = kStageLabels[op.stage & 3];
    switch (op.kind) {
      case StreamOp::Kind::kPs: {
        const Timeline::Event ev =
            out.timeline.schedule(core_of(bs), label, bready, op.ps);
        fs.ps_end = ev.end;
        out.stream_ps_busy[static_cast<std::size_t>(bs)] += ev.duration();
        break;
      }
      case StreamOp::Kind::kBatch: {
        const int e = pick_engine(bs);
        driver::EngineSlot& slot = slots[static_cast<std::size_t>(e)];
        if (slot.chain_owner != bs) {  // a stream switch re-arms the chain
          slot.chain_owner = bs;
          slot.chain_pos = 0;
        }
        if (op.batch.after_barrier) fs.dep_ready = fs.last_out_end;
        const ResourceId core = core_of(bs);
        const driver::BatchEvents b = driver::place_batch(
            out.timeline, slot, core, out.dmas[static_cast<std::size_t>(e)],
            out.engines[static_cast<std::size_t>(e)], in.engine, in.costs,
            in.sg_chain_len, bready, op.batch);
        fs.ps_end = b.drv.end;
        fs.last_out_end = std::max(fs.last_out_end, b.out.end);
        // Each event counts on the side it ran on: GP-port copies are PS time.
        SimDuration ps_side, pl_side;
        for (const Timeline::Event& ev : {b.drv, b.in, b.comp, b.out}) {
          (ev.resource == core ? ps_side : pl_side) += ev.duration();
        }
        out.stream_ps_busy[static_cast<std::size_t>(bs)] += ps_side;
        out.stream_pl_busy[static_cast<std::size_t>(bs)] += pl_side;
        break;
      }
      case StreamOp::Kind::kPlBlock: {
        const int e = pick_engine(bs);
        const Timeline::Event ev = out.timeline.schedule(
            out.engines[static_cast<std::size_t>(e)], label, bready, op.ps);
        fs.ps_end = ev.end;
        fs.last_out_end = std::max(fs.last_out_end, ev.end);
        out.stream_pl_busy[static_cast<std::size_t>(bs)] += ev.duration();
        break;
      }
      case StreamOp::Kind::kStageBoundary:
        // Consumed by apply_boundaries; never a committed candidate.
        break;
    }
    ++fs.op_ptr;
    apply_boundaries(bs, bframe);
    if (done(bs, bframe)) {
      outcome.completion = std::max(fs.ps_end, fs.last_out_end);
      outcome.latency =
          outcome.completion - in.arrivals[static_cast<std::size_t>(bframe)];
    }
  }
  return out;
}

}  // namespace vf::sched::detail
