#include "src/sched/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/common/rng.h"
#include "src/hw/fixed_point.h"
#include "src/sched/pipeline.h"
#include "src/sched/streaming.h"

namespace vf::sched {

namespace detail {

namespace {

SimDuration clamp_nonneg(SimDuration d) {
  return d > SimDuration::zero() ? d : SimDuration::zero();
}

// A frame's stage times split into the work the PS core must execute and
// the PL-resident remainder it may overlap.
std::array<FleetStageCost, 4> split_stage_costs(const FrameRunResult& r) {
  return {{
      {clamp_nonneg(r.times.prep - r.pl_times.prep), r.pl_times.prep},
      {clamp_nonneg(r.times.forward - r.pl_times.forward), r.pl_times.forward},
      {clamp_nonneg(r.times.fusion - r.pl_times.fusion), r.pl_times.fusion},
      {clamp_nonneg(r.times.inverse - r.pl_times.inverse), r.pl_times.inverse},
  }};
}

}  // namespace

FleetSchedule schedule_fleet(const std::vector<FleetStreamInput>& streams,
                             int cores, int engines, int pipeline_depth,
                             bool steal_engines, double spill_wait_frac) {
  std::vector<StreamingStreamInput> blocks(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const FleetStreamInput& in = streams[s];
    StreamingStreamInput& out = blocks[s];
    out.arrivals = in.arrivals;
    out.period = in.period;
    out.queue_depth = in.queue_depth;
    out.home_engine = in.home_engine;
    out.frame_ops.reserve(in.cost.size());
    for (const auto& c : in.cost) out.frame_ops.push_back(stage_block_ops(c));
  }
  return schedule_streaming(blocks, cores, engines, pipeline_depth,
                            steal_engines, spill_wait_frac);
}

FleetEnergy integrate_fleet_energy(const Timeline& timeline,
                                   const std::vector<ResourceId>& engines,
                                   power::ComputeMode mode) {
  FleetEnergy energy;
  const std::vector<Timeline::Interval> busy = timeline.busy_intervals(engines);
  power::PowerRecorder loaded(SimDuration::milliseconds(1));
  loaded.run_intervals(busy, timeline.makespan(), /*idle=*/mode, /*active=*/mode);
  energy.loaded_mj = loaded.exact_energy_mj();
  power::PowerRecorder gated(SimDuration::milliseconds(1));
  gated.run_intervals(busy, timeline.makespan(), power::ComputeMode::kArmOnly, mode);
  energy.gated_mj = gated.exact_energy_mj();
  return energy;
}

SimDuration measure_stream(TransformBackend& backend,
                           const fusion::FuseConfig& fuse,
                           const std::vector<FramePair>& frames,
                           bool cross_frame, StreamingStreamInput* in) {
  BatchedFpgaBackend* traced =
      cross_frame ? dynamic_cast<BatchedFpgaBackend*>(&backend) : nullptr;
  if (traced) traced->enable_stream_trace();
  SimDuration serial_total;
  const std::vector<FrameRunResult> results = measure_frames(backend, fuse, frames);
  if (!traced) in->frame_ops.reserve(results.size());
  for (const FrameRunResult& r : results) {
    serial_total += r.times.total();
    if (traced) continue;
    // CPU backends and the serial FPGA replay their stage-granular costs as
    // sliced ops when streaming across frames, as stage blocks otherwise.
    const std::array<FleetStageCost, 4> cost = split_stage_costs(r);
    in->frame_ops.push_back(cross_frame ? stage_cost_ops(cost)
                                        : stage_block_ops(cost));
  }
  if (traced) {
    in->frame_ops = traced->take_stream_trace();
    in->engine = traced->accelerator().engine();
    in->costs = traced->accelerator().costs();
    in->sg_chain_len = traced->accelerator().batching().sg_chain_len;
  }
  return serial_total;
}

FleetSchedule schedule_streams(const FleetConfig& fleet,
                               const std::vector<StreamingStreamInput>& streams,
                               power::ComputeMode mode, FleetResult* totals) {
  FleetSchedule sched =
      schedule_streaming(streams, fleet.cores, fleet.engines,
                         fleet.pipeline_depth, fleet.steal_engines,
                         fleet.spill_wait_frac);
  totals->makespan = sched.timeline.makespan();
  for (const ResourceId core : sched.cores) {
    totals->ps_busy += sched.timeline.busy_time(core);
  }
  // The DMA channels count as PL time and gate the PL draw too.
  std::vector<ResourceId> pl_side = sched.engines;
  pl_side.insert(pl_side.end(), sched.dmas.begin(), sched.dmas.end());
  for (const ResourceId r : pl_side) totals->pl_busy += sched.timeline.busy_time(r);
  const FleetEnergy energy = integrate_fleet_energy(sched.timeline, pl_side, mode);
  totals->energy_mj = energy.loaded_mj;
  totals->energy_gated_mj = energy.gated_mj;
  return sched;
}

}  // namespace detail

namespace {

// Nearest-rank percentile over an ascending-sorted latency list.
SimDuration percentile(const std::vector<SimDuration>& sorted, double q) {
  if (sorted.empty()) return SimDuration::zero();
  const int n = static_cast<int>(sorted.size());
  int idx = static_cast<int>(std::ceil(q * n)) - 1;
  if (idx < 0) idx = 0;
  if (idx >= n) idx = n - 1;
  return sorted[static_cast<std::size_t>(idx)];
}

power::ComputeMode max_mode(power::ComputeMode a, power::ComputeMode b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

FleetResult run_fleet(const std::vector<StreamConfig>& streams,
                      const FleetConfig& fleet) {
  // Validate the whole configuration before any stream does work. The
  // engine count must fit the part: the Table-I model says how many
  // instances of the largest engine the PL streams model the xc7z020 holds
  // (the default engine when no stream uses the PL, since every engine is
  // still laid out). Modeling engines the fabric cannot carry would produce
  // plausible-looking nonsense, so refuse (same policy as
  // detail::check_engine_fit).
  const auto instances = [&](const hw::WaveletEngineConfig& engine) {
    return hw::max_engine_instances(
        hw::DevicePart{},
        fleet.fixed_point_engines
            ? hw::estimate_engine_resources_fixed(engine, hw::FixedPointFormat{})
            : hw::estimate_engine_resources(engine));
  };
  int fit = std::numeric_limits<int>::max();
  for (const StreamConfig& sc : streams) {
    if (sc.backend == BackendKind::kArm || sc.backend == BackendKind::kNeon) continue;
    fit = std::min(fit, instances(sc.run.engine));
  }
  if (fit == std::numeric_limits<int>::max()) fit = instances(hw::WaveletEngineConfig{});
  if (fleet.engines < 1 || fleet.engines > fit) {
    throw std::invalid_argument(
        std::to_string(fleet.engines) + " PL engine(s) requested but the " +
        (fleet.fixed_point_engines ? "fixed-point" : "float32") +
        " datapath fits the xc7z020 at most " + std::to_string(fit) +
        " time(s) (Table-I model)");
  }
  for (const StreamConfig& sc : streams) {
    if (sc.arrival.fps > 0.0 &&
        !(sc.arrival.jitter_frac >= 0.0 && sc.arrival.jitter_frac < 1.0)) {
      throw std::invalid_argument("arrival jitter_frac " +
                                  std::to_string(sc.arrival.jitter_frac) +
                                  " outside [0, 1)");
    }
  }

  // Pass 1, per stream: detail::measure_stream through the stream's
  // factory-built backend (exactly run_pipelined's measurement pass). The
  // NEON spill costs are shape-only, so one probed frame covers the whole
  // stream.
  std::vector<detail::StreamingStreamInput> inputs(streams.size());
  power::ComputeMode mode = power::ComputeMode::kArmOnly;
  // The synthetic frames depend only on (frame size, window length), so
  // streams of one shape share them; each stream still fuses and replays
  // its own window.
  struct SweepWindow {
    FrameSize size;
    int frames;
    std::vector<FramePair> pairs;
  };
  std::vector<SweepWindow> windows;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StreamConfig& sc = streams[s];
    detail::StreamingStreamInput& in = inputs[s];
    in.queue_depth = sc.queue_depth;
    in.home_engine = static_cast<int>(s);
    const int frames = sc.run.frames;
    if (sc.arrival.fps > 0.0) {
      in.period = SimDuration::seconds(1.0 / sc.arrival.fps);
      Rng jitter(0xf1ee7ull * (s + 1) + 0x9e3779b9ull);
      for (int f = 0; f < frames; ++f) {
        in.arrivals.push_back(sc.arrival.offset + in.period * static_cast<double>(f) +
                              in.period * (sc.arrival.jitter_frac * jitter.next_double()));
      }
    } else {
      in.arrivals.assign(static_cast<std::size_t>(frames), sc.arrival.offset);
    }

    const std::unique_ptr<TransformBackend> backend =
        make_backend(sc.backend, sc.run);
    mode = max_mode(mode, backend->compute_mode());
    auto window = std::find_if(windows.begin(), windows.end(), [&](const SweepWindow& w) {
      return w.size.width == sc.run.frame_size.width &&
             w.size.height == sc.run.frame_size.height && w.frames == frames;
    });
    if (window == windows.end()) {
      windows.push_back({sc.run.frame_size, frames,
                         make_sweep_frames(sc.run.frame_size, frames)});
      window = windows.end() - 1;
    }
    const std::vector<FramePair>& pairs = window->pairs;
    detail::measure_stream(*backend, sc.run.fuse, pairs, fleet.cross_frame, &in);

    const bool cpu_stream = sc.backend == BackendKind::kArm ||
                            sc.backend == BackendKind::kNeon;
    if (fleet.spill_wait_frac > 0.0 && !cpu_stream && frames > 0) {
      const std::unique_ptr<TransformBackend> neon =
          make_backend(BackendKind::kNeon, sc.run);
      TimedFusionRunner neon_runner(*neon, sc.run.fuse);
      const auto probe = detail::split_stage_costs(
          neon_runner.run_frame_pair(pairs[0].visible, pairs[0].thermal));
      for (int f = 0; f < frames; ++f) {
        in.spill_ops.push_back(fleet.cross_frame ? detail::stage_cost_ops(probe)
                                                 : detail::stage_block_ops(probe));
      }
    }
  }

  FleetResult result;
  const detail::FleetSchedule sched =
      detail::schedule_streams(fleet, inputs, mode, &result);

  const SimDuration total_busy = result.ps_busy + result.pl_busy;
  result.streams.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamStats stats;
    std::vector<SimDuration> latencies;
    for (const detail::FleetFrameOutcome& frame : sched.frames[s]) {
      ++stats.arrived;
      if (frame.dropped) {
        ++stats.dropped;
        continue;
      }
      ++stats.admitted;
      ++stats.completed;
      if (frame.spilled) ++stats.spilled;
      latencies.push_back(frame.latency);
      if (frame.completion > stats.last_completion) {
        stats.last_completion = frame.completion;
      }
      if (frame.latency > stats.max_latency) stats.max_latency = frame.latency;
    }
    std::sort(latencies.begin(), latencies.end());
    stats.p50_latency = percentile(latencies, 0.50);
    stats.p99_latency = percentile(latencies, 0.99);
    stats.ps_busy = sched.stream_ps_busy[s];
    stats.pl_busy = sched.stream_pl_busy[s];
    const SimDuration busy = stats.ps_busy + stats.pl_busy;
    stats.energy_mj = total_busy > SimDuration::zero()
                          ? result.energy_mj * (busy / total_busy)
                          : 0.0;
    result.arrived += stats.arrived;
    result.admitted += stats.admitted;
    result.dropped += stats.dropped;
    result.completed += stats.completed;
    result.streams.push_back(stats);
  }
  return result;
}

}  // namespace vf::sched
