// Traced mode: per-layer host time, measured from outside by timing calls
// into each layer's public entry points on the workload's inputs.
//
// Each repetition runs the real operation untraced (the reference time for
// reconciliation), then the same operation rebuilt from its layer calls
// under spans, then attribution probes on the same frames. Times are
// process CPU time, so self times on pool threads add up to the
// operation's (the timed run's host metrics are wall-clock; the fusion
// speedup below is a wall-clock ratio). A layer's self time is its
// measured call minus the measured calls it makes:
//
//   fusion          FusionPlan::run through a plain SimdLineFilter
//   sched.account   building the workload's backend plus
//                   TimedFusionRunner::run_frame_pair through it, minus
//                   fusion (and, on a fleet, minus stream capture)
//   streaming       capture = run_frame_pair with stream capture on minus
//                   off (on a fleet, from a pair of probes run back to
//                   back); replay = detail::schedule_streaming
//   sched.pipeline  detail::schedule_fleet + detail::integrate_fleet_energy
//                   (run_pipelined's pass 2)
//   fleet           run_fleet's own work: frame generation, NEON spill
//                   probes, replay inputs and energy integration
//
// The self times of the layers on the workload's path must be non-negative
// and add up to the untraced operation within kReconcileTolerance, and the
// rebuilt operation must match the real one bit for bit; otherwise the run
// is incorrect (check_balance). The remainder is reported as unattributed
// time, and traced minus untraced as tracing overhead.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/fusion/fused_plan.h"
#include "src/sched/streaming.h"

namespace perfbench {

namespace {

namespace sched = vf::sched;
using sched::detail::FleetStageCost;
using sched::detail::StreamOp;
using vf::SimDuration;

constexpr int kMinReps = 5;
constexpr double kRepCapS = 120.0;

// --- spans ----------------------------------------------------------------------

double timed(Tracer* t, const char* name, int op, const std::function<void()>& fn) {
  const int id = t->begin(name, op);
  fn();
  return t->end(id);
}

// --- pass 1: serial numerics + accounting, one backend per stream ----------------

SimDuration clamp_nonneg(SimDuration d) {
  return d > SimDuration::zero() ? d : SimDuration::zero();
}

std::array<FleetStageCost, 4> split_stage_costs(const sched::FrameRunResult& r) {
  return {{
      {clamp_nonneg(r.times.prep - r.pl_times.prep), r.pl_times.prep},
      {clamp_nonneg(r.times.forward - r.pl_times.forward), r.pl_times.forward},
      {clamp_nonneg(r.times.fusion - r.pl_times.fusion), r.pl_times.fusion},
      {clamp_nonneg(r.times.inverse - r.pl_times.inverse), r.pl_times.inverse},
  }};
}

struct Pass1 {
  std::vector<std::array<FleetStageCost, 4>> cost;  // per frame
  std::vector<std::vector<StreamOp>> ops;           // per frame, when captured
  SimDuration serial_total;
  vf::power::ComputeMode mode = vf::power::ComputeMode::kArmOnly;
  long long driver_calls = 0, chain_heads = 0, lines = 0;
  double seconds = 0.0;  // summed run_frame_pair spans
};

Pass1 run_pass1(sched::BackendKind kind, const sched::RunConfig& config,
                const std::vector<FramePair>& frames, bool capture, Tracer* t,
                int op, const char* span) {
  Pass1 p;
  std::unique_ptr<sched::TransformBackend> backend;
  sched::BatchedFpgaBackend* batched = nullptr;
  std::unique_ptr<sched::TimedFusionRunner> runner;
  // Building the backend belongs to the accounting layer: it sets up the
  // driver and accelerator model the replay runs on.
  p.seconds += timed(t, span, op, [&] {
    backend = sched::make_backend(kind, config);
    batched = dynamic_cast<sched::BatchedFpgaBackend*>(backend.get());
    if (capture && batched) batched->enable_stream_trace();
    runner = std::make_unique<sched::TimedFusionRunner>(*backend, config.fuse);
  });
  p.mode = backend->compute_mode();
  for (const FramePair& pair : frames) {
    sched::FrameRunResult r;
    p.seconds += timed(t, span, op, [&] {
      r = runner->run_frame_pair(pair.visible, pair.thermal);
    });
    p.cost.push_back(split_stage_costs(r));
    p.serial_total += r.times.total();
  }
  if (batched) {
    if (capture) p.ops = batched->take_stream_trace();
    p.driver_calls = batched->accelerator().driver_calls();
    p.chain_heads = batched->accelerator().chain_heads();
    p.lines = batched->accelerator().lines();
  }
  return p;
}

// Camera arrivals as run_fleet generates them (offset + f/fps + seeded
// jitter), so the schedulers below replay the operation's exact inputs.
std::vector<SimDuration> arrivals(const sched::StreamConfig& sc, std::size_t s) {
  const SimDuration period = SimDuration::seconds(1.0 / sc.arrival.fps);
  vf::Rng jitter(0xf1ee7ull * (s + 1) + 0x9e3779b9ull);
  std::vector<SimDuration> out;
  for (int f = 0; f < sc.run.frames; ++f) {
    out.push_back(sc.arrival.offset + period * static_cast<double>(f) +
                  period * (sc.arrival.jitter_frac * jitter.next_double()));
  }
  return out;
}

// --- occupancy of a pass-2 schedule -----------------------------------------------

struct Occupancy {
  double makespan_s = 0.0, ps_busy_s = 0.0, pl_busy_s = 0.0;
  int cores = 1, engines = 1, completed = 0, spilled = 0, events = 0;
};

Occupancy occupancy(const sched::detail::FleetSchedule& s) {
  Occupancy o;
  o.makespan_s = s.timeline.makespan().sec();
  o.cores = static_cast<int>(s.cores.size());
  o.engines = static_cast<int>(s.engines.size());
  for (const vf::ResourceId r : s.cores) o.ps_busy_s += s.timeline.busy_time(r).sec();
  for (const vf::ResourceId r : s.engines) o.pl_busy_s += s.timeline.busy_time(r).sec();
  for (const auto& stream : s.frames) {
    for (const auto& f : stream) {
      if (f.dropped) continue;
      ++o.completed;
      if (f.spilled) ++o.spilled;
    }
  }
  o.events = static_cast<int>(s.timeline.events().size());
  return o;
}

// --- kernel microbenchmarks ------------------------------------------------------

struct KernelTimes {
  double analyze_ns = 0, synth_ns = 0, amag_ns = 0, ssynth_ns = 0, analyze_gbps = 0;
};

// Median over batches of one kernel call on kMaxLinesPerCall lines of
// `out_len` output pairs; returns ns per produced sample.
double ns_per_sample(Tracer* t, const char* name, int samples_per_call,
                     const std::function<void()>& call) {
  constexpr int kBatches = 15;
  int calls = 1;
  for (;;) {  // size a batch to about 0.5 ms
    const double s = cpu_s();
    for (int i = 0; i < calls; ++i) call();
    if (cpu_s() - s > 5e-4 || calls >= (1 << 20)) break;
    calls *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const double s = timed(t, name, -1, [&] {
      for (int i = 0; i < calls; ++i) call();
    });
    per.push_back(s * 1e9 / (static_cast<double>(calls) * samples_per_call));
  }
  return median(per);
}

KernelTimes time_kernels(Tracer* t, const char* tag, int line_len,
                         const vf::dwt::FilterBank& bank) {
  const vf::simd::KernelSet& k = vf::simd::active_kernels();
  constexpr int L = vf::simd::kMaxLinesPerCall;
  const int out_len = line_len / 2;
  const int taps = bank.taps();
  const int stride = line_len + std::max(taps, bank.synth_taps()) + 16;
  vf::Rng rng(0xbe7c4ull + static_cast<unsigned>(line_len));
  auto buf = [&](bool random) {
    std::vector<float> v(static_cast<std::size_t>(L * stride));
    if (random) {
      for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
    }
    return v;
  };
  std::vector<float> xr = buf(true), xi = buf(true), ma = buf(true), mb = buf(true);
  std::vector<float> lb = buf(true), hb = buf(true);
  std::vector<float> lo = buf(false), hi = buf(false), lo2 = buf(false),
                     hi2 = buf(false), m1 = buf(false), m2 = buf(false),
                     out = buf(false);
  const std::string p = std::string("simd.");
  KernelTimes kt;
  const int samples = L * line_len;  // outputs per call: lo+hi, or 2*pairs
  kt.analyze_ns = ns_per_sample(t, (p + "analyze_ml." + tag).c_str(), samples, [&] {
    k.analyze_ml(xr.data(), stride, L, out_len, bank.lp.data(), bank.hp.data(),
                 taps, lo.data(), hi.data(), stride);
  });
  // Computed bytes moved per call: extended inputs read, lo+hi written.
  const double bytes = static_cast<double>(L) * (line_len + taps + line_len) * 4.0;
  kt.analyze_gbps = bytes / (kt.analyze_ns * samples);
  kt.synth_ns = ns_per_sample(t, (p + "synthesize_ml." + tag).c_str(), samples, [&] {
    k.synthesize_ml(xr.data(), stride, L, out_len, bank.ca.data(), bank.cb.data(),
                    bank.synth_taps(), out.data(), stride);
  });
  kt.amag_ns = ns_per_sample(t, (p + "analyze_mag_ml." + tag).c_str(), samples, [&] {
    k.analyze_mag_ml(xr.data(), xi.data(), stride, L, out_len, bank.lp.data(),
                     bank.hp.data(), bank.lp.data(), bank.hp.data(), taps,
                     lo.data(), hi.data(), lo2.data(), hi2.data(), m1.data(),
                     m2.data(), stride);
  });
  kt.ssynth_ns = ns_per_sample(t, (p + "select_synth_ml." + tag).c_str(), samples, [&] {
    k.select_synth_ml(lo.data(), lb.data(), ma.data(), mb.data(), hi.data(),
                      hb.data(), mb.data(), ma.data(), stride, L, out_len,
                      bank.ca.data(), bank.cb.data(), bank.synth_taps(),
                      bank.synthesis_offset, out.data(), stride);
  });
  return kt;
}

// An empty parallel_for round trip at the workload's width, in process CPU
// time: the caller's submit and join plus whatever the woken workers burn.
double fork_join_us(Tracer* t, int width) {
  vf::ThreadPool* pool = vf::host::pool(vf::HostConfig{width});
  const std::function<void(int, int)> noop = [](int, int) {};
  constexpr int kRoundTrips = 1000;
  std::vector<double> per;
  for (int b = 0; b < 15; ++b) {
    const double s = timed(t, "pool.fork_join", -1, [&] {
      for (int i = 0; i < kRoundTrips; ++i) vf::parallel_chunks(pool, 0, width, noop);
    });
    per.push_back(s * 1e6 / kRoundTrips);
  }
  return median(per);
}

// --- one repetition -----------------------------------------------------------------

struct Rep {
  double untraced = 0, traced = 0;       // whole operation
  double fusion = 0, fusion_w1 = 0;      // FusionPlan::run, all pairs
  double fusion_wall = 0, fusion_w1_wall = 0;
  double pass1_off = 0, pass1_on = 0;    // run_frame_pair, capture off / on
  double capture_pair = 0;               // fleet: capture on minus off, back to back
  double schedule = 0, replay = 0;       // legacy pass 2 / streaming replay
  double fleet_self = 0;
};

struct Counts {
  double macs = 0, lines = 0;
  double driver_calls = 0, chain_heads = 0, accel_lines = 0;
  double events = 0, stream_ops = 0;
  Occupancy occ;
  double serial_total_s = 0;
  bool reconstruction_exact = true;
};

class Traced {
 public:
  Traced(const Workload& w, std::uint64_t seed, Tracer* t)
      : w_(w),
        t_(t),
        width_(pool_width(w)),
        config_(run_config(w, width_)),
        frames_(make_frames(seed, w.rows, w.cols, w.window)),
        streams_(w.streams > 0 ? fleet_streams(w, seed)
                               : std::vector<sched::StreamConfig>{}),
        path_frames_(fleet() ? sched::make_sweep_frames(config_.frame_size, w.window)
                             : frames_),
        op_{&w, width_, streams_} {}

  const std::vector<FramePair>& frames() const { return frames_; }
  const Operation& operation() const { return op_; }
  int width() const { return width_; }
  bool fleet() const { return w_.streams > 0; }

  // FusionPlan::run through a plain filter over every pair the operation
  // fuses (every stream of a fleet fuses the same frames).
  // Returns CPU seconds; adds wall seconds to *wall.
  double fusion(int op, int width, Counts* counts, double* wall) {
    vf::dwt::SimdLineFilter filter(vf::HostConfig{width});
    const int copies = fleet() ? w_.streams : 1;
    double s = 0.0;
    for (int c = 0; c < copies; ++c) {
      for (const FramePair& pair : path_frames_) {
        filter.reset_stats();
        s += timed(t_, width == 1 ? "fusion.w1" : "fusion", op, [&] {
          const vf::dwt::FusionPlan plan(pair.visible.rows(), pair.visible.cols(),
                                         config_.fuse.transform);
          plan.run(pair.visible, pair.thermal, filter);
        });
        *wall += t_->spans().back().end - t_->spans().back().start;
      }
    }
    if (counts) {
      counts->macs = static_cast<double>(filter.stats().total_macs());
      counts->lines = static_cast<double>(filter.stats().analysis_lines +
                                          filter.stats().synthesis_lines);
    }
    return s;
  }

  // The operation rebuilt from its layer calls, under a root span.
  void traced_op(int op, Rep* rep, Counts* counts,
                 const sched::PipelineRunResult* want_pipe,
                 const sched::FleetResult* want_fleet) {
    const int root = t_->begin("op", op);
    if (!fleet()) {
      const Pass1 p = run_pass1(sched::BackendKind::kFpgaBatched, config_, frames_,
                                /*capture=*/false, t_, op, "sched.account");
      rep->pass1_off = p.seconds;
      const std::vector<sched::detail::FleetStreamInput> in =
          legacy_inputs({&p}, {std::vector<SimDuration>(p.cost.size())});
      sched::detail::FleetSchedule s;
      vf::sched::detail::FleetEnergy e;
      rep->schedule = timed(t_, "sched.pipeline", op, [&] {
        s = legacy_schedule(in);
        e = sched::detail::integrate_fleet_energy(s.timeline, s.engines, p.mode);
      });
      counts->driver_calls = static_cast<double>(p.driver_calls);
      counts->chain_heads = static_cast<double>(p.chain_heads);
      counts->accel_lines = static_cast<double>(p.lines);
      counts->occ = occupancy(s);
      counts->events = counts->occ.events;
      counts->serial_total_s = p.serial_total.sec();
      counts->reconstruction_exact =
          want_pipe && s.timeline.makespan() == want_pipe->makespan &&
          e.loaded_mj == want_pipe->energy_mj;
    } else {
      std::vector<Pass1> passes;
      std::vector<std::vector<StreamOp>> spill_ops;
      double fleet_s = 0.0;  // run_fleet's own work outside pass 1 and replay
      for (const sched::StreamConfig& sc : streams_) {
        // run_fleet generates each stream's frames itself.
        std::vector<FramePair> fresh;
        fleet_s += timed(t_, "fleet.make_frames", op, [&] {
          fresh = sched::make_sweep_frames(sc.run.frame_size, sc.run.frames);
        });
        passes.push_back(run_pass1(sc.backend, sc.run, fresh,
                                   /*capture=*/true, t_, op, "sched.account"));
        // run_fleet's NEON spill probe: one frame on the NEON cost model.
        sched::RunConfig neon = sc.run;
        fleet_s += timed(t_, "fleet.spill_probe", op, [&] {
          const std::unique_ptr<sched::TransformBackend> b =
              sched::make_backend(sched::BackendKind::kNeon, neon);
          sched::TimedFusionRunner runner(*b, neon.fuse);
          spill_ops.push_back(sched::detail::stage_cost_ops(split_stage_costs(
              runner.run_frame_pair(fresh[0].visible, fresh[0].thermal))));
        });
      }
      for (const Pass1& p : passes) {
        for (const auto& f : p.ops) counts->stream_ops += static_cast<double>(f.size());
      }
      // run_fleet's glue: assembling the replay's per-stream inputs.
      std::vector<sched::detail::StreamingStreamInput> in;
      fleet_s += timed(t_, "fleet.inputs", op, [&] {
        in = streaming_inputs(&passes, spill_ops);
      });
      sched::detail::FleetSchedule s;
      rep->replay = timed(t_, "streaming.replay", op, [&] {
        s = streaming_schedule(in);
      });
      vf::sched::detail::FleetEnergy e;
      fleet_s += timed(t_, "fleet.energy", op, [&] {
        std::vector<vf::ResourceId> pl = s.engines;
        pl.insert(pl.end(), s.dmas.begin(), s.dmas.end());
        e = sched::detail::integrate_fleet_energy(s.timeline, pl, passes[0].mode);
      });
      for (const Pass1& p : passes) {
        rep->pass1_on += p.seconds;
        counts->driver_calls += static_cast<double>(p.driver_calls);
        counts->chain_heads += static_cast<double>(p.chain_heads);
        counts->accel_lines += static_cast<double>(p.lines);
        counts->serial_total_s += p.serial_total.sec();
      }
      counts->occ = occupancy(s);
      counts->events = counts->occ.events;
      counts->reconstruction_exact =
          want_fleet && s.timeline.makespan() == want_fleet->makespan &&
          e.loaded_mj == want_fleet->energy_mj;
      rep->fleet_self = fleet_s;
    }
    // The root's own time (cost splitting, input assembly on the single-
    // camera path, freeing buffers) is left unattributed.
    rep->traced = t_->end(root);
  }

  // Probes for the layers the rebuilt operation does not isolate.
  void probes(int op, Rep* rep, Counts* counts) {
    rep->fusion = fusion(op, width_, counts, &rep->fusion_wall);
    rep->fusion_w1 = fusion(op, 1, nullptr, &rep->fusion_w1_wall);
    if (!fleet()) {
      // Stream capture and the streaming replay on this window.
      std::vector<Pass1> passes;
      passes.push_back(run_pass1(sched::BackendKind::kFpgaBatched, config_, frames_,
                                 /*capture=*/true, t_, op, "probe.pass1_capture"));
      rep->pass1_on = passes[0].seconds;
      for (const auto& f : passes[0].ops) {
        counts->stream_ops += static_cast<double>(f.size());
      }
      const std::vector<sched::detail::StreamingStreamInput> in =
          streaming_inputs(&passes, {});
      rep->replay = timed(t_, "streaming.replay", op, [&] { streaming_schedule(in); });
      // run_fleet's own work: a one-stream batch-mode fleet over the same
      // window is run_pipelined's schedule, so it minus the parts is fleet.
      sched::StreamConfig one;
      one.run = config_;
      one.queue_depth = 0;
      sched::FleetConfig fc;
      fc.pipeline_depth = config_.pipeline_depth;
      const double whole = timed(t_, "probe.run_fleet", op, [&] {
        sched::run_fleet({one}, fc);
      });
      rep->fleet_self = whole - rep->pass1_off - rep->schedule;
    } else {
      // Pass 1 without capture, and the legacy stage-granular schedule.
      // Each stream's pass 1 also runs with capture on right beside it, in
      // alternating order, so the capture cost is a difference of two
      // neighbouring measurements.
      std::vector<Pass1> passes;
      std::vector<const Pass1*> ptrs;
      std::vector<std::vector<SimDuration>> arr;
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        const sched::StreamConfig& sc = streams_[s];
        auto with_capture = [&] {
          return run_pass1(sc.backend, sc.run, path_frames_, /*capture=*/true, t_, op,
                           "probe.pass1_capture")
              .seconds;
        };
        const bool capture_first = (op + static_cast<int>(s)) % 2 == 0;
        const double on_before = capture_first ? with_capture() : 0.0;
        passes.push_back(run_pass1(sc.backend, sc.run, path_frames_,
                                   /*capture=*/false, t_, op, "probe.pass1_nocapture"));
        const double on = capture_first ? on_before : with_capture();
        rep->pass1_off += passes.back().seconds;
        rep->capture_pair += on - passes.back().seconds;
        arr.push_back(arrivals(sc, s));
      }
      for (const Pass1& p : passes) ptrs.push_back(&p);
      const std::vector<sched::detail::FleetStreamInput> in = legacy_inputs(ptrs, arr);
      rep->schedule = timed(t_, "sched.pipeline", op, [&] {
        const sched::detail::FleetSchedule s = legacy_schedule(in);
        sched::detail::integrate_fleet_energy(s.timeline, s.engines, passes[0].mode);
      });
    }
  }

 private:
  // Scheduler inputs are built outside the timed spans: the spans time the
  // scheduler calls themselves.
  std::vector<sched::detail::FleetStreamInput> legacy_inputs(
      const std::vector<const Pass1*>& passes,
      const std::vector<std::vector<SimDuration>>& arr) const {
    std::vector<sched::detail::FleetStreamInput> in;
    for (std::size_t s = 0; s < passes.size(); ++s) {
      sched::detail::FleetStreamInput i;
      i.arrivals = arr[s];
      i.cost = passes[s]->cost;
      if (fleet()) {
        i.period = SimDuration::seconds(1.0 / streams_[s].arrival.fps);
        i.queue_depth = streams_[s].queue_depth;
        i.home_engine = static_cast<int>(s);
      }
      in.push_back(std::move(i));
    }
    return in;
  }

  sched::detail::FleetSchedule legacy_schedule(
      const std::vector<sched::detail::FleetStreamInput>& in) const {
    if (!fleet()) {
      return sched::detail::schedule_fleet(in, 1, 1, config_.pipeline_depth, true, 0.0);
    }
    const sched::FleetConfig fc = fleet_config();
    return sched::detail::schedule_fleet(in, fc.cores, fc.engines, fc.pipeline_depth,
                                         fc.steal_engines, 0.0);
  }

  // Moves the captured ops out of `passes`.
  std::vector<sched::detail::StreamingStreamInput> streaming_inputs(
      std::vector<Pass1>* passes,
      const std::vector<std::vector<StreamOp>>& spill_ops) const {
    std::vector<sched::detail::StreamingStreamInput> in;
    for (std::size_t s = 0; s < passes->size(); ++s) {
      const sched::RunConfig& rc = fleet() ? streams_[s].run : config_;
      sched::detail::StreamingStreamInput i;
      i.frame_ops = std::move((*passes)[s].ops);
      i.engine = rc.engine;
      i.costs = rc.driver_costs;
      i.sg_chain_len = rc.batching.sg_chain_len;
      if (fleet()) {
        i.arrivals = arrivals(streams_[s], s);
        i.period = SimDuration::seconds(1.0 / streams_[s].arrival.fps);
        i.queue_depth = streams_[s].queue_depth;
        i.home_engine = static_cast<int>(s);
        i.spill_ops.assign(i.frame_ops.size(), spill_ops[s]);
      } else {
        i.arrivals.assign(i.frame_ops.size(), SimDuration::zero());
      }
      in.push_back(std::move(i));
    }
    return in;
  }

  sched::detail::FleetSchedule streaming_schedule(
      const std::vector<sched::detail::StreamingStreamInput>& in) const {
    if (!fleet()) {
      return sched::detail::schedule_streaming(in, 1, 1, config_.pipeline_depth,
                                               true, 0.0);
    }
    const sched::FleetConfig fc = fleet_config();
    return sched::detail::schedule_streaming(in, fc.cores, fc.engines,
                                             fc.pipeline_depth, fc.steal_engines,
                                             fc.spill_wait_frac);
  }

  const Workload& w_;
  Tracer* t_;
  int width_;
  sched::RunConfig config_;
  std::vector<FramePair> frames_;
  std::vector<sched::StreamConfig> streams_;
  // The frames the operation fuses: run_fleet generates its own with
  // make_sweep_frames, so the fleet probes fuse those (the rebuilt fleet
  // operation generates them per stream, as run_fleet does); a single
  // camera fuses the seeded frames.
  std::vector<FramePair> path_frames_;
  Operation op_;
};

}  // namespace

std::string check_balance(const LayerBalance& b) {
  char buf[200];
  if (!b.rebuilt_exact) {
    return "the operation rebuilt from layer calls does not reproduce the "
           "real one's modeled makespan and energy";
  }
  for (const auto& layer : b.path_us) {
    if (!(layer.second >= 0.0)) {
      std::snprintf(buf, sizeof(buf), "layer %s has a negative self time (%.3f us/frame)",
                    layer.first.c_str(), layer.second);
      return buf;
    }
  }
  if (!(b.op_us > 0.0) || !(std::fabs(b.residual_us) <= kReconcileTolerance * b.op_us)) {
    std::snprintf(buf, sizeof(buf),
                  "residual %.3f us/frame is beyond %.0f%% of the %.3f us/frame operation",
                  b.residual_us, 100.0 * kReconcileTolerance, b.op_us);
    return buf;
  }
  return "";
}

int Tracer::begin(std::string name, int op) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  open_cpu_.push_back(cpu_s());
  spans_.back().start = now_s();
  return open_.back();
}

double Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  s.cpu = cpu_s() - open_cpu_.back();
  open_.pop_back();
  open_cpu_.pop_back();
  return s.cpu;
}

vf::json::Value Tracer::to_json() const {
  vf::json::Value out = vf::json::Value::array();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    out.push(vf::json::Value::object()
                 .set("name", s.name)
                 .set("start_us", (s.start - t0) * 1e6)
                 .set("end_us", (s.end - t0) * 1e6)
                 .set("cpu_us", s.cpu * 1e6)
                 .set("parent", s.parent)
                 .set("op", s.op));
  }
  return out;
}

LayerReport run_traced(const Workload& w, std::uint64_t seed, double seconds,
                       Tracer* tracer) {
  Traced tr(w, seed, tracer);
  const double frames_per_op = w.window * (w.streams > 0 ? w.streams : 1);
  const int width = tr.width();
  LayerReport report;

  // Run-level probes: kernels at the level-0 and deepest line lengths, and
  // an empty fork/join at the workload's width.
  const vf::dwt::TransformConfig transform = run_config(w, width).fuse.transform;
  int len = w.cols + (w.cols & 1);
  int deep = len;
  for (int l = 1; l < transform.levels; ++l) {
    deep = deep / 2;
    deep += deep & 1;
  }
  const KernelTimes k0 = time_kernels(
      tracer, "l0", len, vf::dwt::detail::bank_for_level(transform, 0, 0));
  const KernelTimes kd = time_kernels(
      tracer, "deep", deep,
      vf::dwt::detail::bank_for_level(transform, transform.levels - 1, 0));
  const double fork_join = fork_join_us(tracer, width);

  // Oracle references, as in the timed run.
  Operation serial = tr.operation();
  serial.width = 1;
  const Modeled want = serial.run(tr.frames());
  std::vector<ImageF> want_fused;
  for (const FramePair& pair : tr.frames()) want_fused.push_back(reference_fuse(pair));

  std::vector<Rep> reps;
  Counts counts;
  bool exact = true;
  const double start = now_s();
  for (int op = 0;; ++op) {
    const double elapsed = now_s() - start;
    if ((elapsed >= seconds && op >= kMinReps) || elapsed >= kRepCapS) break;
    Rep rep;
    Counts c;
    // Untraced operation, checked like every timed one.
    sched::PipelineRunResult pipe;
    sched::FleetResult fleet;
    const double t = cpu_s();
    Modeled got;
    if (w.streams == 0) {
      const sched::RunConfig config = run_config(w, width);
      const std::unique_ptr<sched::TransformBackend> b =
          sched::make_backend(sched::BackendKind::kFpgaBatched, config);
      pipe = sched::run_pipelined(*b, tr.frames(), config);
      rep.untraced = cpu_s() - t;
      got = modeled_fields(pipe);
    } else {
      fleet = sched::run_fleet(tr.operation().streams, fleet_config());
      rep.untraced = cpu_s() - t;
      got = modeled_fields(fleet);
    }
    ++report.attempted;
    const int f = op % w.window;
    std::string why = diff_modeled(got, want);
    if (why.empty()) {
      why = diff_images(backend_fuse(w, width, tr.frames()[static_cast<std::size_t>(f)]),
                        want_fused[static_cast<std::size_t>(f)]);
    }
    if (!why.empty()) {
      ++report.failed;
      report.lines.push_back("FAILED operation " + std::to_string(op) + ": " + why);
    }

    tr.traced_op(op, &rep, &c, w.streams == 0 ? &pipe : nullptr,
                 w.streams > 0 ? &fleet : nullptr);
    tr.probes(op, &rep, &c);
    exact = exact && c.reconstruction_exact;
    counts = c;
    reps.push_back(rep);
  }

  // Per-repetition self times (seconds per operation) and their medians.
  const bool on_fleet = w.streams > 0;
  auto med = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return median(v);
  };
  // A fleet's pass 1 runs with capture on: its capture cost is the paired
  // probe, and accounting is the rest of pass 1 beyond fusion. A single
  // camera's pass 1 runs with capture off.
  auto capture = [&](const Rep& r) {
    return on_fleet ? r.capture_pair : r.pass1_on - r.pass1_off;
  };
  auto account = [&](const Rep& r) {
    return on_fleet ? r.pass1_on - capture(r) - r.fusion : r.pass1_off - r.fusion;
  };
  auto path_sum = [&](const Rep& r) {
    return on_fleet ? r.fusion + account(r) + capture(r) + r.replay + r.fleet_self
                    : r.fusion + account(r) + r.schedule;
  };
  const double us = 1e6 / frames_per_op;
  const double op_us = med([](const Rep& r) { return r.untraced; }) * us;
  const double residual_us = med([&](const Rep& r) { return r.untraced - path_sum(r); }) * us;
  const double overhead_us = med([](const Rep& r) { return r.traced - r.untraced; }) * us;
  const double plan_us = med([](const Rep& r) { return r.fusion; }) * us;
  const double plan_w1_us = med([](const Rep& r) { return r.fusion_w1; }) * us;
  const Occupancy& o = counts.occ;

  auto add = [&](const std::string& name, double value, const char* unit) {
    report.metrics.push_back({name, {value, unit}});
  };
  add("simd.analyze_ml.l0.ns_per_sample", k0.analyze_ns, "ns");
  add("simd.analyze_ml.deep.ns_per_sample", kd.analyze_ns, "ns");
  add("simd.synthesize_ml.l0.ns_per_sample", k0.synth_ns, "ns");
  add("simd.synthesize_ml.deep.ns_per_sample", kd.synth_ns, "ns");
  add("simd.analyze_mag_ml.l0.ns_per_sample", k0.amag_ns, "ns");
  add("simd.analyze_mag_ml.deep.ns_per_sample", kd.amag_ns, "ns");
  add("simd.select_synth_ml.l0.ns_per_sample", k0.ssynth_ns, "ns");
  add("simd.select_synth_ml.deep.ns_per_sample", kd.ssynth_ns, "ns");
  add("simd.analyze_ml.l0.gbps", k0.analyze_gbps, "GB/s");
  add("simd.analyze_ml.deep.gbps", kd.analyze_gbps, "GB/s");
  add("fusion.plan_us_per_pair", plan_us, "us");
  add("fusion.plan_us_per_pair_w1", plan_w1_us, "us");
  // Speedup is a wall-clock ratio: CPU time cannot show parallelism.
  add("fusion.parallel_speedup",
      med([](const Rep& r) { return r.fusion_w1_wall / r.fusion_wall; }), "x");
  add("fusion.macs_per_pair", counts.macs, "count");
  add("fusion.lines_per_pair", counts.lines, "count");
  add("arena.bytes", static_cast<double>(vf::thread_arena().bytes_reserved()), "B");
  add("pool.fork_join_us", fork_join, "us");
  add("sched.account_us_per_pair", med(account) * us, "us");
  add("sched.driver_calls_per_frame", counts.driver_calls / frames_per_op, "count");
  add("sched.chain_heads_per_frame", counts.chain_heads / frames_per_op, "count");
  add("sched.lines_per_frame", counts.accel_lines / frames_per_op, "count");
  add("sched.schedule_us_per_frame", med([](const Rep& r) { return r.schedule; }) * us,
      "us");
  add("sched.events_per_frame", counts.events / frames_per_op, "count");
  add("streaming.capture_us_per_frame", med(capture) * us, "us");
  add("streaming.replay_us_per_frame", med([](const Rep& r) { return r.replay; }) * us,
      "us");
  add("streaming.ops_per_frame", counts.stream_ops / frames_per_op, "count");
  add("fleet.self_us_per_frame", med([](const Rep& r) { return r.fleet_self; }) * us,
      "us");
  add("model.ps_busy_frac", o.ps_busy_s / (o.cores * o.makespan_s), "frac");
  add("model.pl_busy_frac", o.pl_busy_s / (o.engines * o.makespan_s), "frac");
  add("model.spilled_frac",
      o.completed > 0 ? static_cast<double>(o.spilled) / o.completed : 0.0, "frac");
  add("model.serial_over_makespan", counts.serial_total_s / o.makespan_s, "x");
  add("unattributed_us_per_frame", residual_us, "us");
  add("trace.op_us_per_frame", op_us, "us");
  add("trace.overhead_us_per_frame", overhead_us, "us");
  add("trace.residual_frac", residual_us / op_us, "frac");

  char line[200];
  std::snprintf(line, sizeof(line),
                "traced %s: %zu repetitions, width %d, %.0f frame pairs per operation",
                w.name, reps.size(), width, frames_per_op);
  report.lines.push_back(line);
  for (const auto& m : report.metrics) {
    std::snprintf(line, sizeof(line), "  %-42s %16.6f %s", m.first.c_str(),
                  m.second.first, m.second.second.c_str());
    report.lines.push_back(line);
  }
  LayerBalance balance;
  balance.op_us = op_us;
  balance.residual_us = residual_us;
  balance.rebuilt_exact = exact;
  balance.path_us = {{"fusion", plan_us}, {"sched.account", med(account) * us}};
  if (on_fleet) {
    balance.path_us.push_back({"streaming.capture", med(capture) * us});
    balance.path_us.push_back(
        {"streaming.replay", med([](const Rep& r) { return r.replay; }) * us});
    balance.path_us.push_back(
        {"fleet", med([](const Rep& r) { return r.fleet_self; }) * us});
  } else {
    balance.path_us.push_back(
        {"sched.pipeline", med([](const Rep& r) { return r.schedule; }) * us});
  }
  const std::string why = check_balance(balance);
  std::snprintf(line, sizeof(line),
                "reconciliation: untraced %.2f us/frame, layers on the path "
                "%.2f, residual %.2f (%.1f%%, tolerance %.0f%%)",
                op_us, op_us - residual_us, residual_us, 100.0 * residual_us / op_us,
                100.0 * kReconcileTolerance);
  report.lines.push_back(line);
  std::snprintf(line, sizeof(line), "tracing overhead: %.2f us/frame (%.1f%% of the op)",
                overhead_us, 100.0 * overhead_us / op_us);
  report.lines.push_back(line);
  report.lines.push_back(std::string("rebuilt operation matches the real one bit for bit: ") +
                         (exact ? "yes" : "NO"));
  if (!why.empty()) report.lines.push_back("FAILED layer balance: " + why);
  report.correct = report.failed == 0 && why.empty();
  return report;
}

}  // namespace perfbench
