// Workload definitions, the closed-loop operation, and the correctness
// oracle.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/fusion/fuse.h"

namespace perfbench {

namespace {

using vf::sched::BackendKind;

constexpr double kCameraFps = 30.0;
constexpr double kJitterFrac = 0.2;

// large_640x480 guards intra-frame parallelism. It is run by hand and is not
// among BENCHMARK.json's workloads: a third workload would cut every run to
// 40 s or less to fit the benchmark's time budget, leaving too few blocks
// per run (see run_timed) to ride out a disturbed stretch of a shared
// machine, in which the p90 at pool width 4 can triple.
//
// paper_88x72 runs at pool width 2, not 4. At 88x72 a frame is hundreds of
// short parallel_for rounds, and each round waits for its slowest worker. On
// a shared 4-vCPU machine a width-4 pool needs every vCPU at once, so a
// neighbour busy on any one of them stretches every round, and whole runs
// came out 1.6x slower than others. Width 2 still pays the fork/join cost
// (about 1.5x slower than width 1 on a 4-vCPU KVM Xeon) but leaves two vCPUs
// spare.
const Workload kWorkloads[] = {
    // name            rows cols window streams max_width
    {"paper_88x72", 72, 88, 64, 0, 2},
    {"large_640x480", 480, 640, 8, 0, 4},
    {"fleet_32x24", 24, 32, 32, 8, 1},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int pool_width(const Workload& w) {
  return std::min(w.max_width, vf::host::hardware_threads());
}

vf::sched::RunConfig run_config(const Workload& w, int width) {
  vf::sched::RunConfig c;
  c.frame_size = {w.cols, w.rows};
  c.frames = w.window;
  c.host.threads = width;
  c.pipeline_depth = 4;
  if (w.streams > 0) {
    c.batching.sg_chain_len = 8;
    c.cross_frame = true;
  }
  return c;
}

std::vector<vf::sched::StreamConfig> fleet_streams(const Workload& w,
                                                   std::uint64_t seed) {
  const std::vector<double> offsets =
      make_phase_offsets(seed, w.streams, 1.0 / kCameraFps);
  std::vector<vf::sched::StreamConfig> streams;
  for (const double offset : offsets) {
    vf::sched::StreamConfig s;
    s.backend = BackendKind::kFpgaBatched;
    s.run = run_config(w, 1);
    s.arrival.fps = kCameraFps;
    s.arrival.jitter_frac = kJitterFrac;
    s.arrival.offset = vf::SimDuration::seconds(offset);
    s.queue_depth = 4;
    streams.push_back(s);
  }
  return streams;
}

vf::sched::FleetConfig fleet_config() {
  vf::sched::FleetConfig f;
  f.engines = 2;
  f.cores = 2;
  f.pipeline_depth = 4;
  f.steal_engines = true;
  f.spill_wait_frac = 0.5;
  f.fixed_point_engines = true;  // the float datapath fits the part once
  f.cross_frame = true;
  return f;
}

Modeled modeled_fields(const vf::sched::PipelineRunResult& r) {
  return {{"frames", r.frames},
          {"serial_total_s", r.serial_total.sec()},
          {"makespan_s", r.makespan.sec()},
          {"ps_busy_s", r.ps_busy.sec()},
          {"pl_busy_s", r.pl_busy.sec()},
          {"sustained_fps", r.sustained_fps},
          {"energy_mj", r.energy_mj},
          {"energy_gated_mj", r.energy_gated_mj}};
}

Modeled modeled_fields(const vf::sched::FleetResult& r) {
  Modeled m = {{"makespan_s", r.makespan.sec()},
               {"arrived", r.arrived},
               {"admitted", r.admitted},
               {"dropped", r.dropped},
               {"completed", r.completed},
               {"ps_busy_s", r.ps_busy.sec()},
               {"pl_busy_s", r.pl_busy.sec()},
               {"energy_mj", r.energy_mj},
               {"energy_gated_mj", r.energy_gated_mj}};
  for (std::size_t s = 0; s < r.streams.size(); ++s) {
    const vf::sched::StreamStats& st = r.streams[s];
    const std::string p = "stream" + std::to_string(s) + ".";
    m.push_back({p + "completed", st.completed});
    m.push_back({p + "dropped", st.dropped});
    m.push_back({p + "spilled", st.spilled});
    m.push_back({p + "p50_s", st.p50_latency.sec()});
    m.push_back({p + "p99_s", st.p99_latency.sec()});
    m.push_back({p + "max_s", st.max_latency.sec()});
    m.push_back({p + "last_completion_s", st.last_completion.sec()});
    m.push_back({p + "energy_mj", st.energy_mj});
  }
  return m;
}

Modeled Operation::run(const std::vector<FramePair>& frames,
                       ModeledSummary* summary) const {
  if (w->streams == 0) {
    const vf::sched::RunConfig config = run_config(*w, width);
    const std::unique_ptr<vf::sched::TransformBackend> backend =
        vf::sched::make_backend(BackendKind::kFpgaBatched, config);
    const vf::sched::PipelineRunResult r =
        vf::sched::run_pipelined(*backend, frames, config);
    if (summary) {
      summary->fps = r.sustained_fps;
      summary->mj_per_frame = r.energy_per_frame_mj();
      // Every frame of the window arrives at t=0, so latency from arrival is
      // the completion time, and the nearest-rank p99 of at most 100 frames
      // is the last completion: the makespan.
      summary->p99_ms = r.makespan.ms();
      summary->served_frac =
          static_cast<double>(r.frames) / static_cast<double>(frames.size());
    }
    return modeled_fields(r);
  }
  const vf::sched::FleetResult r = vf::sched::run_fleet(streams, fleet_config());
  if (summary) {
    summary->fps = r.completed / r.makespan.sec();
    summary->mj_per_frame = r.energy_per_frame_mj();
    double p99 = 0.0;
    for (const vf::sched::StreamStats& s : r.streams) {
      p99 = std::max(p99, s.p99_latency.ms());
    }
    summary->p99_ms = p99;
    summary->served_frac =
        static_cast<double>(r.completed) / static_cast<double>(r.arrived);
  }
  return modeled_fields(r);
}

ImageF reference_fuse(const FramePair& pair) {
  const vf::dwt::TransformConfig transform = vf::sched::RunConfig{}.fuse.transform;
  vf::dwt::ScalarLineFilter filter;  // scalar kernels, no pool
  const vf::dwt::DtcwtPyramid a = vf::dwt::forward_dtcwt(pair.visible, transform, filter);
  const vf::dwt::DtcwtPyramid b = vf::dwt::forward_dtcwt(pair.thermal, transform, filter);
  vf::dwt::DtcwtPyramid fused;
  vf::fusion::fuse_pyramids(a, b, &fused, filter);
  return vf::dwt::inverse_dtcwt(fused, transform, filter);
}

ImageF backend_fuse(const Workload& w, int width, const FramePair& pair) {
  const vf::sched::RunConfig config = run_config(w, width);
  const std::unique_ptr<vf::sched::TransformBackend> backend =
      vf::sched::make_backend(BackendKind::kFpgaBatched, config);
  vf::sched::TimedFusionRunner runner(*backend, config.fuse);
  return runner.run_frame_pair(pair.visible, pair.thermal).fused;
}

std::string diff_images(const ImageF& got, const ImageF& want) {
  char buf[160];
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    std::snprintf(buf, sizeof(buf), "fused shape %dx%d, reference %dx%d",
                  got.cols(), got.rows(), want.cols(), want.rows());
    return buf;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      std::snprintf(buf, sizeof(buf),
                    "fused pixel %zu is %.9g, reference %.9g", i,
                    static_cast<double>(got.data()[i]),
                    static_cast<double>(want.data()[i]));
      return buf;
    }
  }
  return "";
}

std::string diff_modeled(const Modeled& got, const Modeled& want) {
  if (got.size() != want.size()) {
    return "modeled field count " + std::to_string(got.size()) + ", reference " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        std::memcmp(&got[i].second, &want[i].second, sizeof(double)) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "modeled %s is %.17g, reference %.17g",
                    got[i].first.c_str(), got[i].second, want[i].second);
      return buf;
    }
  }
  return "";
}

}  // namespace perfbench
