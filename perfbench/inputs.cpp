// Seeded inputs, the host clock and the benchmark's statistics helpers.
#include <algorithm>
#include <cmath>
#include <ctime>

#include "perfbench/perfbench.h"
#include "src/common/rng.h"

namespace perfbench {

namespace {

// splitmix64: expands one seed into independent, well-mixed stream seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int n = static_cast<int>(samples.size());
  int idx = static_cast<int>(std::ceil(q * n)) - 1;
  idx = std::clamp(idx, 0, n - 1);
  return samples[static_cast<std::size_t>(idx)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

FramePair make_frame(std::uint64_t seed, int rows, int cols, int f) {
  // Scene parameters depend on the seed only, so every frame of a stream
  // shows the same scene; noise and the target position depend on f.
  const std::uint64_t scene = mix(seed);
  vf::Rng param(scene);
  struct Grating {
    float fr, fc, phase, amp;
  };
  Grating g[3];
  for (Grating& k : g) {
    k.fr = param.next_float(0.05f, 0.9f);
    k.fc = param.next_float(0.05f, 0.9f);
    k.phase = param.next_float(0.0f, 6.2831853f);
    k.amp = param.next_float(0.03f, 0.09f);
  }
  const float block_r0 = param.next_float(0.1f, 0.5f) * rows;
  const float block_c0 = param.next_float(0.1f, 0.5f) * cols;
  const float block_r1 = block_r0 + param.next_float(0.2f, 0.4f) * rows;
  const float block_c1 = block_c0 + param.next_float(0.2f, 0.4f) * cols;
  const float edge_c = param.next_float(0.2f, 0.8f) * cols;
  // Hot target: start point and velocity (pixels per frame); it bounces off
  // the frame borders so it stays visible in long windows.
  const float t0r = param.next_float(0.2f, 0.8f) * rows;
  const float t0c = param.next_float(0.2f, 0.8f) * cols;
  const float vr = param.next_float(-0.03f, 0.03f) * rows;
  const float vc = param.next_float(-0.04f, 0.04f) * cols;
  const float sigma = param.next_float(0.03f, 0.07f) * static_cast<float>(rows + cols);
  auto bounce = [](float x, float len) {
    const float period = 2.0f * len;
    float m = std::fmod(x, period);
    if (m < 0.0f) m += period;
    return m < len ? m : period - m;
  };
  const float tr = bounce(t0r + vr * static_cast<float>(f), static_cast<float>(rows));
  const float tc = bounce(t0c + vc * static_cast<float>(f), static_cast<float>(cols));

  // Separable gratings: sin(fr*r + p) * cos(fc*c) per component, tabulated.
  std::vector<float> row_tab(static_cast<std::size_t>(3 * rows));
  std::vector<float> col_tab(static_cast<std::size_t>(3 * cols));
  for (int k = 0; k < 3; ++k) {
    for (int r = 0; r < rows; ++r) {
      row_tab[static_cast<std::size_t>(k * rows + r)] =
          g[k].amp * std::sin(g[k].fr * static_cast<float>(r) + g[k].phase);
    }
    for (int c = 0; c < cols; ++c) {
      col_tab[static_cast<std::size_t>(k * cols + c)] =
          std::cos(g[k].fc * static_cast<float>(c));
    }
  }

  vf::Rng noise(mix(scene ^ mix(static_cast<std::uint64_t>(f) + 1)));
  FramePair pair;
  pair.visible = ImageF(rows, cols);
  pair.thermal = ImageF(rows, cols);
  const float inv2s2 = 1.0f / (2.0f * sigma * sigma);
  for (int r = 0; r < rows; ++r) {
    float* vis = pair.visible.row(r);
    float* th = pair.thermal.row(r);
    const bool in_rows = r > block_r0 && r < block_r1;
    const float dr = static_cast<float>(r) - tr;
    for (int c = 0; c < cols; ++c) {
      float v = 0.3f + 0.3f * static_cast<float>(r) / static_cast<float>(rows);
      for (int k = 0; k < 3; ++k) {
        v += row_tab[static_cast<std::size_t>(k * rows + r)] *
             col_tab[static_cast<std::size_t>(k * cols + c)];
      }
      if (c < edge_c) v += 0.15f;
      if (in_rows && c > block_c0 && c < block_c1) v -= 0.2f;
      v += noise.next_float(-0.02f, 0.02f);
      vis[c] = v;

      const float dc = static_cast<float>(c) - tc;
      float t = 0.1f + 0.06f * static_cast<float>(c) / static_cast<float>(cols);
      if (c < edge_c) t += 0.03f;
      t += 0.75f * std::exp(-(dr * dr + dc * dc) * inv2s2);
      t += noise.next_float(-0.01f, 0.01f);
      th[c] = t;
    }
  }
  return pair;
}

std::vector<FramePair> make_frames(std::uint64_t seed, int rows, int cols,
                                   int count) {
  std::vector<FramePair> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int f = 0; f < count; ++f) frames.push_back(make_frame(seed, rows, cols, f));
  return frames;
}

std::vector<double> make_phase_offsets(std::uint64_t seed, int streams,
                                       double period_s) {
  // Camera s starts in slot s of `streams` evenly spaced slots of the frame
  // period, displaced by a seeded amount of up to half a percent of a slot
  // either way. The seed moves every phase, but no two cameras line up: with
  // freely drawn phases the worst stream's modeled p99 swung by 30% from
  // seed to seed, which would drown the metric it is meant to guard.
  std::vector<double> offsets;
  std::uint64_t state = mix(seed ^ 0x0ff5e7ull);
  for (int s = 0; s < streams; ++s) {
    state = mix(state);
    const double slot = s + 0.5 + 0.01 * (unit(state) - 0.5);
    offsets.push_back(slot * period_s / streams);
  }
  return offsets;
}

}  // namespace perfbench
