// The benchmark's own self-tests: the oracle must reject a one-bit change,
// inputs must be a pure function of the seed, the percentile helper must
// follow the nearest-rank rule, and the traced run's balance check must
// reject a perturbed report.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "perfbench/perfbench.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("self-test %-62s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

bool same_frames(const std::vector<FramePair>& a, const std::vector<FramePair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!diff_images(a[i].visible, b[i].visible).empty() ||
        !diff_images(a[i].thermal, b[i].thermal).empty()) {
      return false;
    }
  }
  return true;
}

std::size_t hottest(const ImageF& img) {
  return static_cast<std::size_t>(
      std::max_element(img.data(), img.data() + img.size()) - img.data());
}

}  // namespace

int run_self_tests() {
  failures = 0;

  // Nearest rank: the smallest sample with at least q*n samples at or below.
  const std::vector<double> ten = {10, 2, 8, 4, 6, 1, 9, 3, 7, 5};
  expect(percentile(ten, 0.5) == 5 && percentile(ten, 0.9) == 9 &&
             percentile(ten, 0.91) == 10 && percentile(ten, 0.1) == 1 &&
             percentile(ten, 1.0) == 10,
         "percentile: nearest rank on 1..10");
  expect(percentile({3, 1, 2}, 0.5) == 2 && percentile({3, 1, 2}, 0.99) == 3 &&
             percentile({4, 1, 3, 2}, 0.5) == 2 && percentile({7}, 0.9) == 7,
         "percentile: nearest rank on n = 1, 3, 4");
  expect(median({4, 1, 3, 2}) == 2.5 && median({3, 1, 2}) == 2,
         "median: mean of the middle pair for even n");

  // Inputs are a pure function of the seed.
  const Workload small{"selftest_32x24", 24, 32, 4, 0, 2};
  const std::vector<FramePair> a = make_frames(7, small.rows, small.cols, small.window);
  expect(same_frames(a, make_frames(7, small.rows, small.cols, small.window)),
         "inputs: same seed, identical frames");
  const std::vector<FramePair> b = make_frames(8, small.rows, small.cols, small.window);
  expect(!same_frames(a, b), "inputs: another seed, other frames");
  expect(hottest(a[0].thermal) != hottest(a[3].thermal),
         "inputs: the thermal hot target drifts between frames");
  const std::vector<double> p7 = make_phase_offsets(7, 8, 1.0 / 30);
  expect(p7 == make_phase_offsets(7, 8, 1.0 / 30) &&
             p7 != make_phase_offsets(8, 8, 1.0 / 30) &&
             std::all_of(p7.begin(), p7.end(),
                         [](double o) { return o >= 0.0 && o < 1.0 / 30; }),
         "inputs: camera phases repeat per seed, lie within one period");

  // The fused-bits oracle accepts the backend's frame and rejects any
  // single flipped bit, including the lowest mantissa bit.
  const ImageF want = reference_fuse(a[1]);
  const ImageF got = backend_fuse(small, 2, a[1]);
  expect(diff_images(got, want).empty(), "oracle: backend frame equals the reference");
  bool all_rejected = true;
  for (const int bit : {0, 22, 31}) {
    ImageF flipped = got;
    std::uint32_t word = 0;
    float* px = flipped.data() + flipped.size() / 2;
    std::memcpy(&word, px, sizeof(word));
    word ^= 1u << bit;
    std::memcpy(px, &word, sizeof(word));
    all_rejected = all_rejected && !diff_images(flipped, want).empty();
  }
  expect(all_rejected, "oracle: rejects one flipped bit of one fused pixel");

  // The modeled-field oracle: identical across pool widths and seeds
  // (accounting reads shapes, never pixel values), and a one-ulp change of
  // any single field is rejected.
  const Modeled m1 = Operation{&small, 1, {}}.run(a);
  expect(diff_modeled(Operation{&small, 2, {}}.run(a), m1).empty(),
         "oracle: modeled fields equal at pool width 1 and 2");
  expect(diff_modeled(Operation{&small, 1, {}}.run(b), m1).empty(),
         "oracle: modeled fields equal across input seeds");
  bool every_field = true;
  for (std::size_t i = 0; i < m1.size(); ++i) {
    Modeled nudged = m1;
    nudged[i].second = std::nextafter(nudged[i].second, 1e300);
    every_field = every_field && !diff_modeled(nudged, m1).empty();
  }
  expect(every_field, "oracle: rejects a one-ulp change of any modeled field");

  // The traced run's balance: a report that reconciles passes, and one
  // perturbed residual, negative self time or inexact rebuild fails it.
  LayerBalance balance;
  balance.op_us = 400.0;
  balance.path_us = {{"fusion", 150.0}, {"sched.account", 30.0}, {"streaming.replay", 190.0}};
  balance.residual_us = 30.0;
  balance.rebuilt_exact = true;
  expect(check_balance(balance).empty(), "balance: a reconciled report passes");
  LayerBalance off = balance;
  off.residual_us = (kReconcileTolerance + 0.01) * off.op_us;
  LayerBalance under = balance;
  under.residual_us = -off.residual_us;
  expect(!check_balance(off).empty() && !check_balance(under).empty(),
         "balance: a residual beyond the tolerance fails");
  LayerBalance negative = balance;
  negative.path_us[1].second = -1.0;
  expect(!check_balance(negative).empty(), "balance: a negative layer self time fails");
  LayerBalance inexact = balance;
  inexact.rebuilt_exact = false;
  expect(!check_balance(inexact).empty(), "balance: an inexact rebuilt operation fails");

  return failures;
}

}  // namespace perfbench
