// Modeled time on the simulated ZC702.
//
// Every duration the benches report is *modeled* target time derived from
// cycle counts and clock frequencies, never host wall-clock (DESIGN.md §2).
// SimDuration keeps that distinction visible in the type system.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace vf {

class SimDuration {
 public:
  constexpr SimDuration() = default;

  static constexpr SimDuration seconds(double s) { return SimDuration(s); }
  static constexpr SimDuration milliseconds(double ms) { return SimDuration(ms * 1e-3); }
  static constexpr SimDuration microseconds(double us) { return SimDuration(us * 1e-6); }
  static constexpr SimDuration zero() { return SimDuration(0.0); }

  constexpr double sec() const { return seconds_; }
  constexpr double ms() const { return seconds_ * 1e3; }
  constexpr double us() const { return seconds_ * 1e6; }
  constexpr double ns() const { return seconds_ * 1e9; }

  constexpr SimDuration operator+(SimDuration o) const {
    return SimDuration(seconds_ + o.seconds_);
  }
  constexpr SimDuration operator-(SimDuration o) const {
    return SimDuration(seconds_ - o.seconds_);
  }
  constexpr SimDuration operator*(double k) const { return SimDuration(seconds_ * k); }
  constexpr double operator/(SimDuration o) const { return seconds_ / o.seconds_; }
  SimDuration& operator+=(SimDuration o) {
    seconds_ += o.seconds_;
    return *this;
  }
  SimDuration& operator-=(SimDuration o) {
    seconds_ -= o.seconds_;
    return *this;
  }

  constexpr bool operator<(SimDuration o) const { return seconds_ < o.seconds_; }
  constexpr bool operator>(SimDuration o) const { return seconds_ > o.seconds_; }
  constexpr bool operator<=(SimDuration o) const { return seconds_ <= o.seconds_; }
  constexpr bool operator>=(SimDuration o) const { return seconds_ >= o.seconds_; }
  constexpr bool operator==(SimDuration o) const { return seconds_ == o.seconds_; }

  // Human-readable with an auto-selected unit: "1.234 s", "56.78 ms", ...
  std::string to_string() const {
    char buf[48];
    const double a = std::fabs(seconds_);
    if (a >= 1.0) {
      std::snprintf(buf, sizeof(buf), "%.3f s", seconds_);
    } else if (a >= 1e-3) {
      std::snprintf(buf, sizeof(buf), "%.2f ms", ms());
    } else if (a >= 1e-6) {
      std::snprintf(buf, sizeof(buf), "%.2f us", us());
    } else {
      std::snprintf(buf, sizeof(buf), "%.1f ns", ns());
    }
    return buf;
  }

 private:
  explicit constexpr SimDuration(double s) : seconds_(s) {}
  double seconds_ = 0.0;
};

inline SimDuration operator*(double k, SimDuration d) { return d * k; }

}  // namespace vf
