#ifndef RE2XOLAP_UTIL_TIMER_H_
#define RE2XOLAP_UTIL_TIMER_H_

#include <sys/resource.h>

#include <chrono>

namespace re2xolap::util {

/// Simple monotonic wall-clock stopwatch used by benchmarks and the
/// exploration session to report interaction latencies.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart(), in milliseconds.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

  /// The start instant, for callers that want to share this timer's
  /// clock read instead of taking their own (see obs::TraceMicrosAt).
  std::chrono::steady_clock::time_point start() const { return start_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Minor page faults this process has taken so far (getrusage).
inline long MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_TIMER_H_
