#ifndef RE2XOLAP_UTIL_EXEC_GUARD_H_
#define RE2XOLAP_UTIL_EXEC_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace re2xolap::util {

/// Cooperative cancellation flag shared between a caller and the work it
/// may stop: an ExecGuard polls it at operator boundaries, and the server
/// fires it to drain in-flight requests. The flag never interrupts work
/// preemptively.
///
/// Memory-ordering contract: Cancel() is a release store and cancelled()
/// an acquire load, so everything the cancelling thread wrote *before*
/// calling Cancel() — a reason string, a Status, a partial result — is
/// visible to any thread that observes cancelled() == true. Pollers may
/// therefore read the cancel reason without extra synchronization.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// How a degraded (partial) answer came to be. Producers that return
/// partial results under pressure (ReOLAP synthesis, ExRef preview
/// evaluation) set `truncated` and record a human-readable reason instead
/// of failing the whole request.
struct Degradation {
  bool truncated = false;
  std::string degraded_reason;
};

/// Per-request execution guardrails: an absolute deadline, a byte/row
/// memory budget, and a cooperative cancellation token, shared by every
/// operator working on one request (the join loop, aggregation, sorts,
/// keyword matching, validation probes). One guard may be polled and
/// charged from many threads concurrently; all counters are atomics.
///
/// Enforcement is cooperative: operators poll Check() at loop boundaries
/// (the guard never interrupts preemptively), so a violation surfaces at
/// the next poll point as a Status —
///   - deadline exceeded    -> kTimeout
///   - budget exceeded      -> kResourceExhausted
///   - token cancelled      -> kCancelled
/// The first violation of each kind is counted once per guard in the
/// global metrics registry ("guard.timeouts", "guard.budget_aborts",
/// "guard.cancellations"); violations are statuses, never cached results.
class ExecGuard {
 public:
  struct Limits {
    /// Wall-clock budget from guard construction; 0 = no deadline.
    uint64_t deadline_millis = 0;
    /// Budget on bytes charged via ChargeBytes (materialized rows, group
    /// states); 0 = unlimited.
    uint64_t max_bytes = 0;
    /// Budget on rows charged via ChargeRows (intermediate bindings
    /// produced by the join); 0 = unlimited.
    uint64_t max_rows = 0;
  };

  /// A guard with no limits: every Check() returns OK.
  ExecGuard() = default;

  explicit ExecGuard(const Limits& limits,
                     CancellationToken* token = nullptr);

  /// Anchors the deadline at `arrival` instead of "now": the deadline is
  /// `arrival + limits.deadline_millis`, so time the request already
  /// spent elsewhere — waiting in a server admission queue, being read
  /// off a slow client socket — counts against its budget. A request
  /// whose queue wait alone exceeded the deadline fails its very first
  /// Check() with kTimeout instead of being granted a fresh allowance at
  /// execution start. Use this constructor everywhere a request can wait
  /// between arrival and execution.
  ExecGuard(const Limits& limits,
            std::chrono::steady_clock::time_point arrival,
            CancellationToken* token = nullptr);

  /// Convenience: deadline-only guard (`deadline_millis` of 0 still means
  /// "no deadline").
  static ExecGuard WithDeadline(uint64_t deadline_millis);

  /// Deadline-only guard anchored at `arrival` (see the arrival-anchored
  /// constructor above).
  static ExecGuard WithDeadlineAt(uint64_t deadline_millis,
                                  std::chrono::steady_clock::time_point arrival);

  // Movable (atomics copied by value; moving a guard other threads are
  // polling is a caller bug), not copyable.
  ExecGuard(ExecGuard&& other) noexcept { *this = std::move(other); }
  ExecGuard& operator=(ExecGuard&& other) noexcept;
  ExecGuard(const ExecGuard&) = delete;
  ExecGuard& operator=(const ExecGuard&) = delete;

  /// Full poll: cancellation, then deadline, then budgets. A handful of
  /// atomic loads plus one clock read (only when a deadline is set).
  Status Check() const;

  /// Budget-only poll — no clock read, safe to call per produced row.
  Status CheckBudgets() const;

  /// Accumulates cost against the corresponding budget. Charging never
  /// fails; the overrun is reported by the next Check()/CheckBudgets().
  void ChargeBytes(uint64_t n) const {
    if (limits_.max_bytes != 0) bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeRows(uint64_t n) const {
    if (limits_.max_rows != 0) rows_.fetch_add(n, std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds until the deadline: 0 when expired, UINT64_MAX when the
  /// guard has no deadline.
  uint64_t remaining_millis() const;

  /// True when a deadline is set and has passed.
  bool expired() const;

  uint64_t charged_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t charged_rows() const {
    return rows_.load(std::memory_order_relaxed);
  }
  const Limits& limits() const { return limits_; }
  CancellationToken* token() const { return token_; }

 private:
  // Bit flags in reported_: each violation kind increments its global
  // metric exactly once per guard.
  enum : unsigned { kReportedTimeout = 1, kReportedBudget = 2,
                    kReportedCancel = 4 };
  void ReportOnce(unsigned flag) const;

  Limits limits_{};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  CancellationToken* token_ = nullptr;
  mutable std::atomic<uint64_t> bytes_{0};
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<unsigned> reported_{0};
};

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_EXEC_GUARD_H_
