#include "util/exec_guard.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace re2xolap::util {
namespace {

obs::Counter& GuardCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

TEST(ExecGuardTest, DefaultGuardIsUnlimited) {
  ExecGuard guard;
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.CheckBudgets().ok());
  EXPECT_FALSE(guard.has_deadline());
  EXPECT_FALSE(guard.expired());
  EXPECT_EQ(guard.remaining_millis(), UINT64_MAX);
  // Charging without limits is a no-op (no budget to enforce).
  guard.ChargeBytes(1 << 20);
  guard.ChargeRows(1000);
  EXPECT_TRUE(guard.Check().ok());
}

TEST(ExecGuardTest, ExpiredDeadlineReturnsTimeout) {
  ExecGuard guard = ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status st = guard.Check();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
  EXPECT_TRUE(guard.expired());
  EXPECT_EQ(guard.remaining_millis(), 0u);
}

TEST(ExecGuardTest, GenerousDeadlinePasses) {
  ExecGuard guard = ExecGuard::WithDeadline(60 * 1000);
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.has_deadline());
  EXPECT_GT(guard.remaining_millis(), 0u);
  EXPECT_FALSE(guard.expired());
}

TEST(ExecGuardTest, ArrivalAnchoredDeadlineChargesQueueWait) {
  // A request that waited in an admission queue longer than its whole
  // deadline must fail its FIRST Check(): the deadline anchors at
  // arrival, not at execution start.
  const auto arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(50);
  ExecGuard guard = ExecGuard::WithDeadlineAt(20, arrival);
  Status st = guard.Check();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
  EXPECT_TRUE(guard.expired());
  EXPECT_EQ(guard.remaining_millis(), 0u);
}

TEST(ExecGuardTest, ArrivalAnchoredDeadlineSpendsPartOfTheBudget) {
  // Queue wait below the deadline leaves only the remainder: a 10s
  // budget anchored 2s in the past has well under 10s left.
  const auto arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(2000);
  ExecGuard guard = ExecGuard::WithDeadlineAt(10'000, arrival);
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.has_deadline());
  EXPECT_LE(guard.remaining_millis(), 8'000u);
  EXPECT_GT(guard.remaining_millis(), 0u);
}

TEST(ExecGuardTest, ArrivalAnchoredConstructorKeepsBudgetsAndToken) {
  CancellationToken token;
  ExecGuard::Limits limits;
  limits.deadline_millis = 60'000;
  limits.max_rows = 10;
  ExecGuard guard(limits, std::chrono::steady_clock::now(), &token);
  EXPECT_TRUE(guard.Check().ok());
  guard.ChargeRows(11);
  EXPECT_TRUE(guard.Check().IsResourceExhausted());
  token.Cancel();
  EXPECT_TRUE(guard.Check().IsCancelled());
}

TEST(ExecGuardTest, ByteBudgetViolationIsResourceExhausted) {
  ExecGuard::Limits limits;
  limits.max_bytes = 100;
  ExecGuard guard(limits);
  guard.ChargeBytes(60);
  EXPECT_TRUE(guard.CheckBudgets().ok());
  guard.ChargeBytes(60);
  Status st = guard.CheckBudgets();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_EQ(guard.charged_bytes(), 120u);
  // Check() reports the same violation.
  EXPECT_TRUE(guard.Check().IsResourceExhausted());
}

TEST(ExecGuardTest, RowBudgetViolationIsResourceExhausted) {
  ExecGuard::Limits limits;
  limits.max_rows = 10;
  ExecGuard guard(limits);
  guard.ChargeRows(10);
  EXPECT_TRUE(guard.CheckBudgets().ok());  // at the limit, not beyond
  guard.ChargeRows(1);
  EXPECT_TRUE(guard.CheckBudgets().IsResourceExhausted());
}

TEST(ExecGuardTest, CancellationWinsOverDeadline) {
  CancellationToken token;
  ExecGuard::Limits limits;
  limits.deadline_millis = 1;
  ExecGuard guard(limits, &token);
  token.Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // Both tripped; cancellation is checked first.
  Status st = guard.Check();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST(ExecGuardTest, ViolationMetricsCountOncePerGuard) {
  obs::Counter& timeouts = GuardCounter("guard.timeouts");
  obs::Counter& budget_aborts = GuardCounter("guard.budget_aborts");
  const uint64_t timeouts_before = timeouts.value();
  const uint64_t budget_before = budget_aborts.value();

  ExecGuard guard = ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(guard.Check().ok());
  EXPECT_EQ(timeouts.value(), timeouts_before + 1);

  ExecGuard::Limits limits;
  limits.max_bytes = 1;
  ExecGuard budget_guard(limits);
  budget_guard.ChargeBytes(10);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(budget_guard.CheckBudgets().ok());
  }
  EXPECT_EQ(budget_aborts.value(), budget_before + 1);
}

TEST(ExecGuardTest, ConcurrentChargingIsExact) {
  ExecGuard::Limits limits;
  limits.max_rows = 1u << 30;  // large enough to never trip
  ExecGuard guard(limits);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&guard] {
      for (int i = 0; i < kPerThread; ++i) guard.ChargeRows(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(guard.charged_rows(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_TRUE(guard.Check().ok());
}

TEST(ExecGuardTest, MoveTransfersLimitsAndCharges) {
  ExecGuard::Limits limits;
  limits.max_bytes = 50;
  ExecGuard guard(limits);
  guard.ChargeBytes(100);
  ExecGuard moved = std::move(guard);
  EXPECT_EQ(moved.charged_bytes(), 100u);
  EXPECT_TRUE(moved.CheckBudgets().IsResourceExhausted());
}

TEST(CancellationTokenTest, ReleaseAcquireMakesPriorWritesVisible) {
  // The documented contract: data written before Cancel() is visible to
  // any thread that observes cancelled() == true.
  CancellationToken token;
  std::string reason;
  std::thread canceller([&] {
    reason = "user pressed ^C";
    token.Cancel();
  });
  while (!token.cancelled()) std::this_thread::yield();
  EXPECT_EQ(reason, "user pressed ^C");
  canceller.join();
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

}  // namespace
}  // namespace re2xolap::util
