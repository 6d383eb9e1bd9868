#ifndef INSTANTDB_COMMON_CLOCK_H_
#define INSTANTDB_COMMON_CLOCK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace instantdb {

/// Microseconds since an arbitrary epoch. All LCP delays and degradation
/// deadlines in InstantDB are expressed in this unit.
using Micros = int64_t;

inline constexpr Micros kMicrosPerMilli = 1000;
inline constexpr Micros kMicrosPerSecond = 1000 * kMicrosPerMilli;
inline constexpr Micros kMicrosPerMinute = 60 * kMicrosPerSecond;
inline constexpr Micros kMicrosPerHour = 60 * kMicrosPerMinute;
inline constexpr Micros kMicrosPerDay = 24 * kMicrosPerHour;
/// The paper expresses the coarsest delays in months; we use the civil
/// 30-day month throughout.
inline constexpr Micros kMicrosPerMonth = 30 * kMicrosPerDay;

/// \brief Time source for every degradation decision in the engine.
///
/// The paper's LCP delays span minutes to months; experiments cannot run in
/// wall time. All engine components take time exclusively through this
/// interface so that tests and benchmarks can drive a `VirtualClock` while
/// deployments use `SystemClock`.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since the clock's epoch.
  virtual Micros NowMicros() const = 0;

  /// Snapshot of the wake generation. Background loops capture a token
  /// BEFORE re-checking the condition they sleep on (running flags, next
  /// deadline) and pass it to WaitUntil: a WakeAll landing in the gap
  /// between the check and the park then returns the wait immediately
  /// instead of being lost — the classic missed-wakeup on shutdown.
  virtual uint64_t WakeToken() const = 0;

  /// Blocks until `NowMicros() >= deadline` or `WakeAll()` is called after
  /// `token` was captured. Returns the time observed on wake-up.
  virtual Micros WaitUntil(Micros deadline, uint64_t token) = 0;

  /// Convenience form with the token captured at call time — only safe for
  /// callers that re-poll their sleep condition on a bounded cadence.
  Micros WaitUntil(Micros deadline) { return WaitUntil(deadline, WakeToken()); }

  /// Wakes all `WaitUntil` sleepers (used on shutdown and when new, earlier
  /// deadlines are scheduled). A broadcast: every thread parked at the bump
  /// wakes, and every token captured before it is expired.
  virtual void WakeAll() = 0;
};

/// Wall-clock implementation backed by std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  SystemClock();

  Micros NowMicros() const override;
  uint64_t WakeToken() const override;
  using Clock::WaitUntil;
  Micros WaitUntil(Micros deadline, uint64_t token) override;
  void WakeAll() override;

 private:
  Micros epoch_;  // steady_clock offset so times start near zero
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t wake_gen_ = 0;  // guarded by mu_; see Clock::WakeToken
};

/// \brief Manually-advanced clock for deterministic tests and benchmarks.
///
/// `Advance`/`AdvanceTo` move time forward and wake sleepers, letting a test
/// compress a month of degradation schedule into microseconds of real time.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(Micros start = 0) : now_(start) {}

  Micros NowMicros() const override { return now_.load(std::memory_order_acquire); }

  uint64_t WakeToken() const override;
  using Clock::WaitUntil;
  Micros WaitUntil(Micros deadline, uint64_t token) override;
  void WakeAll() override;

  /// Moves time forward by `delta` microseconds (must be >= 0).
  void Advance(Micros delta);
  /// Moves time forward to `t` if `t` is in the future; no-op otherwise.
  void AdvanceTo(Micros t);

 private:
  std::atomic<Micros> now_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Guarded by mu_; bumped by WakeAll. A generation counter, not a flag:
  /// every waiter present at the bump wakes (each compares against the
  /// generation it captured), so one waiter cannot swallow a broadcast
  /// meant for several, and a token captured before the bump expires even
  /// if its thread had not parked yet.
  uint64_t wake_gen_ = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_COMMON_CLOCK_H_
