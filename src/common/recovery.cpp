#include "common/recovery.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <thread>

#include "checkpoint/archive.hpp"
#include "common/watchdog.hpp"

namespace stonne {

namespace {

using Clock = std::chrono::steady_clock;

/** A degraded attempt's watchdog window, in multiples of the normal. */
constexpr index_t kDegradedWatchdogFactor = 4;

void
removeSnapshot(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".tmp", ec);
}

} // namespace

HardwareConfig
Attempt::config(HardwareConfig cfg) const
{
    if (degraded)
        cfg.watchdog_cycles *= kDegradedWatchdogFactor;
    return cfg;
}

std::chrono::milliseconds
backoffDelay(std::chrono::milliseconds base, int n)
{
    // Past 2^11 any positive base exceeds the cap; clamping the shift
    // keeps the multiplication from overflowing.
    const int shift = std::clamp(n - 1, 0, 11);
    return std::min(base * (std::int64_t{1} << shift),
                    std::chrono::milliseconds(kMaxBackoff));
}

RecoveryOutcome
runWithRecovery(const RecoveryPolicy &policy,
                const std::function<void(const Attempt &)> &attempt_fn)
{
    RecoveryOutcome out;
    const int max_attempts = std::max(1, policy.max_attempts);

    std::optional<Clock::time_point> deadline;
    if (policy.budget_wall_ms > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(policy.budget_wall_ms);

    for (int n = 1; n <= max_attempts; ++n) {
        Attempt attempt;
        attempt.number = n;
        attempt.degraded = max_attempts > 1 && n == max_attempts;
        attempt.deadline = deadline;
        out.attempts = n;
        out.degraded = attempt.degraded;

        try {
            if (deadline && Clock::now() > *deadline)
                throw BudgetExceededError(
                    BudgetExceededError::Kind::WallClock,
                    "wall-clock budget exhausted before attempt " +
                        std::to_string(n));
            attempt_fn(attempt);
            out.status = "done";
            removeSnapshot(policy.snapshot_path);
            return out;
        } catch (const BudgetExceededError &e) {
            // Terminal: the run was making progress, only slower than
            // the budget allows. A retry would only burn more budget.
            out.failures.push_back({n, e.what()});
            out.status = "timeout";
            out.error = e.what();
            return out;
        } catch (const DeadlockError &e) {
            out.failures.push_back({n, e.what()});
        } catch (const CheckpointError &e) {
            // A corrupt or mismatched snapshot must not wedge the job
            // into resuming it forever: the retry starts clean.
            out.failures.push_back({n, e.what()});
            removeSnapshot(policy.snapshot_path);
        } catch (const std::exception &e) {
            // Deterministic failure (config conflict, shape mismatch):
            // retrying cannot change the outcome.
            out.failures.push_back({n, e.what()});
            out.error = e.what();
            return out;
        }
        const std::string &cause = out.failures.back().cause;
        if (n == max_attempts) {
            out.error = cause;
            return out;
        }

        const auto delay = backoffDelay(policy.backoff_base, n);
        if (delay.count() > 0 && deadline &&
            Clock::now() + delay > *deadline) {
            out.status = "timeout";
            out.error = "wall-clock budget exhausted during retry backoff";
            return out;
        }
        if (policy.on_retry)
            policy.on_retry(n + 1, cause, n + 1 == max_attempts);
        if (delay.count() > 0)
            std::this_thread::sleep_for(delay);
    }
    return out; // unreachable: every path above returns
}

} // namespace stonne
