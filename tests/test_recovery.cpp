/**
 * @file
 * Tests for the shared retry ladder (common/recovery): classification of
 * every failure kind, the degraded final attempt, the on_retry
 * observer, the capped backoff, the shared wall deadline and snapshot
 * deletion — all with fake attempt bodies, no simulation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/recovery.hpp"
#include "common/watchdog.hpp"

namespace stonne {
namespace {

using std::chrono::milliseconds;

/** Self-deleting snapshot file (and its .tmp sibling). */
struct TempFile {
    std::string path;

    explicit TempFile(std::string p) : path(std::move(p)) { clean(); }
    ~TempFile() { clean(); }

    void clean()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
    }

    void touch() const
    {
        std::ofstream(path) << "snapshot";
        std::ofstream(path + ".tmp") << "half-written snapshot";
    }
};

RecoveryPolicy
quickPolicy(int max_attempts)
{
    RecoveryPolicy p;
    p.max_attempts = max_attempts;
    p.backoff_base = milliseconds(0);
    return p;
}

DeadlockError
deadlock(int n)
{
    return DeadlockError("no progress in attempt " + std::to_string(n),
                         "report");
}

TEST(Recovery, SuccessOnTheFirstAttempt)
{
    int calls = 0;
    const RecoveryOutcome out =
        runWithRecovery(quickPolicy(3), [&](const Attempt &) { ++calls; });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(out.status, "done");
    EXPECT_EQ(out.attempts, 1);
    EXPECT_FALSE(out.degraded);
    EXPECT_TRUE(out.failures.empty());
    EXPECT_TRUE(out.error.empty());
}

TEST(Recovery, BudgetExceededIsATerminalTimeout)
{
    RecoveryPolicy p = quickPolicy(3);
    int retries = 0;
    p.on_retry = [&](int, const std::string &, bool) { ++retries; };
    const BudgetExceededError err(BudgetExceededError::Kind::Cycles,
                                  "cycle budget 32 exhausted");
    const RecoveryOutcome out =
        runWithRecovery(p, [&](const Attempt &) { throw err; });
    EXPECT_EQ(out.status, "timeout");
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(retries, 0);
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].attempt, 1);
    EXPECT_EQ(out.failures[0].cause, err.what());
    EXPECT_EQ(out.error, err.what());
}

TEST(Recovery, DeadlockIsRetriedUntilTheAttemptsRunOut)
{
    const RecoveryOutcome out = runWithRecovery(
        quickPolicy(3), [&](const Attempt &a) { throw deadlock(a.number); });
    EXPECT_EQ(out.status, "failed");
    EXPECT_EQ(out.attempts, 3);
    EXPECT_TRUE(out.degraded);
    ASSERT_EQ(out.failures.size(), 3u);
    for (int n = 1; n <= 3; ++n) {
        const AttemptFailure &f =
            out.failures[static_cast<std::size_t>(n - 1)];
        EXPECT_EQ(f.attempt, n);
        // The cause is what() unchanged: one "deadlock: " prefix.
        EXPECT_EQ(f.cause, deadlock(n).what());
        EXPECT_NE(f.cause.rfind("deadlock: ", 0), std::string::npos);
        EXPECT_EQ(f.cause.find("deadlock: deadlock: "), std::string::npos);
    }
    EXPECT_EQ(out.error, deadlock(3).what());
}

TEST(Recovery, DeadlockThenSuccessCompletesCleanly)
{
    const RecoveryOutcome out =
        runWithRecovery(quickPolicy(3), [&](const Attempt &a) {
            if (a.number == 1)
                throw deadlock(1);
        });
    EXPECT_EQ(out.status, "done");
    EXPECT_EQ(out.attempts, 2);
    EXPECT_FALSE(out.degraded);
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_TRUE(out.error.empty());
}

TEST(Recovery, CheckpointErrorDeletesTheSnapshotAndRetries)
{
    TempFile snap("test_recovery_corrupt.ckpt");
    snap.touch();
    RecoveryPolicy p = quickPolicy(3);
    p.snapshot_path = snap.path;
    std::vector<bool> snapshot_seen;
    const RecoveryOutcome out =
        runWithRecovery(p, [&](const Attempt &a) {
            snapshot_seen.push_back(std::filesystem::exists(snap.path));
            if (a.number == 1)
                throw CheckpointError("bad magic in " + snap.path);
        });
    EXPECT_EQ(out.status, "done");
    EXPECT_EQ(out.attempts, 2);
    EXPECT_EQ(snapshot_seen, (std::vector<bool>{true, false}));
    EXPECT_FALSE(std::filesystem::exists(snap.path + ".tmp"));
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].cause,
              CheckpointError("bad magic in " + snap.path).what());
}

TEST(Recovery, DeadlockKeepsTheSnapshotAndSuccessRemovesIt)
{
    TempFile snap("test_recovery_keep.ckpt");
    RecoveryPolicy p = quickPolicy(1);
    p.snapshot_path = snap.path;

    // A failed job leaves its snapshot for a retry or resubmission.
    const RecoveryOutcome failed = runWithRecovery(p, [&](const Attempt &) {
        snap.touch();
        throw deadlock(1);
    });
    EXPECT_EQ(failed.status, "failed");
    EXPECT_TRUE(std::filesystem::exists(snap.path));

    // A completed job cleans it up.
    const RecoveryOutcome done =
        runWithRecovery(p, [&](const Attempt &) {});
    EXPECT_EQ(done.status, "done");
    EXPECT_FALSE(std::filesystem::exists(snap.path));
    EXPECT_FALSE(std::filesystem::exists(snap.path + ".tmp"));
}

TEST(Recovery, DeterministicErrorFailsAfterOneAttempt)
{
    RecoveryPolicy p = quickPolicy(3);
    int retries = 0;
    p.on_retry = [&](int, const std::string &, bool) { ++retries; };
    const RecoveryOutcome out = runWithRecovery(p, [&](const Attempt &) {
        throw std::invalid_argument("tile does not fit the array");
    });
    EXPECT_EQ(out.status, "failed");
    EXPECT_EQ(out.attempts, 1);
    EXPECT_FALSE(out.degraded);
    EXPECT_EQ(retries, 0);
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].cause, "tile does not fit the array");
    EXPECT_EQ(out.error, "tile does not fit the array");
}

TEST(Recovery, OnlyTheFinalAttemptOfARetryingPolicyIsDegraded)
{
    for (const int n : {1, 2, 3, 5}) {
        std::vector<bool> degraded;
        const RecoveryOutcome out =
            runWithRecovery(quickPolicy(n), [&](const Attempt &a) {
                degraded.push_back(a.degraded);
                throw deadlock(a.number);
            });
        std::vector<bool> expected(static_cast<std::size_t>(n), false);
        if (n > 1)
            expected.back() = true;
        EXPECT_EQ(degraded, expected) << "max_attempts " << n;
        EXPECT_EQ(out.attempts, n);
        EXPECT_EQ(out.degraded, n > 1) << "max_attempts " << n;
    }
    // max_attempts < 1 still runs one (undegraded) attempt.
    const RecoveryOutcome zero =
        runWithRecovery(quickPolicy(0), [&](const Attempt &a) {
            EXPECT_FALSE(a.degraded);
        });
    EXPECT_EQ(zero.attempts, 1);
}

TEST(Recovery, DegradedAttemptWidensOnlyTheWatchdog)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.watchdog_cycles = 250;
    Attempt normal;
    EXPECT_EQ(normal.config(cfg).watchdog_cycles, 250);
    Attempt degraded;
    degraded.degraded = true;
    const HardwareConfig wide = degraded.config(cfg);
    EXPECT_EQ(wide.watchdog_cycles, 1000);
    EXPECT_EQ(wide.structuralText(), cfg.structuralText());
}

TEST(Recovery, OnRetryReportsNextAttemptCauseAndDegradation)
{
    RecoveryPolicy p = quickPolicy(3);
    std::vector<std::tuple<int, std::string, bool>> calls;
    p.on_retry = [&](int next, const std::string &cause, bool degraded) {
        calls.emplace_back(next, cause, degraded);
    };
    runWithRecovery(p, [&](const Attempt &a) { throw deadlock(a.number); });
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0], std::make_tuple(2, std::string(deadlock(1).what()),
                                        false));
    EXPECT_EQ(calls[1], std::make_tuple(3, std::string(deadlock(2).what()),
                                        true));
}

TEST(Recovery, BackoffDoublesAndIsCapped)
{
    EXPECT_EQ(backoffDelay(milliseconds(50), 1), milliseconds(50));
    EXPECT_EQ(backoffDelay(milliseconds(50), 2), milliseconds(100));
    EXPECT_EQ(backoffDelay(milliseconds(50), 3), milliseconds(200));
    EXPECT_EQ(backoffDelay(milliseconds(50), 6), milliseconds(1600));
    EXPECT_EQ(backoffDelay(milliseconds(50), 7), kMaxBackoff);
    EXPECT_EQ(backoffDelay(milliseconds(3000), 1), kMaxBackoff);
    EXPECT_EQ(backoffDelay(milliseconds(1), 40), kMaxBackoff);
    EXPECT_EQ(backoffDelay(milliseconds(0), 5), milliseconds(0));
    EXPECT_EQ(kMaxBackoff, milliseconds(2000));
}

TEST(Recovery, BackoffThatWouldCrossTheDeadlineTimesOutWithoutSleeping)
{
    RecoveryPolicy p = quickPolicy(3);
    p.backoff_base = milliseconds(1000);
    p.budget_wall_ms = 200;
    int retries = 0;
    p.on_retry = [&](int, const std::string &, bool) { ++retries; };

    const auto t0 = std::chrono::steady_clock::now();
    const RecoveryOutcome out = runWithRecovery(
        p, [&](const Attempt &a) { throw deadlock(a.number); });
    const auto elapsed = std::chrono::steady_clock::now() - t0;

    EXPECT_EQ(out.status, "timeout");
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(retries, 0) << "no retry may be announced past the deadline";
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_NE(out.error.find("backoff"), std::string::npos) << out.error;
    EXPECT_LT(elapsed, milliseconds(1000)) << "the ladder slept anyway";
}

TEST(Recovery, DeadlineIsCheckedBeforeEveryAttempt)
{
    RecoveryPolicy p = quickPolicy(3);
    p.budget_wall_ms = 1;
    const RecoveryOutcome out = runWithRecovery(p, [&](const Attempt &a) {
        ASSERT_TRUE(a.deadline.has_value());
        std::this_thread::sleep_for(milliseconds(5));
        throw deadlock(a.number);
    });
    EXPECT_EQ(out.status, "timeout");
    EXPECT_EQ(out.attempts, 2);
    ASSERT_EQ(out.failures.size(), 2u);
    EXPECT_NE(out.failures[1].cause.find("before attempt 2"),
              std::string::npos)
        << out.failures[1].cause;
}

TEST(Recovery, UnboundedPolicyHasNoDeadline)
{
    runWithRecovery(quickPolicy(1), [&](const Attempt &a) {
        EXPECT_FALSE(a.deadline.has_value());
    });
}

} // namespace
} // namespace stonne
