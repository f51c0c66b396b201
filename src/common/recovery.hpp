/**
 * @file
 * The retry ladder every recovering caller runs on: the service's run,
 * run_model, tune and explore jobs and the benchmarks' recovering sweep
 * runner all hand their attempt body to runWithRecovery().
 *
 * The ladder owns, in one place:
 *
 *  - attempts 1..N; only the final attempt runs degraded (and only when
 *    N > 1): Attempt::config() widens its watchdog window x4 so it
 *    outwaits transient stalls;
 *
 *  - a wall-clock deadline shared by all attempts (`budget_wall_ms`),
 *    checked before every attempt and against every backoff: a backoff
 *    that would cross it ends the job as `timeout`;
 *
 *  - classification: BudgetExceededError is terminal (`timeout`, the run
 *    was making progress); DeadlockError is retried; CheckpointError
 *    deletes the policy's snapshot file (so a corrupt snapshot cannot
 *    wedge the job) and is retried; any other exception is a
 *    deterministic error and fails the job at once;
 *
 *  - capped exponential backoff: base * 2^(n-1), at most kMaxBackoff;
 *
 *  - the outcome record: status, attempts, degraded, and one failure
 *    cause per failed attempt (the exception's what(), unchanged).
 *
 * Snapshot *resume* stays with the caller (only it knows what a
 * snapshot holds); the ladder removes the snapshot file once the job
 * completes.
 */

#ifndef STONNE_COMMON_RECOVERY_HPP
#define STONNE_COMMON_RECOVERY_HPP

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace stonne {

/** Longest sleep between two attempts. */
inline constexpr std::chrono::milliseconds kMaxBackoff{2000};

/** Retry policy of one job. */
struct RecoveryPolicy {
    /** Total attempts (first try + retries); values < 1 mean 1. */
    int max_attempts = 3;

    /** Backoff base; attempt n is followed by base * 2^(n-1). 0 = none. */
    std::chrono::milliseconds backoff_base{50};

    /** Whole-job wall-clock budget in ms (0 = unbounded). */
    index_t budget_wall_ms = 0;

    /** Snapshot file deleted on CheckpointError and on success. */
    std::string snapshot_path;

    /** Called before each retry: (next_attempt, cause, degraded). */
    std::function<void(int, const std::string &, bool)> on_retry;
};

/** One attempt as handed to the attempt body. */
struct Attempt {
    int number = 1;        //!< 1-based
    bool degraded = false; //!< the final attempt of a retrying policy

    /** The job's wall deadline (nullopt = unbounded). */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /** `cfg` as this attempt runs it (watchdog widened when degraded). */
    HardwareConfig config(HardwareConfig cfg) const;
};

/** One failed attempt. */
struct AttemptFailure {
    int attempt = 0;
    std::string cause;
};

/** What the ladder did with one job. */
struct RecoveryOutcome {
    /** done | failed | timeout */
    std::string status = "failed";

    int attempts = 0;
    bool degraded = false; //!< the last attempt run was degraded
    std::vector<AttemptFailure> failures;

    /** Terminal error text (failed / timeout). */
    std::string error;
};

/** The sleep after failed attempt `n`: base * 2^(n-1), capped. */
std::chrono::milliseconds backoffDelay(std::chrono::milliseconds base,
                                       int n);

/**
 * Run `attempt_fn` under `policy` until it returns (done), throws a
 * terminal error, or the attempts run out. No std::exception from the
 * body escapes: every failure lands in the returned outcome.
 */
RecoveryOutcome
runWithRecovery(const RecoveryPolicy &policy,
                const std::function<void(const Attempt &)> &attempt_fn);

} // namespace stonne

#endif // STONNE_COMMON_RECOVERY_HPP
