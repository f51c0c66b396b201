/**
 * @file
 * Cycle-by-cycle delivery of a fetch list through GB read ports + DN.
 *
 * Shared by all memory controllers: per cycle the Global Buffer grants up
 * to its read bandwidth, the distribution network injects up to its own
 * bandwidth, and the controller retries the remainder — the stall
 * mechanism that separates STONNE's timing from the analytical models.
 *
 * These loops step every cycle through virtual dispatch: they are what
 * `engine = TICK` runs, the per-cycle reference the event engine's
 * steady-state skip (engine/event_engine.hpp) is held bit-identical to.
 */

#ifndef STONNE_CONTROLLER_DELIVERY_HPP
#define STONNE_CONTROLLER_DELIVERY_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "faults/fault_injector.hpp"
#include "mem/global_buffer.hpp"
#include "network/unit.hpp"
#include "trace/trace.hpp"

namespace stonne {

/**
 * Count elements of sorted `cur` absent from sorted `prev` — the
 * operands that must come from the GB rather than from the multiplier
 * network's neighbour-forwarding links.
 */
inline index_t
countFresh(const std::vector<std::int64_t> &cur,
           const std::vector<std::int64_t> &prev)
{
    index_t fresh = 0;
    std::size_t i = 0, j = 0;
    while (i < cur.size()) {
        if (j >= prev.size() || cur[i] < prev[j]) {
            ++fresh;
            ++i;
        } else if (cur[i] == prev[j]) {
            ++i;
            ++j;
        } else {
            ++j;
        }
    }
    return fresh;
}

/**
 * Stream `count` elements of the same kind/fanout from the GB through
 * the DN, cycle by cycle.
 *
 * With a watchdog attached, a cycle that moves nothing counts as a stall
 * and a long enough stall run raises DeadlockError with a full fabric
 * snapshot; without one, a zero-progress cycle panics immediately (the
 * legacy behaviour, kept for bare-unit tests). A fault injector may drop
 * flits after DN acceptance: dropped flits stay in `remaining` and are
 * retransmitted on a later cycle, stretching the delivery.
 *
 * @return the number of cycles the delivery occupied.
 */
inline cycle_t
deliverElements(DistributionNetwork &dn, GlobalBuffer &gb, index_t count,
                index_t fanout, PackageKind kind,
                Watchdog *watchdog = nullptr,
                FaultInjector *faults = nullptr,
                Tracer *trace = nullptr)
{
    // Guards are open-coded `if (...) panic(...)`: panicIf evaluates
    // its message arguments eagerly, and constructing dn.name() here
    // on every delivery is measurable on the hot path.
    if (count < 0)
        panic("delivery of ", count, " elements through '", dn.name(),
              "': count must not be negative");
    if (fanout <= 0)
        panic("delivery through '", dn.name(),
              "' with non-positive fanout ", fanout,
              " (destination range is empty)");
    if (dn.bandwidth() <= 0)
        panic("delivery through '", dn.name(),
              "' with non-positive bandwidth ", dn.bandwidth(),
              " (should have been rejected by HardwareConfig::validate)");

    // Queue-occupancy telemetry (dn.inject_queue_occ): the backlog
    // integral of the whole delivery, accounted up front in closed form
    // so exact and skipped runs see identical counter evolution
    // (per-cycle attribution would diverge at sample boundaries inside
    // a skipped steady-state region).
    dn.accountBacklog(count, std::min(dn.bandwidth(), gb.readBandwidth()));

    cycle_t cycles = 0;
    index_t remaining = count;

    while (remaining > 0) {
        gb.nextCycle();
        dn.cycle();
        const index_t want = std::min(remaining, dn.bandwidth());
        const index_t granted = gb.readBulk(want);
        index_t sent = dn.injectBulk(granted, fanout, kind);
        index_t dropped = 0;
        if (faults != nullptr && sent > 0) {
            dropped = faults->dropFlits(sent);
            sent -= dropped;
        }
        // The trace clock advances before the watchdog may abort the
        // cycle, so a deadlock post-mortem trace includes every
        // stalled cycle; the cycle's counter activity already landed.
        if (trace != nullptr) {
            trace->tick();
            if (dropped > 0)
                trace->instant("flit_drop",
                               static_cast<count_t>(dropped));
        }
        if (watchdog != nullptr)
            watchdog->tick(static_cast<count_t>(sent));
        else if (sent <= 0)
            panic("delivery through '", dn.name(),
                  "' made no progress in a cycle");
        remaining -= sent;
        ++cycles;
    }
    return cycles;
}

/**
 * Drain `count` finished outputs through the GB write ports, cycle by
 * cycle — the write-side sibling of deliverElements(), shared by the
 * dense, sparse and SNAPEA controllers.
 *
 * Every cycle absorbs min(remaining, write_bandwidth) elements.
 *
 * @return the number of cycles the drain occupied.
 */
inline cycle_t
drainOutputs(GlobalBuffer &gb, index_t count, Watchdog *watchdog = nullptr,
             Tracer *trace = nullptr)
{
    if (count < 0)
        panic("drain of ", count, " outputs through '", gb.name(),
              "': count must not be negative");

    // Write-queue occupancy telemetry (gb.write_queue_occ), closed form
    // for the same exact-vs-skipped parity reason as delivery.
    gb.accountDrainBacklog(count);

    cycle_t cycles = 0;
    index_t remaining = count;

    while (remaining > 0) {
        gb.nextCycle();
        const index_t granted = gb.writeBulk(remaining);
        if (trace != nullptr)
            trace->tick();
        if (watchdog != nullptr)
            watchdog->tick(static_cast<count_t>(granted));
        else if (granted <= 0)
            panic("drain through '", gb.name(),
                  "' made no progress in a cycle");
        remaining -= granted;
        ++cycles;
    }
    return cycles;
}

} // namespace stonne

#endif // STONNE_CONTROLLER_DELIVERY_HPP
