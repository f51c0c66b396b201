#include "engine/event_engine.hpp"

#include <algorithm>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "controller/delivery.hpp"
#include "network/dn_benes.hpp"
#include "network/dn_popn.hpp"
#include "network/dn_tree.hpp"

namespace stonne {

namespace {

/**
 * Exact per-cycle delivery tail, devirtualized: instantiated once per
 * concrete DN topology so cycle()/injectBulk() resolve statically
 * (every concrete DN is final). The loop body replicates
 * deliverElements()'s exact loop statement for statement — the parity
 * suite holds the two engines to bit-identical behaviour.
 */
template <class Dn>
cycle_t
deliverTail(Dn &dn, GlobalBuffer &gb, index_t remaining, index_t fanout,
            PackageKind kind, Watchdog *watchdog, FaultInjector *faults,
            Tracer *trace)
{
    cycle_t cycles = 0;
    while (remaining > 0) {
        gb.nextCycle();
        dn.Dn::cycle();
        const index_t want = std::min(remaining, dn.bandwidth());
        const index_t granted = gb.readBulk(want);
        index_t sent = dn.Dn::injectBulk(granted, fanout, kind);
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

} // namespace

cycle_t
EventEngine::clampToBudget(cycle_t skip) const
{
    if (watchdog_ == nullptr)
        return skip;
    const cycle_t budget = watchdog_->cycleBudget();
    if (budget == 0)
        return skip;
    const cycle_t seen = watchdog_->cyclesObserved();
    // Already past the ceiling: the exact loop's first tick throws,
    // so take no skip and let the tail reproduce that abort.
    if (seen > budget)
        return 0;
    return std::min(skip, budget + 1 - seen);
}

cycle_t
EventEngine::deliver(DistributionNetwork &dn, GlobalBuffer &gb,
                     index_t count, index_t fanout, PackageKind kind)
{
    if (mode_ == EngineType::Tick) {
        const cycle_t cycles = deliverElements(dn, gb, count, fanout, kind,
                                               watchdog_, faults_, trace_);
        noteSpan(Delivery, cycles);
        return cycles;
    }

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

    // Backlog integral up front, in closed form — identical counter
    // evolution on every path (see deliverElements()).
    const index_t grant = std::min(dn.bandwidth(), gb.readBandwidth());
    dn.accountBacklog(count, grant);

    cycle_t cycles = 0;
    index_t remaining = count;
    const cycle_t total =
        static_cast<cycle_t>((remaining + grant - 1) / grant);

    if (remaining > 0 && skipInhibited()) {
        // Multicore contention gate closed: a sibling core overlaps
        // this span in simulated time, so the whole delivery is
        // stepped exactly below. Count the cycles the gate cost.
        gated_cycles_ += total;
    } else if (faults_ == nullptr && total > 1 &&
               skipAllowed(dn.nextActiveCycle())) {
        // Exact steady skip: no span event is recorded, counters and
        // trace samples land exactly where per-cycle stepping puts
        // them, and the skip is clamped so a cycle-budget abort fires
        // on the same cycle with the same state. The tracer advances
        // before the watchdog may throw — the order the exact loop
        // commits each cycle in.
        const cycle_t skip = clampToBudget(total - 1);
        if (skip > 0) {
            const index_t moved = static_cast<index_t>(skip) * grant;
            if (trace_ != nullptr)
                trace_->steadyBegin();
            gb.bulkAdvance(skip, moved, 0);
            dn.bulkAdvance(skip, moved, fanout, kind);
            if (trace_ != nullptr)
                trace_->steadyEnd(skip);
            if (watchdog_ != nullptr)
                watchdog_->bulkTick(skip, static_cast<count_t>(grant));
            remaining -= moved;
            cycles += skip;
        }
    }

    switch (dn.kind()) {
      case DnKind::Tree:
        cycles += deliverTail(static_cast<TreeDistributionNetwork &>(dn),
                              gb, remaining, fanout, kind, watchdog_,
                              faults_, trace_);
        break;
      case DnKind::Benes:
        cycles += deliverTail(static_cast<BenesDistributionNetwork &>(dn),
                              gb, remaining, fanout, kind, watchdog_,
                              faults_, trace_);
        break;
      case DnKind::PointToPoint:
        cycles += deliverTail(static_cast<PointToPointNetwork &>(dn), gb,
                              remaining, fanout, kind, watchdog_, faults_,
                              trace_);
        break;
    }
    noteSpan(Delivery, cycles);
    return cycles;
}

cycle_t
EventEngine::drain(GlobalBuffer &gb, index_t count)
{
    if (mode_ == EngineType::Tick) {
        const cycle_t cycles = drainOutputs(gb, count, watchdog_, trace_);
        noteSpan(Drain, cycles);
        return cycles;
    }

    if (count < 0)
        panic("drain of ", count, " outputs through '", gb.name(),
              "': count must not be negative");

    gb.accountDrainBacklog(count);

    cycle_t cycles = 0;
    index_t remaining = count;
    const index_t grant = gb.writeBandwidth();
    const cycle_t total =
        static_cast<cycle_t>((remaining + grant - 1) / grant);

    if (remaining > 0 && skipInhibited()) {
        // See deliver(): the gate pins the drain to the exact loop.
        gated_cycles_ += total;
    } else if (total > 1) {
        // Exact steady skip. Draining draws nothing from the fault
        // injector's RNG stream, so the skip stays legal with faults
        // attached — the exact loop would make the identical
        // per-cycle progress.
        const cycle_t skip = clampToBudget(total - 1);
        if (skip > 0) {
            const index_t drained = static_cast<index_t>(skip) * grant;
            if (trace_ != nullptr)
                trace_->steadyBegin();
            gb.bulkAdvance(skip, 0, drained);
            if (trace_ != nullptr)
                trace_->steadyEnd(skip);
            if (watchdog_ != nullptr)
                watchdog_->bulkTick(skip, static_cast<count_t>(grant));
            remaining -= drained;
            cycles += skip;
        }
    }

    while (remaining > 0) {
        gb.nextCycle();
        const index_t granted = gb.writeBulk(remaining);
        if (trace_ != nullptr)
            trace_->tick();
        if (watchdog_ != nullptr)
            watchdog_->tick(static_cast<count_t>(granted));
        else if (granted <= 0)
            panic("drain through '", gb.name(),
                  "' made no progress in a cycle");
        remaining -= granted;
        ++cycles;
    }
    noteSpan(Drain, cycles);
    return cycles;
}

void
EventEngine::reset()
{
    now_ = 0;
    for (std::size_t s = 0; s < kStreams; ++s)
        next_active_[s] = 0;
}

void
EventEngine::saveState(ArchiveWriter &ar) const
{
    ar.putU64(now_);
    for (std::size_t s = 0; s < kStreams; ++s)
        ar.putU64(next_active_[s]);
}

void
EventEngine::loadState(ArchiveReader &ar)
{
    now_ = ar.getU64();
    for (std::size_t s = 0; s < kStreams; ++s)
        next_active_[s] = ar.getU64();
}

} // namespace stonne
