/**
 * @file
 * The execution-phase tracker every controller shares.
 *
 * A controller names the phase it is in ("pipeline fill", "output
 * drain", ...) so watchdog deadlock reports, checkpoints and the
 * tracer's phase spans can show it. Phases are entered from the hot
 * per-step loops, so the tracker holds the string literal the call
 * site passes: entering a phase stores a pointer and never copies a
 * string. Only a phase restored from a snapshot owns its text.
 */

#ifndef STONNE_CONTROLLER_PHASE_HPP
#define STONNE_CONTROLLER_PHASE_HPP

#include <string>

#include "checkpoint/archive.hpp"
#include "trace/trace.hpp"

namespace stonne {

/** Current phase of one controller, mirrored to its tracer. */
class PhaseTracker
{
  public:
    explicit PhaseTracker(Tracer *trace) : trace_(trace) {}

    // name_ may point into restored_, which a copy would not follow.
    PhaseTracker(const PhaseTracker &) = delete;
    PhaseTracker &operator=(const PhaseTracker &) = delete;

    /** Enter `phase`, a string literal: watchdog reports see it, the
     *  tracer spans it. */
    void set(const char *phase)
    {
        name_ = phase;
        if (trace_ != nullptr)
            trace_->setPhase(phase);
    }

    const char *name() const { return name_; }

    /** The phase is the only controller state that crosses a snapshot
     *  (checkpoints land at quiescent operation boundaries). */
    void save(ArchiveWriter &ar) const { ar.putString(name_); }

    void load(ArchiveReader &ar)
    {
        restored_ = ar.getString();
        name_ = restored_.c_str();
    }

  private:
    Tracer *trace_;
    const char *name_ = "idle";
    std::string restored_; //!< text of a phase loaded from a snapshot
};

} // namespace stonne

#endif // STONNE_CONTROLLER_PHASE_HPP
