#include "network/mn_array.hpp"

#include "common/logging.hpp"

namespace stonne {

MultiplierArray::MultiplierArray(index_t ms_size, MnType type,
                                 StatsRegistry &stats)
    : ms_size_(ms_size), type_(type),
      mult_ops_(&stats.counter("mn.mult_ops",
                               StatGroup::MultiplierNetwork)),
      forward_ops_(&stats.counter("mn.forward_ops",
                                  StatGroup::MultiplierNetwork)),
      psum_forwards_(&stats.counter("mn.psum_forwards",
                                    StatGroup::MultiplierNetwork)),
      busy_cycles_(&stats.counter("mn.busy_cycles",
                                  StatGroup::MultiplierNetwork,
                                  StatKind::Occupancy))
{
    fatalIf(ms_size <= 0, "multiplier array needs at least one switch");
}

void
MultiplierArray::fireMultipliers(index_t n)
{
    panicIf(n < 0 || n > ms_size_, "fired ", n,
            " multipliers on an array of ", ms_size_);
    mult_ops_->value += static_cast<count_t>(n);
    if (n > 0)
        ++busy_cycles_->value;
}

void
MultiplierArray::forwardOperands(index_t n)
{
    panicIf(type_ != MnType::Linear,
            "operand forwarding on a network without forwarding links");
    // Each switch has two neighbour links (systolic arrays forward both
    // operands per cycle), so up to 2 * ms_size hops per cycle.
    panicIf(n < 0 || n > 2 * ms_size_, "invalid forwarding count ", n);
    forward_ops_->value += static_cast<count_t>(n);
}

void
MultiplierArray::bulkFire(cycle_t busy_cycles, count_t mults,
                          count_t forwards)
{
    const auto ms = static_cast<count_t>(ms_size_);
    panicIf(mults < busy_cycles || mults > busy_cycles * ms, "fired ",
            mults, " multipliers in ", busy_cycles,
            " busy cycles on an array of ", ms_size_);
    panicIf(forwards > 0 && type_ != MnType::Linear,
            "operand forwarding on a network without forwarding links");
    panicIf(forwards > 2 * ms * busy_cycles, "invalid forwarding count ",
            forwards, " in ", busy_cycles, " busy cycles");
    mult_ops_->value += mults;
    forward_ops_->value += forwards;
    busy_cycles_->value += busy_cycles;
}

void
MultiplierArray::forwardPsums(index_t n)
{
    panicIf(n < 0 || n > ms_size_, "invalid psum forward count ", n);
    psum_forwards_->value += static_cast<count_t>(n);
}

void
MultiplierArray::cycle()
{
}

void
MultiplierArray::reset()
{
}

void
MultiplierArray::dumpState(std::ostream &os) const
{
    os << name() << ": " << ms_size_ << " switches ("
       << mnTypeName(type_) << "), mult ops " << mult_ops_->value
       << ", operand forwards " << forward_ops_->value
       << ", psum forwards " << psum_forwards_->value << "\n";
}

} // namespace stonne
