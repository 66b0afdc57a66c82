/**
 * @file
 * Base classes for simulated components.
 *
 * A SimObject is a named component with a statistics group and access
 * to the system event queue. A ClockedObject additionally has a clock
 * and converts between its cycles and global ticks.
 */

#ifndef SIM_SIM_OBJECT_HH
#define SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace strand
{

/**
 * A named simulation component. Every SimObject is Snapshotable so
 * forked crash exploration can capture/restore whole component
 * trees; the defaults here panic with the instance name, keeping the
 * fail-loudly contract while pointing at the component that has not
 * audited its state yet.
 */
class SimObject : public stats::StatGroup, public Snapshotable
{
  public:
    /**
     * @param name Dotted instance name, e.g. "system.cpu0.dcache".
     * @param eq The system event queue.
     * @param parent Parent statistics group, if any.
     */
    SimObject(std::string name, EventQueue &eq,
              stats::StatGroup *parent = nullptr)
        : stats::StatGroup(std::move(name), parent), eq(eq)
    {
    }

    EventQueue &eventQueue() { return eq; }
    Tick curTick() const { return eq.curTick(); }

    /**
     * Snapshot diagnostics carry the full dotted instance name, so
     * the Snapshotable default panics point at the exact component
     * that has not audited its state yet.
     */
    std::string
    snapshotName() const override
    {
        return fullName();
    }

  protected:
    EventQueue &eq;
};

/** A simulation component driven by a clock. */
class ClockedObject : public SimObject
{
  public:
    /**
     * @param clockPeriod Clock period in ticks (e.g. 500 for 2 GHz).
     */
    ClockedObject(std::string name, EventQueue &eq, Tick clockPeriod,
                  stats::StatGroup *parent = nullptr)
        : SimObject(std::move(name), eq, parent), period(clockPeriod)
    {
        panicIf(clockPeriod == 0, "clock period must be non-zero");
    }

    Tick clockPeriod() const { return period; }

    /** Convert a cycle count to a tick duration. */
    Tick
    cyclesToTicks(Cycles c) const
    {
        return c.value() * period;
    }

    /** Convert a tick duration to whole cycles, rounding up. */
    Cycles
    ticksToCycles(Tick t) const
    {
        return Cycles((t + period - 1) / period);
    }

    /** @return the current time in this object's cycles. */
    Cycles
    curCycle() const
    {
        return Cycles(curTick() / period);
    }

    /**
     * @return the next tick that is aligned to this clock edge and is
     * at least @p delta cycles in the future.
     */
    Tick
    clockEdge(Cycles delta = Cycles(0)) const
    {
        Tick aligned = ((curTick() + period - 1) / period) * period;
        return aligned + delta.value() * period;
    }

  private:
    Tick period;
};

} // namespace strand

#endif // SIM_SIM_OBJECT_HH
