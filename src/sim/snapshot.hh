/**
 * @file
 * Point-in-time capture and restore of simulation state.
 *
 * Forked-snapshot crash exploration (src/crash/) runs one warm
 * simulation, then forks at each selected crash point so only the
 * Figure 6 recovery protocol re-executes — O(run + points x recovery)
 * instead of O(points x run). The fork needs a faithful copy of the
 * machine, so every component that participates exposes its state
 * through this layer:
 *
 *  - SimSnapshot is a typed key/value bag: components write their
 *    state under their dotted instance name and read it back by
 *    exact type. Values are stored by copy, except state a
 *    component shares with the live run: the hierarchy shares
 *    packets (immutable once submitted), and cache tag arrays share
 *    their tag pages, which the live array copies on its first
 *    write to a page a snapshot still holds (see CacheArray). The
 *    sharing is tracked by reference counts that only the owning
 *    thread may read, so a snapshot belongs to the thread that runs
 *    the machine it was taken from.
 *  - Snapshotable is the component interface. The default
 *    implementations PANIC: a component that has not audited its
 *    state for capture (closure-holding queues, in-flight MSHRs)
 *    must fail loudly rather than silently fork half a machine.
 *    Components whose volatile state is discarded by a crash anyway
 *    may implement saveState() as a quiescence check.
 *
 * EventQueue::snapshot()/restore() (the kernel side of the same
 * discipline) live on EventQueue directly, since the queue is not a
 * SimObject.
 */

#ifndef SIM_SNAPSHOT_HH
#define SIM_SNAPSHOT_HH

#include <any>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace strand
{

/**
 * One capture of a component tree. Keys are dotted instance names
 * ("system.cpu0.dcache"); each key is written at most once per
 * capture, and reads require the exact stored type.
 */
class SimSnapshot
{
  public:
    /** Store @p value under @p key. Panics on duplicate keys. */
    template <typename T>
    void
    put(const std::string &key, T value)
    {
        panicIf(slots.count(key) != 0,
                "snapshot key '{}' captured twice", key);
        bytes += key.size() + slotBytes(value);
        slots.emplace(key, std::move(value));
    }

    /** @return the value stored under @p key as a T. */
    template <typename T>
    const T &
    get(const std::string &key) const
    {
        auto it = slots.find(key);
        panicIf(it == slots.end(), "snapshot key '{}' missing", key);
        const T *value = std::any_cast<T>(&it->second);
        panicIf(!value, "snapshot key '{}' holds a different type",
                key);
        return *value;
    }

    bool has(const std::string &key) const
    {
        return slots.count(key) != 0;
    }

    /** Number of captured keys. */
    std::size_t size() const { return slots.size(); }

    /** Every captured key, in sorted (map) order. */
    std::vector<std::string>
    keys() const
    {
        std::vector<std::string> out;
        out.reserve(slots.size());
        for (const auto &[key, value] : slots)
            out.push_back(key);
        return out;
    }

    /**
     * Approximate size of the captured state in bytes: the static
     * footprint of every stored value, plus the element payload of
     * values that are sized containers (one nesting level deep).
     * Nested containers and shared pages are not counted, so this
     * tells a half-captured machine from a full one in a log line;
     * it is not an allocator-accurate measurement.
     */
    std::size_t approxBytes() const { return bytes; }

  private:
    template <typename T>
    static std::size_t
    slotBytes(const T &value)
    {
        if constexpr (requires {
                          value.size();
                          typename T::value_type;
                      }) {
            return sizeof(T) +
                   value.size() * sizeof(typename T::value_type);
        } else {
            return sizeof(T);
        }
    }

    std::map<std::string, std::any> slots;
    std::size_t bytes = 0;
};

/**
 * Interface for components that can be captured into / restored from
 * a SimSnapshot. Restore contracts are component-local, but the
 * common one is: restore into the same component graph the capture
 * was taken from (same objects, same wiring), never into a freshly
 * built system — callbacks and intrusive pointers reference the
 * original objects.
 */
class Snapshotable
{
  public:
    virtual ~Snapshotable() = default;

    /**
     * Name used in snapshot diagnostics. SimObject routes this to
     * its dotted instance name; adapter shims for non-SimObject
     * state (EventQueue, Rng) override it with the key they capture
     * under, so the default panics below always name the offender.
     */
    virtual std::string snapshotName() const = 0;

    /** Capture this component's state into @p snap. */
    virtual void saveState(SimSnapshot &snap) const;
    /** Restore this component's state from @p snap. */
    virtual void restoreState(const SimSnapshot &snap);
};

inline void
Snapshotable::saveState(SimSnapshot &) const
{
    panic("{} does not support snapshot capture", snapshotName());
}

inline void
Snapshotable::restoreState(const SimSnapshot &)
{
    panic("{} does not support snapshot restore", snapshotName());
}

} // namespace strand

#endif // SIM_SNAPSHOT_HH
