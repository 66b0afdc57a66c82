/**
 * @file
 * The adversarial drain policy of the persistency fuzzer.
 *
 * Hook sites (persist-engine issue loops, the write-back drain path)
 * consult the adversary immediately before performing an action that
 * the design's ordering rules leave them free to time: issuing a CLWB
 * flush, handing a persist-queue head to the strand buffer unit, or
 * draining an eligible write-back. The adversary either lets the
 * action proceed (returning 0) or holds it for a bounded number of
 * ticks — and *delaying a legal action is always legal*, so every
 * schedule the adversary produces stays within the design's
 * specification. On a hold the adversary schedules the site-provided
 * retry closure on the event queue, which guarantees forward progress
 * (the simulator panics if the event queue drains with unfinished
 * cores, so a hold must always leave a wake-up behind).
 *
 * Two modes share one query-numbering scheme (each consider() call
 * increments a per-(site, core) counter):
 *  - recording: holds are drawn from a private Rng and appended to
 *    the decision log, making the whole trial replayable from
 *    (seed, log);
 *  - replaying: holds come only from a given decision log; queries
 *    without a matching entry proceed immediately. Any sub-log is a
 *    valid schedule, which is what lets ddmin shrink failures.
 */

#ifndef FUZZ_ADVERSARY_HH
#define FUZZ_ADVERSARY_HH

#include <functional>
#include <map>
#include <tuple>

#include "fuzz/decision.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace strand
{

/** Knobs of the recording mode. */
struct AdversaryParams
{
    std::uint64_t seed = 0xad5eed;
    /** Probability that a query is held rather than allowed. */
    double deferChance = 0.25;
    /** Hold durations are drawn uniformly from [minDelay, maxDelay]. */
    Tick minDelay = nsToTicks(20);
    Tick maxDelay = nsToTicks(3000);
    /** Stop perturbing (allow everything) after this many holds. */
    std::size_t maxDecisions = 4096;
    /** Probability a considerMedia() opportunity fires its fault. */
    double mediaChance = 0.15;
};

/**
 * A drain adversary for one simulated system. Systems hold a
 * non-owning pointer; a null adversary means "always allow" with no
 * query accounting, so un-fuzzed runs take the untouched fast path.
 */
class DrainAdversary
{
  public:
    /** @return an adversary drawing fresh decisions from @p params. */
    static DrainAdversary recording(const AdversaryParams &params);

    /** @return an adversary applying exactly @p log. */
    static DrainAdversary replaying(DecisionLog log);

    /**
     * Consult the adversary before performing @p site's action for
     * @p core. @return 0 to proceed now; otherwise the action must be
     * held for the returned number of ticks — @p retry has already
     * been scheduled on @p eq at that point.
     *
     * @p retry is borrowed and only copied when a hold is issued, so
     * call sites can pass one long-lived callback instead of
     * constructing a closure per query. Each hold stays its own
     * one-shot event: coalescing retries would reorder the queries
     * the adversary sees and break decision-log replay.
     */
    Tick consider(EventQueue &eq, FuzzSite site, CoreId core,
                  const EventQueue::Callback &retry);

    /**
     * Consult the adversary at a media-fault opportunity (@p site
     * must be one of the Media* sites). @return the fault's entropy
     * word when it should fire, nullopt to skip. Recording mode draws
     * the fire/skip choice and the entropy from a dedicated media
     * Rng (so the schedule stream is untouched by media fuzzing) and
     * logs fired faults with the entropy in the delay field; replay
     * fires exactly the logged queries. Media queries do not count
     * toward queriesSeen() and never invoke the query hook — they are
     * crash-time events, not schedule points.
     */
    std::optional<std::uint64_t> considerMedia(FuzzSite site,
                                               CoreId core = 0);

    /** Decisions recorded (recording mode) or applied (replay). */
    const DecisionLog &log() const { return decisions; }

    /** Total consider() calls, over all sites and cores. */
    std::uint64_t queriesSeen() const { return totalQueries; }

    /**
     * Hook invoked after every consider() with the updated total
     * query count. The branching fuzzer uses it to pick snapshot
     * points at adversary decision sites; the hook must not re-enter
     * consider().
     */
    void
    setQueryHook(std::function<void(std::uint64_t)> hook)
    {
        queryHook = std::move(hook);
    }

    /**
     * Restart the decision stream from @p seed (recording mode).
     * Restored schedule branches call this so each branch explores a
     * different suffix from the same warm prefix.
     */
    void
    reseed(std::uint64_t seed)
    {
        rng = Rng(seed);
    }

    /** Mutable decision state captured by the fuzzer's snapshots
     * (the replay plan and parameters are fixed wiring). */
    struct State
    {
        std::array<std::uint64_t, 4> rng{};
        std::array<std::uint64_t, 4> mediaRng{};
        DecisionLog decisions;
        std::uint64_t totalQueries = 0;
        std::map<std::pair<unsigned, CoreId>, std::uint64_t> counters;
    };

    State
    snapshotState() const
    {
        return {rng.saveState(), mediaRng.saveState(), decisions,
                totalQueries, counters};
    }

    void
    restoreState(const State &s)
    {
        rng.restoreState(s.rng);
        mediaRng.restoreState(s.mediaRng);
        decisions = s.decisions;
        totalQueries = s.totalQueries;
        counters = s.counters;
    }

  private:
    DrainAdversary() = default;

    bool record = false;
    AdversaryParams params;
    Rng rng{0};
    /** Media-fault stream, independent of the schedule stream. */
    Rng mediaRng{0};
    DecisionLog decisions;
    std::uint64_t totalQueries = 0;
    /** Next query number per (site, core). */
    std::map<std::pair<unsigned, CoreId>, std::uint64_t> counters;
    /** Replay mode: (site, core, query) -> delay. */
    std::map<std::tuple<unsigned, CoreId, std::uint64_t>, Tick> plan;
    std::function<void(std::uint64_t)> queryHook;
};

} // namespace strand

#endif // FUZZ_ADVERSARY_HH
