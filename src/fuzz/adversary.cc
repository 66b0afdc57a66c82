#include "fuzz/adversary.hh"

namespace strand
{

DrainAdversary
DrainAdversary::recording(const AdversaryParams &params)
{
    DrainAdversary adv;
    adv.record = true;
    adv.params = params;
    adv.rng = Rng(params.seed);
    adv.mediaRng = Rng(params.seed ^ 0x3ed1a5eedULL);
    return adv;
}

DrainAdversary
DrainAdversary::replaying(DecisionLog log)
{
    DrainAdversary adv;
    adv.record = false;
    for (const FuzzDecision &d : log) {
        adv.plan[{static_cast<unsigned>(d.site), d.core, d.query}] =
            d.delay;
    }
    adv.decisions = std::move(log);
    return adv;
}

Tick
DrainAdversary::consider(EventQueue &eq, FuzzSite site, CoreId core,
                         const EventQueue::Callback &retry)
{
    ++totalQueries;
    std::uint64_t query =
        counters[{static_cast<unsigned>(site), core}]++;

    Tick delay = 0;
    if (record) {
        if (decisions.size() < params.maxDecisions &&
            rng.chance(params.deferChance)) {
            delay = rng.nextRange(params.minDelay, params.maxDelay);
            decisions.push_back({site, core, query, delay});
        }
    } else {
        auto it = plan.find(
            {static_cast<unsigned>(site), core, query});
        if (it != plan.end())
            delay = it->second;
    }

    if (delay > 0)
        eq.scheduleIn(delay, retry);
    if (queryHook)
        queryHook(totalQueries);
    return delay;
}

std::optional<std::uint64_t>
DrainAdversary::considerMedia(FuzzSite site, CoreId core)
{
    std::uint64_t query =
        counters[{static_cast<unsigned>(site), core}]++;
    if (record) {
        if (decisions.size() >= params.maxDecisions ||
            !mediaRng.chance(params.mediaChance)) {
            return std::nullopt;
        }
        std::uint64_t entropy = mediaRng.next();
        decisions.push_back({site, core, query, entropy});
        return entropy;
    }
    auto it = plan.find({static_cast<unsigned>(site), core, query});
    if (it == plan.end())
        return std::nullopt;
    return it->second;
}

} // namespace strand
