#include "fuzz/shrink.hh"

#include <algorithm>

namespace strand
{

namespace
{

DecisionLog
without(const DecisionLog &log, std::size_t begin, std::size_t end)
{
    DecisionLog out;
    out.reserve(log.size() - (end - begin));
    out.insert(out.end(), log.begin(),
               log.begin() + static_cast<std::ptrdiff_t>(begin));
    out.insert(out.end(),
               log.begin() + static_cast<std::ptrdiff_t>(end),
               log.end());
    return out;
}

} // namespace

ShrinkResult
shrinkLog(const DecisionLog &log,
          const std::function<bool(const DecisionLog &)> &fails,
          unsigned maxReplays)
{
    ShrinkResult result;
    result.log = log;

    auto check = [&](const DecisionLog &candidate) {
        if (result.replays >= maxReplays)
            return false;
        ++result.replays;
        return fails(candidate);
    };

    // The empty log is the best possible outcome (the failure needs
    // no perturbation at all); test it first — it is also ddmin's
    // complement of the whole.
    if (check({})) {
        result.log.clear();
        result.stillFails = true;
        return result;
    }
    if (!check(result.log))
        return result; // not reproducible; return the input unshrunk
    result.stillFails = true;

    // ddmin: remove ever-finer chunks while the failure persists.
    std::size_t chunks = 2;
    while (result.log.size() >= 2 && result.replays < maxReplays) {
        chunks = std::min(chunks, result.log.size());
        const std::size_t n = result.log.size();
        bool reduced = false;
        for (std::size_t i = 0; i < chunks; ++i) {
            std::size_t begin = i * n / chunks;
            std::size_t end = (i + 1) * n / chunks;
            if (begin == end)
                continue;
            DecisionLog candidate = without(result.log, begin, end);
            if (check(candidate)) {
                result.log = std::move(candidate);
                chunks = std::max<std::size_t>(2, chunks - 1);
                reduced = true;
                break;
            }
        }
        if (reduced)
            continue;
        if (chunks >= result.log.size())
            break;
        chunks = std::min(result.log.size(), chunks * 2);
    }

    // Greedy polish: drop single entries until 1-minimal.
    for (std::size_t i = 0;
         i < result.log.size() && result.replays < maxReplays;) {
        DecisionLog candidate = without(result.log, i, i + 1);
        if (check(candidate))
            result.log = std::move(candidate);
        else
            ++i;
    }
    return result;
}

ShrinkResult
shrinkDecisions(const FuzzTrialContext &ctx, const DecisionLog &log,
                unsigned tornWords, unsigned maxReplays)
{
    System::Seeded seeded;
    return shrinkLog(
        log,
        [&ctx, tornWords, &seeded](const DecisionLog &candidate) {
            return replayDecisions(ctx, candidate, tornWords, seeded)
                .failed;
        },
        maxReplays);
}

} // namespace strand
