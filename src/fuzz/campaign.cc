#include "fuzz/campaign.hh"

#include "fuzz/repro.hh"

namespace strand
{

FuzzCellResult
runFuzzCell(const FuzzCellConfig &config)
{
    FuzzCellResult result;
    for (unsigned i = 0; i < config.trials; ++i) {
        FuzzTrialSpec spec = config.base;
        spec.seed = mixSeed(config.seed, i + 1);

        // One context per trial: the trial runs on it and, if it
        // fails, the shrinker's replays reuse it.
        const FuzzTrialContext ctx = makeTrialContext(spec);
        FuzzTrialResult trial = runFuzzTrial(ctx);
        ++result.trials;
        result.pointsChecked += trial.pointsChecked;
        result.queries += trial.queries;
        result.holds += trial.decisions.size();
        result.hostEvents += trial.hostEvents;
        result.simOps += trial.simOps;
        if (!trial.failed)
            continue;
        ++result.failingTrials;
        if (result.failures.size() >= config.maxFailures)
            continue;

        FuzzFailure failure;
        failure.trialSeed = spec.seed;
        failure.crashTick = trial.crashTick;
        failure.tornWords = trial.tornWords;
        failure.violation = trial.violation;
        failure.rawDecisions = trial.decisions.size();
        failure.replayDiverged = trial.replayDiverged;

        DecisionLog reduced = trial.decisions;
        if (config.shrink && !trial.replayDiverged &&
            !trial.checkDiverged) {
            ShrinkResult shrunk = shrinkDecisions(
                ctx, trial.decisions, trial.tornWords,
                config.shrinkBudget);
            if (shrunk.stillFails)
                reduced = std::move(shrunk.log);
        }
        failure.shrunkDecisions = reduced.size();
        failure.shrunk = std::move(reduced);

        if (!config.reproDir.empty()) {
            FuzzRepro repro;
            repro.spec = spec;
            repro.tornWords = trial.tornWords;
            repro.decisions = failure.shrunk;
            repro.violation = failure.violation;
            failure.reproPath = writeRepro(repro, config.reproDir);
        }
        result.failures.push_back(std::move(failure));
    }
    return result;
}

} // namespace strand
