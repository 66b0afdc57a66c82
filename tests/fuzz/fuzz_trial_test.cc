/**
 * End-to-end tests of the fuzz-trial machinery.
 *
 *  - Replay determinism: a trial is a pure function of its spec, and
 *    replaying one decision log twice yields byte-identical outcomes
 *    (the property the shrinker's predicate rests on).
 *  - Planted-bug convergence: an IntelEngine with the test-only
 *    plantedEpochBug (an SFENCE miscounts adversarially held CLWBs
 *    as complete) fails ONLY under particular schedules; the
 *    campaign must catch it and ddmin must reduce the schedule to a
 *    handful of causal holds, emitting a replayable reproducer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/campaign.hh"
#include "fuzz/repro.hh"

namespace strand
{
namespace
{

FuzzTrialSpec
lightSpec()
{
    FuzzTrialSpec spec;
    spec.kind = WorkloadKind::Queue;
    spec.design = HwDesign::StrandWeaver;
    spec.model = PersistencyModel::Txn;
    spec.numThreads = 2;
    spec.opsPerThread = 8;
    spec.seed = 0x7e57;
    return spec;
}

TEST(FuzzTrial, TrialsAreSeedDeterministic)
{
    FuzzTrialResult first = runFuzzTrial(lightSpec());
    FuzzTrialResult second = runFuzzTrial(lightSpec());

    EXPECT_EQ(first.decisions, second.decisions);
    EXPECT_EQ(first.queries, second.queries);
    EXPECT_EQ(first.tornWords, second.tornWords);
    EXPECT_EQ(first.traceHash, second.traceHash);
    EXPECT_EQ(first.failed, second.failed);
    EXPECT_EQ(first.violation, second.violation);
    EXPECT_EQ(first.crashTick, second.crashTick);
    EXPECT_EQ(first.pointsChecked, second.pointsChecked);

    // The adversary actually perturbed the schedule, the trial
    // checked recovery along it, and replay tracked the recording.
    EXPECT_FALSE(first.decisions.empty());
    EXPECT_GT(first.pointsChecked, 0u);
    EXPECT_FALSE(first.replayDiverged);
    EXPECT_FALSE(first.failed) << first.violation;
}

TEST(FuzzTrial, TrialOnAContextMatchesTrialOnItsSpec)
{
    // runFuzzCell records each trial's workload once and hands the
    // context to both the trial and the shrinker; the trial must not
    // care which way it got its context. A failing NON-ATOMIC nstore
    // trial also runs the incremental invariant checks.
    FuzzTrialSpec spec = lightSpec();
    spec.kind = WorkloadKind::NStoreBalanced;
    spec.design = HwDesign::NonAtomic;
    const FuzzTrialContext ctx = makeTrialContext(spec);
    FuzzTrialResult onSpec = runFuzzTrial(spec);
    FuzzTrialResult onContext = runFuzzTrial(ctx);
    EXPECT_EQ(onContext.decisions, onSpec.decisions);
    EXPECT_EQ(onContext.tornWords, onSpec.tornWords);
    EXPECT_EQ(onContext.traceHash, onSpec.traceHash);
    EXPECT_EQ(onContext.failed, onSpec.failed);
    EXPECT_EQ(onContext.violation, onSpec.violation);
    EXPECT_EQ(onContext.crashTick, onSpec.crashTick);
    EXPECT_EQ(onContext.pointsChecked, onSpec.pointsChecked);
    EXPECT_EQ(onContext.pointsFailed, onSpec.pointsFailed);
    EXPECT_FALSE(onContext.checkDiverged) << onContext.violation;
    EXPECT_GT(onContext.pointsChecked, 0u);
}

TEST(FuzzTrial, ReplayingOneLogIsReproducible)
{
    FuzzTrialContext ctx = makeTrialContext(lightSpec());
    FuzzTrialResult trial = runFuzzTrial(lightSpec());

    FuzzReplayOutcome a =
        replayDecisions(ctx, trial.decisions, trial.tornWords);
    FuzzReplayOutcome b =
        replayDecisions(ctx, trial.decisions, trial.tornWords);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.pointsChecked, b.pointsChecked);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.endTick, b.endTick);

    // And a sub-log is still a legal, replayable schedule.
    DecisionLog half(
        trial.decisions.begin(),
        trial.decisions.begin() +
            static_cast<std::ptrdiff_t>(trial.decisions.size() / 2));
    FuzzReplayOutcome sub = replayDecisions(ctx, half, trial.tornWords);
    EXPECT_GT(sub.pointsChecked, 0u);
    EXPECT_FALSE(sub.failed) << sub.violation;
}

TEST(FuzzTrial, ForkedFastPathMatchesClassicOnPassingTrials)
{
    // The forked fast path runs the recording pass with injection
    // attached and the paged recovery scan. The injection observers
    // are pure, so the adversary's schedule — and with it every
    // field a campaign consumes — must match the classic
    // record-then-replay pair exactly.
    FuzzTrialSpec classicSpec = lightSpec();
    classicSpec.fork = false;
    FuzzTrialSpec forkedSpec = lightSpec();
    forkedSpec.fork = true;

    FuzzTrialResult classic = runFuzzTrial(classicSpec);
    FuzzTrialResult forked = runFuzzTrial(forkedSpec);

    ASSERT_FALSE(classic.failed) << classic.violation;
    EXPECT_FALSE(forked.failed) << forked.violation;
    EXPECT_EQ(forked.decisions, classic.decisions);
    EXPECT_EQ(forked.queries, classic.queries);
    EXPECT_EQ(forked.tornWords, classic.tornWords);
    EXPECT_EQ(forked.traceHash, classic.traceHash);
    EXPECT_EQ(forked.pointsChecked, classic.pointsChecked);
    EXPECT_EQ(forked.pointsFailed, classic.pointsFailed);
    EXPECT_FALSE(forked.replayDiverged);

    // The speedup mechanism: one simulation run instead of two.
    EXPECT_LT(forked.hostEvents, classic.hostEvents);
    EXPECT_LT(forked.simOps, classic.simOps);
}

TEST(FuzzTrial, ForkedFailingTrialFallsBackToClassicReplay)
{
    // A failing forked trial re-runs through the classic replay
    // path, so the reported failure is the oracle's — replayable
    // from (seed, log) and shrinkable exactly as in classic mode.
    FuzzTrialSpec classicSpec = lightSpec();
    classicSpec.design = HwDesign::NonAtomic;
    classicSpec.fork = false;
    FuzzTrialSpec forkedSpec = classicSpec;
    forkedSpec.fork = true;

    FuzzTrialResult classic = runFuzzTrial(classicSpec);
    FuzzTrialResult forked = runFuzzTrial(forkedSpec);

    ASSERT_TRUE(classic.failed);
    EXPECT_TRUE(forked.failed);
    EXPECT_FALSE(forked.replayDiverged);
    EXPECT_EQ(forked.violation, classic.violation);
    EXPECT_EQ(forked.crashTick, classic.crashTick);
    EXPECT_EQ(forked.decisions, classic.decisions);
    EXPECT_EQ(forked.traceHash, classic.traceHash);
    EXPECT_EQ(forked.pointsChecked, classic.pointsChecked);
    EXPECT_EQ(forked.pointsFailed, classic.pointsFailed);
}

TEST(FuzzTrial, ForkBranchingLeavesTheMainScheduleUntouched)
{
    // Branch suffixes are explored from restored machine snapshots
    // AFTER the main schedule completes; nothing they do may leak
    // into the fields a campaign consumes for the main schedule.
    FuzzTrialSpec plain = lightSpec();
    plain.fork = true;
    plain.forkBranches = 0;
    FuzzTrialSpec branched = lightSpec();
    branched.fork = true;
    branched.forkBranches = 3;

    FuzzTrialResult base = runFuzzTrial(plain);
    FuzzTrialResult withBranches = runFuzzTrial(branched);

    ASSERT_FALSE(base.failed) << base.violation;
    ASSERT_FALSE(withBranches.failed) << withBranches.violation;
    EXPECT_EQ(withBranches.decisions, base.decisions);
    EXPECT_EQ(withBranches.queries, base.queries);
    EXPECT_EQ(withBranches.traceHash, base.traceHash);
    EXPECT_EQ(withBranches.pointsChecked, base.pointsChecked);
    EXPECT_EQ(withBranches.tornWords, base.tornWords);
    EXPECT_EQ(withBranches.failingBranch, 0u);
    EXPECT_EQ(base.branchesExplored, 0u);
    EXPECT_EQ(withBranches.branchesExplored, 3u);
    // Branch tails are real simulation work, visible in the host
    // observability counters.
    EXPECT_GT(withBranches.hostEvents, base.hostEvents);
    EXPECT_GT(withBranches.simOps, base.simOps);
}

TEST(FuzzTrial, FailingBranchIsConfirmedThroughTheOraclePath)
{
    // A schedule-dependent bug that the main schedule misses but a
    // forked suffix hits: the planted epoch bug at a hold rate low
    // enough (2%) that the main schedule stays clean at this seed,
    // while branch reseeding finds a failing suffix from the same
    // warm prefix. The branch failure must come back confirmed by
    // the tick-zero replay of its full decision log — the predicate
    // the shrinker uses — with no divergence.
    FuzzTrialSpec spec;
    spec.kind = WorkloadKind::Queue;
    spec.design = HwDesign::IntelX86;
    spec.model = PersistencyModel::Txn;
    spec.numThreads = 2;
    spec.opsPerThread = 10;
    spec.experiment.engine.plantedEpochBug = true;
    spec.adversary.deferChance = 0.02;
    spec.seed = 3;
    spec.fork = true;

    spec.forkBranches = 0;
    FuzzTrialResult main0 = runFuzzTrial(spec);
    ASSERT_FALSE(main0.failed)
        << "precondition: the main schedule must pass at this seed: "
        << main0.violation;

    spec.forkBranches = 4;
    FuzzTrialResult branched = runFuzzTrial(spec);
    ASSERT_TRUE(branched.failed)
        << "a forked suffix must catch the planted bug";
    EXPECT_GT(branched.failingBranch, 0u);
    EXPECT_FALSE(branched.replayDiverged)
        << "replaying the branch log from tick zero must reproduce "
           "the restored-snapshot execution";
    EXPECT_FALSE(branched.violation.empty());
    EXPECT_FALSE(branched.decisions.empty());
    EXPECT_GT(branched.pointsFailed, 0u);
    // Exploration stops at the first failing branch.
    EXPECT_EQ(branched.branchesExplored, branched.failingBranch);

    // The reported decision log IS the reproducer: replaying it
    // classically (the shrinker's predicate) fails the same way.
    FuzzTrialContext ctx = makeTrialContext(spec);
    FuzzReplayOutcome replay = replayDecisions(
        ctx, branched.decisions, branched.tornWords);
    EXPECT_TRUE(replay.failed);
    EXPECT_EQ(replay.traceHash, branched.traceHash);
}

TEST(FuzzTrial, ForkBranchingIsSeedDeterministic)
{
    FuzzTrialSpec spec = lightSpec();
    spec.fork = true;
    spec.forkBranches = 2;
    FuzzTrialResult a = runFuzzTrial(spec);
    FuzzTrialResult b = runFuzzTrial(spec);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.branchesExplored, b.branchesExplored);
    EXPECT_EQ(a.failingBranch, b.failingBranch);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.hostEvents, b.hostEvents);
    EXPECT_EQ(a.simOps, b.simOps);
}

TEST(FuzzTrial, NonAtomicViolationsAreFound)
{
    FuzzTrialSpec spec = lightSpec();
    spec.design = HwDesign::NonAtomic;
    FuzzTrialResult result = runFuzzTrial(spec);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.replayDiverged);
    EXPECT_FALSE(result.violation.empty());
}

TEST(FuzzTrial, PlantedBugIsCaughtAndShrunkToCausalHolds)
{
    FuzzCellConfig cfg;
    cfg.base.kind = WorkloadKind::Queue;
    cfg.base.design = HwDesign::IntelX86;
    cfg.base.model = PersistencyModel::Txn;
    cfg.base.numThreads = 2;
    cfg.base.opsPerThread = 10;
    cfg.base.experiment.engine.plantedEpochBug = true;
    cfg.trials = 1;
    cfg.seed = 0x9127;
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "sw_fuzz_planted_test";
    fs::remove_all(dir);
    cfg.reproDir = dir.string();

    FuzzCellResult result = runFuzzCell(cfg);
    ASSERT_EQ(result.failingTrials, 1u);
    ASSERT_EQ(result.failures.size(), 1u);
    const FuzzFailure &failure = result.failures.front();
    EXPECT_FALSE(failure.replayDiverged);
    // The raw adversarial schedule is large; the bug needs only a
    // few causal holds (acceptance bound: <= 10).
    EXPECT_GT(failure.rawDecisions, 10u);
    EXPECT_LE(failure.shrunkDecisions, 10u);
    EXPECT_GE(failure.shrunkDecisions, 1u)
        << "the planted bug requires a hold; an empty-schedule "
           "failure means it is not schedule-dependent";

    // The reproducer round-trips and replays to the same failure.
    ASSERT_FALSE(failure.reproPath.empty());
    std::ifstream in(failure.reproPath);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    auto repro = parseRepro(text.str(), &error);
    ASSERT_TRUE(repro.has_value()) << error;
    EXPECT_EQ(repro->spec.design, HwDesign::IntelX86);
    EXPECT_EQ(repro->decisions.size(), failure.shrunkDecisions);
    EXPECT_TRUE(repro->spec.experiment.engine.plantedEpochBug);

    // The shrunk schedule must still violate recovery; ddmin
    // preserves "fails", not the exact first-violation message of
    // the unshrunk schedule.
    FuzzReplayOutcome replayed = replayReproFile(failure.reproPath);
    EXPECT_TRUE(replayed.failed);
    EXPECT_GT(replayed.pointsFailed, 0u);
    fs::remove_all(dir);
}

TEST(FuzzTrial, IntelWithoutThePlantedBugPasses)
{
    // Sanity for the planted-bug test: the identical campaign with
    // the flag off finds nothing, so the catch above is the bug, not
    // fuzzer noise.
    FuzzCellConfig cfg;
    cfg.base.kind = WorkloadKind::Queue;
    cfg.base.design = HwDesign::IntelX86;
    cfg.base.model = PersistencyModel::Txn;
    cfg.base.numThreads = 2;
    cfg.base.opsPerThread = 10;
    cfg.trials = 1;
    cfg.seed = 0x9127;
    FuzzCellResult result = runFuzzCell(cfg);
    EXPECT_TRUE(result.allPassed())
        << result.failures.front().violation;
}

} // namespace
} // namespace strand
