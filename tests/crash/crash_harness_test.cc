/**
 * Crash-point fault-injection harness tests.
 *
 * Every recoverable design must pass injection at every crash point;
 * the NON-ATOMIC upper bound must be caught by the oracle (it omits
 * the log/update persist ordering, so some crash points expose
 * updates whose log entries never persisted).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "crash/crash_harness.hh"
#include "runtime/layout.hh"

namespace strand
{
namespace
{

RecordedWorkload
record(WorkloadKind kind, unsigned threads = 2, unsigned ops = 30)
{
    WorkloadParams params;
    params.numThreads = threads;
    params.opsPerThread = ops;
    return recordWorkload(kind, params);
}

CrashHarnessConfig
smallConfig(unsigned budget = 12)
{
    CrashHarnessConfig cfg;
    cfg.pointBudget = budget;
    return cfg;
}

TEST(CrashHarness, QueueRecoversAtEveryPointAcrossDesigns)
{
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    for (HwDesign design :
         {HwDesign::IntelX86, HwDesign::StrandWeaver}) {
        for (PersistencyModel model : allModels) {
            CrashCellResult cell = runCrashCell(recorded, design,
                                                model, smallConfig());
            EXPECT_GT(cell.pointsTested, 0u);
            EXPECT_TRUE(cell.allPassed())
                << hwDesignName(design) << "/"
                << persistencyModelName(model) << ": "
                << (cell.failures.empty()
                        ? "?"
                        : cell.failures.front().violation);
        }
    }
}

TEST(CrashHarness, HashmapRecoversUnderHopsAndNoPersistQueue)
{
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    for (HwDesign design :
         {HwDesign::Hops, HwDesign::NoPersistQueue}) {
        CrashCellResult cell = runCrashCell(
            recorded, design, PersistencyModel::Sfr, smallConfig());
        EXPECT_GT(cell.pointsTested, 0u);
        EXPECT_TRUE(cell.allPassed())
            << hwDesignName(design) << ": "
            << (cell.failures.empty()
                    ? "?"
                    : cell.failures.front().violation);
    }
}

TEST(CrashHarness, RolledBackEntriesAreObserved)
{
    // SFR defers commits to the background pruner, so many crash
    // points land with live uncommitted entries: recovery must do
    // real rollback work, and the harness must report it.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    CrashCellResult cell =
        runCrashCell(recorded, HwDesign::StrandWeaver,
                     PersistencyModel::Sfr, smallConfig(24));
    EXPECT_TRUE(cell.allPassed());
    EXPECT_GT(cell.totalRolledBack, 0u);
    EXPECT_EQ(cell.totalReplayed, 0u); // undo logging never replays
}

TEST(CrashHarness, RedoLoggingReplaysCommittedEntries)
{
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    CrashHarnessConfig cfg = smallConfig(24);
    cfg.logStyle = LogStyle::Redo;
    CrashCellResult cell = runCrashCell(
        recorded, HwDesign::StrandWeaver, PersistencyModel::Txn, cfg);
    EXPECT_TRUE(cell.allPassed())
        << (cell.failures.empty() ? "?"
                                  : cell.failures.front().violation);
    EXPECT_GT(cell.totalReplayed, 0u);
    EXPECT_EQ(cell.totalRolledBack, 0u); // redo never rolls back
}

TEST(CrashHarness, NonAtomicViolationsAreDetected)
{
    // The whole point of the oracle: a design without log/update
    // persist ordering must be caught losing consistency at some
    // crash point. (Deterministic: fixed seed, fixed schedule.)
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    unsigned violations = 0;
    for (PersistencyModel model : allModels) {
        CrashCellResult cell = runCrashCell(
            recorded, HwDesign::NonAtomic, model, smallConfig(24));
        violations += cell.pointsTested - cell.pointsPassed;
    }
    EXPECT_GT(violations, 0u);
}

TEST(CrashHarness, StatsAccumulateAcrossCells)
{
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    CrashStats stats("crash");
    CrashCellResult cell =
        runCrashCell(recorded, HwDesign::IntelX86,
                     PersistencyModel::Txn, smallConfig(), &stats);
    EXPECT_EQ(stats.pointsTested.value(),
              static_cast<double>(cell.pointsTested));
    EXPECT_EQ(stats.pointsPassed.value(),
              static_cast<double>(cell.pointsPassed));
    EXPECT_EQ(stats.rolledBack.samples(), cell.pointsTested);
}

TEST(CrashHarness, ZeroBudgetDisablesInjection)
{
    RecordedWorkload recorded = record(WorkloadKind::Queue, 1, 8);
    CrashCellResult cell =
        runCrashCell(recorded, HwDesign::StrandWeaver,
                     PersistencyModel::Txn, smallConfig(0));
    EXPECT_EQ(cell.pointsTested, 0u);
}

TEST(CrashHarness, TornPrefixesStayRecoverable)
{
    // Torn-line injection admits only the first k written words of
    // the final flushed line. The log-entry layout keeps seq and
    // globalSeq in the top words, so a torn log entry looks stale
    // (never-sequenced) and recovery skips it; a torn data line is
    // undone by its log entry. Either way a recoverable design must
    // still pass every point.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    for (unsigned tornWords : {1u, 4u}) {
        CrashHarnessConfig cfg = smallConfig();
        cfg.tornWords = tornWords;
        CrashCellResult cell =
            runCrashCell(recorded, HwDesign::StrandWeaver,
                         PersistencyModel::Txn, cfg);
        EXPECT_GT(cell.pointsTested, 0u);
        EXPECT_TRUE(cell.allPassed())
            << "tornWords=" << tornWords << ": "
            << (cell.failures.empty()
                    ? "?"
                    : cell.failures.front().violation);
    }
}

TEST(CrashHarness, SevenWordTearsKeepFrontierModelsRecoverable)
{
    // Regression for a latent layout bug the fuzzer surfaced: with
    // globalSeq above seq, a 7-word tear of a region-end log entry
    // kept a valid-looking seq while globalSeq read as stale zero,
    // fell below the SFR/ATLAS commit frontier, and masked the
    // region's uncommitted updates from rollback. seq now occupies
    // the line's top word, so any tear of an entry line fails the
    // seq<->slot check and the entry is dropped as unpublished.
    static_assert(log_field::seq == 56,
                  "seq must stay the top word of the entry line — "
                  "prefix tears must drop it first");
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    for (PersistencyModel model :
         {PersistencyModel::Sfr, PersistencyModel::Atlas}) {
        CrashHarnessConfig cfg = smallConfig(24);
        cfg.tornWords = 7;
        CrashCellResult cell = runCrashCell(
            recorded, HwDesign::StrandWeaver, model, cfg);
        EXPECT_GT(cell.pointsTested, 0u);
        EXPECT_TRUE(cell.allPassed())
            << persistencyModelName(model) << ": "
            << (cell.failures.empty()
                    ? "?"
                    : cell.failures.front().violation);
    }
}

TEST(CrashHarness, TornCommitsAreFlaggedUnderNonAtomic)
{
    // NON-ATOMIC lacks the log/update persist ordering, so exposing
    // partially-admitted lines at the crash point must still be
    // caught by the oracle: the torn matrix cells stay meaningful.
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    CrashHarnessConfig cfg = smallConfig(24);
    cfg.tornWords = 1;
    CrashCellResult cell = runCrashCell(
        recorded, HwDesign::NonAtomic, PersistencyModel::Txn, cfg);
    EXPECT_GT(cell.pointsTested, 0u);
    EXPECT_LT(cell.pointsPassed, cell.pointsTested);
}

TEST(CrashHarness, MediaFaultsKeepRecoverableDesignsSalvageable)
{
    // With poison / flips / partial drain struck at every crash
    // point, a recoverable design must still pass every point: each
    // verdict is FULL or DEGRADED (never FAILED — faults spare the
    // metadata area by design), and degraded points reconcile
    // against the oracle through the quarantine report.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    CrashHarnessConfig cfg = smallConfig(24);
    cfg.media.poisonLines = 2;
    cfg.media.bitFlips = 2;
    cfg.media.dropAdmissions = 2;
    for (PersistencyModel model :
         {PersistencyModel::Txn, PersistencyModel::Sfr}) {
        CrashCellResult cell = runCrashCell(
            recorded, HwDesign::StrandWeaver, model, cfg);
        EXPECT_GT(cell.pointsTested, 0u);
        EXPECT_TRUE(cell.allPassed())
            << persistencyModelName(model) << ": "
            << (cell.failures.empty()
                    ? "?"
                    : cell.failures.front().violation);
        EXPECT_EQ(cell.verdictFailed, 0u);
        EXPECT_EQ(cell.verdictFull + cell.verdictDegraded,
                  cell.pointsInjected);
        // The fault model actually bit: some point was salvaged
        // rather than fully recovered.
        EXPECT_GT(cell.verdictDegraded, 0u);
        EXPECT_GT(cell.totalPoisonedQuarantined +
                      cell.totalCorruptQuarantined +
                      cell.totalQuarantinedAddrs,
                  0u);
    }
}

TEST(CrashHarness, MediaVerdictsAreIdenticalAcrossHarnessModes)
{
    // Faults are a pure function of (media.seed, crash tick), so the
    // forked rewind and the two-run oracle must reach bit-identical
    // verdicts and quarantine tallies at the same plan.
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    CrashHarnessConfig cfg = smallConfig(20);
    cfg.media.poisonLines = 1;
    cfg.media.bitFlips = 1;
    cfg.media.dropAdmissions = 2;
    cfg.fork = false;
    CrashCellResult tworun = runCrashCell(
        recorded, HwDesign::StrandWeaver, PersistencyModel::Atlas,
        cfg);
    cfg.fork = true;
    CrashCellResult forked = runCrashCell(
        recorded, HwDesign::StrandWeaver, PersistencyModel::Atlas,
        cfg);

    EXPECT_GT(tworun.pointsTested, 0u);
    EXPECT_EQ(forked.pointsTested, tworun.pointsTested);
    EXPECT_EQ(forked.pointsPassed, tworun.pointsPassed);
    EXPECT_EQ(forked.pointsInjected, tworun.pointsInjected);
    EXPECT_EQ(forked.verdictFull, tworun.verdictFull);
    EXPECT_EQ(forked.verdictDegraded, tworun.verdictDegraded);
    EXPECT_EQ(forked.verdictFailed, tworun.verdictFailed);
    EXPECT_EQ(forked.totalRolledBack, tworun.totalRolledBack);
    EXPECT_EQ(forked.totalReplayed, tworun.totalReplayed);
    EXPECT_EQ(forked.totalTornSkipped, tworun.totalTornSkipped);
    EXPECT_EQ(forked.totalCorruptQuarantined,
              tworun.totalCorruptQuarantined);
    EXPECT_EQ(forked.totalPoisonedQuarantined,
              tworun.totalPoisonedQuarantined);
    EXPECT_EQ(forked.totalQuarantinedAddrs,
              tworun.totalQuarantinedAddrs);
}

TEST(CrashHarness, UncheckedRecoveryUnderFlipsIsCaughtByTheOracle)
{
    // The checksum regression pair at harness level: bit flips with
    // verification OFF reproduce the un-checksummed layout, where
    // recovery trusts flipped entries and rolls corrupt values into
    // the heap — the oracle must flag that as silent corruption on
    // at least one (seed, point). The SAME seeds with verification
    // ON must pass every point.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    unsigned uncheckedFailures = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        CrashHarnessConfig cfg = smallConfig(24);
        cfg.media.bitFlips = 2;
        cfg.media.seed = seed;

        cfg.verifyChecksums = false;
        CrashCellResult unchecked = runCrashCell(
            recorded, HwDesign::StrandWeaver, PersistencyModel::Txn,
            cfg);
        uncheckedFailures +=
            unchecked.pointsTested - unchecked.pointsPassed;

        cfg.verifyChecksums = true;
        CrashCellResult checked = runCrashCell(
            recorded, HwDesign::StrandWeaver, PersistencyModel::Txn,
            cfg);
        EXPECT_TRUE(checked.allPassed())
            << "seed " << seed << ": "
            << (checked.failures.empty()
                    ? "?"
                    : checked.failures.front().violation);
    }
    EXPECT_GT(uncheckedFailures, 0u)
        << "flips with verification off must produce silent "
           "corruption the oracle can see";
}

TEST(CrashExperiment, EnvKnobRunsInjectionInsideRunExperiment)
{
    // SW_CRASH_POINTS wires injection into every validated
    // experiment; a recoverable design must pass. The env_config
    // module parses the environment once per process, on first use,
    // so an earlier test in this binary may already have pinned the
    // knobs. The check therefore runs in a fresh child process: the
    // "threadsafe" death-test style re-executes this binary for this
    // one test, and the child reports what it saw on stderr.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto child = [] {
        ASSERT_EQ(setenv("SW_CRASH_POINTS", "6", 1), 0);
        const unsigned parsed = benchCrashPoints();
        RecordedWorkload recorded = record(WorkloadKind::Queue, 1, 12);
        // validate=false skips injection, so the difference in host
        // events is the injection's own work.
        RunMetrics plain =
            runExperiment(recorded, HwDesign::StrandWeaver,
                          PersistencyModel::Txn, {}, false);
        RunMetrics injected =
            runExperiment(recorded, HwDesign::StrandWeaver,
                          PersistencyModel::Txn);
        ASSERT_EQ(unsetenv("SW_CRASH_POINTS"), 0);
        std::fprintf(stderr,
                     "points=%u injected=%d same_run=%d after_unset=%u\n",
                     parsed, injected.hostEvents > plain.hostEvents,
                     injected.runTicks == plain.runTicks &&
                         plain.runTicks > 0,
                     benchCrashPoints());
        std::exit(0);
    };
    // after_unset=6: the environment is parsed once, so unsetenv is
    // invisible to later reads.
    EXPECT_EXIT(child(), ::testing::ExitedWithCode(0),
                "points=6 injected=1 same_run=1 after_unset=6");
}

} // namespace
} // namespace strand
