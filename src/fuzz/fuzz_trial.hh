/**
 * @file
 * One fuzz trial: a workload run under an adversarial drain schedule
 * with crash-recovery checking at every PM admission.
 *
 * A trial derives three sub-seeds from its trial seed (workload op
 * mix, adversary schedule, torn-word selection), then runs twice:
 *
 *  1. A recording run executes the cell under a recording
 *     DrainAdversary, producing the decision log and a hash of the
 *     persist trace.
 *  2. A replay run applies that exact log through a replaying
 *     adversary and, at every ADR admission (plus the completed
 *     run), snapshots the persisted image — torn at the trial's
 *     word mask — recovers it with the Figure 6 protocol (paged log
 *     scan, RecoveryScan::Paged) and validates it against the
 *     CrashOracle and the workload's structural invariants. The
 *     invariants are checked incrementally (IncrementalInvariants:
 *     only the units that read a line changed since the previous
 *     checked image); every final image also gets the full walk, and
 *     a disagreement fails the trial as its own class
 *     (checkDiverged). The persist-trace hash of the replay must
 *     equal the recording run's: any divergence is itself reported
 *     as a trial failure (it would mean the trial is not replayable
 *     from (seed, log), breaking shrinking).
 *
 * replayDecisions() is the shrinker's predicate: because the
 * adversary treats queries without a log entry as "proceed", any
 * sub-log is a legal schedule and can be replayed unchanged.
 */

#ifndef FUZZ_FUZZ_TRIAL_HH
#define FUZZ_FUZZ_TRIAL_HH

#include <optional>
#include <string>

#include "core/experiment.hh"
#include "core/system.hh"
#include "crash/media_faults.hh"
#include "fuzz/adversary.hh"

namespace strand
{

/** Everything defining one fuzz trial. */
struct FuzzTrialSpec
{
    WorkloadKind kind = WorkloadKind::Queue;
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Txn;
    LogStyle logStyle = LogStyle::Undo;
    unsigned numThreads = 2;
    unsigned opsPerThread = 12;
    /** Engine/system knobs (hopsEpochInterlock travels in here). */
    ExperimentConfig experiment;
    /** Recording-mode knobs; the seed is overwritten per trial. */
    AdversaryParams adversary;
    /** Master seed; workload/adversary/torn seeds derive from it. */
    std::uint64_t seed = 1;
    /**
     * Attach the PMO-san online persist-order checker to the replay
     * run; its violations fail the trial through the same shrinkable
     * path as recovery violations. Unset defers to SW_PMOSAN.
     */
    std::optional<bool> pmosan;
    /**
     * Forked-trial fast path: run the recording pass WITH injection
     * attached (the observers are pure, so the schedule is the one a
     * recording-only run produces), skipping the replay for passing
     * trials. A failing trial falls back to the classic replay with
     * its divergence check, so campaign failures remain replayable
     * from (seed, log) and shrinkable exactly as in classic mode. The
     * trade-off: passing trials skip the replay-divergence check.
     * Both paths recover with the paged log scan
     * (RecoveryScan::Paged), as do the shrinker's replays.
     * Unset defers to SW_CRASH_FORK.
     */
    std::optional<bool> fork;
    /**
     * Media-fault fuzzing: per-crash-point maxima for the three
     * fault classes. Unlike the crash harness's seeded applier, the
     * fuzzer decides each fault opportunity through the adversary's
     * decision log (sites media-poison / media-flip / media-drop), so
     * fault sets shrink with ddmin like schedules. config.seed is
     * unused here — entropy rides in the decisions. Any non-zero
     * class forces the forked trial path: the classic recording run
     * has no injection attached, so it would never see (and thus
     * never log) a media opportunity.
     */
    MediaFaultConfig media;
    /**
     * Verify per-entry checksums during recovery. Off replays the
     * pre-checksum layout's behavior — the regression mode proving
     * silent corruption slips through unchecksummed recovery.
     */
    bool verifyChecksums = true;
    /**
     * Forked schedule branching (needs fork): snapshot the whole
     * machine at adversary decision sites during the recording run,
     * then explore this many extra schedule suffixes from the warm
     * prefix, each under a reseeded adversary. A failing branch is
     * confirmed by replaying its full decision log from tick zero —
     * the exact predicate the shrinker uses — so branch failures
     * shrink like main-schedule failures. Unset defers to
     * SW_FUZZ_FORK_BRANCH.
     */
    std::optional<unsigned> forkBranches;
};

/** A trial spec with its derived seeds and recorded workload. */
struct FuzzTrialContext
{
    FuzzTrialSpec spec;
    std::uint64_t workloadSeed = 0;
    std::uint64_t adversarySeed = 0;
    std::uint64_t tornSeed = 0;
    RecordedWorkload recorded;
};

/** Outcome of replaying one decision log with injection. */
struct FuzzReplayOutcome
{
    bool failed = false;
    /** First violation message (empty when passed). */
    std::string violation;
    /** Tick of the first failing injection. */
    Tick crashTick = 0;
    unsigned pointsChecked = 0;
    unsigned pointsFailed = 0;
    /** FNV-1a hash of the persist trace (replay-divergence check). */
    std::uint64_t traceHash = 0;
    /** True when the incremental invariant verdict on a final image
     * differed from the full walk (then violation says so). */
    bool checkDiverged = false;
    Tick endTick = 0;
    /** Kernel events serviced by the replay run (host observability). */
    std::uint64_t hostEvents = 0;
    /** Ops committed by the replay run (host observability). */
    std::uint64_t simOps = 0;
};

/** Outcome of a full trial. */
struct FuzzTrialResult
{
    bool failed = false;
    std::string violation;
    Tick crashTick = 0;
    /** Words admitted of each injection's final line (8 = whole). */
    unsigned tornWords = 8;
    unsigned pointsChecked = 0;
    unsigned pointsFailed = 0;
    /** The recorded adversarial schedule (replay input). */
    DecisionLog decisions;
    /** consider() queries the recording run answered. */
    std::uint64_t queries = 0;
    std::uint64_t workloadSeed = 0;
    std::uint64_t adversarySeed = 0;
    std::uint64_t traceHash = 0;
    /** True when record and replay persist traces diverged. */
    bool replayDiverged = false;
    /** True when the incremental invariant check disagreed with the
     * full walk on a final image: a checker bug, reported as its own
     * failure class. */
    bool checkDiverged = false;
    /** Extra schedule suffixes explored from mid-run snapshots. */
    unsigned branchesExplored = 0;
    /** 0 = the main schedule; else the 1-based failing branch. */
    unsigned failingBranch = 0;
    /** Kernel events over record + replay runs (host observability). */
    std::uint64_t hostEvents = 0;
    /** Ops committed over record + replay runs (host observability). */
    std::uint64_t simOps = 0;
};

/** SplitMix64 — derives independent sub-seeds from a master seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** Record the workload and derive sub-seeds (once per trial). */
FuzzTrialContext makeTrialContext(const FuzzTrialSpec &spec);

/**
 * Replay @p log against @p ctx, injecting a (possibly torn)
 * crash-recovery check at every PM admission and after completion.
 * Deterministic in (ctx, log, tornWords).
 */
FuzzReplayOutcome replayDecisions(const FuzzTrialContext &ctx,
                                  const DecisionLog &log,
                                  unsigned tornWords);

/**
 * replayDecisions() starting from @p seeded, the machine state a
 * previous run on the same @p ctx left there (System::Seeded); the
 * outcome is the same. Replays of one context should share one.
 */
FuzzReplayOutcome replayDecisions(const FuzzTrialContext &ctx,
                                  const DecisionLog &log,
                                  unsigned tornWords,
                                  System::Seeded &seeded);

/**
 * Run one complete trial (record, then replay with injection) on a
 * context from makeTrialContext(), which a failing trial's shrinker
 * can reuse.
 */
FuzzTrialResult runFuzzTrial(const FuzzTrialContext &ctx);

/** runFuzzTrial() on a fresh makeTrialContext(@p spec). */
FuzzTrialResult runFuzzTrial(const FuzzTrialSpec &spec);

} // namespace strand

#endif // FUZZ_FUZZ_TRIAL_HH
