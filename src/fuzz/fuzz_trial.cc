#include "fuzz/fuzz_trial.hh"

#include <deque>

#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "crash/crash_oracle.hh"
#include "fuzz/incremental_check.hh"
#include "runtime/instrumentor.hh"
#include "runtime/recovery.hh"
#include "sanitizer/pmo_sanitizer.hh"
#include "sim/random.hh"

namespace strand
{

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    // SplitMix64 of (seed + stream * golden gamma): the standard way
    // to fan one master seed out into independent streams.
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FuzzTrialContext
makeTrialContext(const FuzzTrialSpec &spec)
{
    FuzzTrialContext ctx;
    ctx.spec = spec;
    ctx.workloadSeed = mixSeed(spec.seed, 1);
    ctx.adversarySeed = mixSeed(spec.seed, 2);
    ctx.tornSeed = mixSeed(spec.seed, 3);

    WorkloadParams params;
    params.numThreads = spec.numThreads;
    params.opsPerThread = spec.opsPerThread;
    params.seed = ctx.workloadSeed;
    ctx.recorded = recordWorkload(spec.kind, params);
    return ctx;
}

namespace
{

bool
pmosanEnabled(const FuzzTrialSpec &spec)
{
    return spec.pmosan.value_or(envConfig().pmosan.value_or(false));
}

/** Streams, oracle, and a system factory for one (ctx, adversary). */
struct TrialRig
{
    InstrumentorParams ip;
    std::vector<OpStream> streams;
    CrashOracle oracle;

    TrialRig(const FuzzTrialContext &ctx)
        : ip(), streams(), oracle([&]() -> CrashOracle {
              ip.design = ctx.spec.design;
              ip.model = ctx.spec.model;
              ip.logStyle = ctx.spec.logStyle;
              Instrumentor instr(ip);
              streams = instr.lower(ctx.recorded.trace);
              return CrashOracle(ctx.recorded.trace,
                                 instr.regionLog(),
                                 ctx.recorded.preload, ip.layout);
          }())
    {
    }

    std::unique_ptr<System>
    buildSystem(const FuzzTrialContext &ctx, DrainAdversary *adv,
                System::Seeded &seeded)
    {
        SystemConfig sysCfg = ctx.spec.experiment.baseSystem;
        sysCfg.numCores = static_cast<unsigned>(streams.size());
        sysCfg.design = ctx.spec.design;
        sysCfg.engine = ctx.spec.experiment.engine;
        sysCfg.layout = ip.layout;
        sysCfg.adversary = adv;
        auto sys = std::make_unique<System>(sysCfg);
        sys->seedImage(ctx.recorded.preload, seeded);
        auto copies = streams;
        sys->loadStreams(std::move(copies));
        return sys;
    }
};

/**
 * Forked schedule branching: inputs and outcome of the extra suffix
 * explorations run from mid-run machine snapshots.
 */
struct BranchProbe
{
    /** Suffixes to explore from the warm prefix (0 = off). */
    unsigned branches = 0;
    /** SplitMix stream base for the per-branch adversary seeds. */
    std::uint64_t seedBase = 0;

    unsigned branchesRun = 0;
    bool failed = false;
    /** 1-based index of the first failing branch. */
    unsigned failingBranch = 0;
    /** Full decision log of the failing branch (prefix + suffix). */
    DecisionLog failingLog;
    /** queriesSeen() at the end of the failing branch. */
    std::uint64_t failingQueries = 0;
    /** End-to-end persist-trace hash of the failing branch. */
    std::uint64_t traceHash = 0;
    /** Kernel events / committed ops spent on branch tails. */
    std::uint64_t hostEvents = 0;
    std::uint64_t simOps = 0;
};

/**
 * Run one system under @p adv with crash-recovery injection at every
 * admission and after completion, recovering each crash image with
 * the paged log scan. The shared core of the replay run (replaying
 * adversary) and of the forked fast path (recording adversary). A
 * non-null @p probe with a branch budget additionally snapshots the
 * machine at power-of-two adversary query counts and, when the main
 * schedule passes, explores @c probe->branches reseeded suffixes from
 * the older capture.
 */
FuzzReplayOutcome
runWithInjection(const FuzzTrialContext &ctx, DrainAdversary &adv,
                 unsigned tornWords, System::Seeded &seeded,
                 BranchProbe *probe = nullptr)
{
    FuzzReplayOutcome outcome;
    TrialRig rig(ctx);

    auto sys = rig.buildSystem(ctx, &adv, seeded);
    RecoveryManager recovery{rig.ip.layout};
    const unsigned programThreads = ctx.recorded.params.numThreads;
    // Consecutive crash images differ in a few lines: re-check only
    // the invariant units that read one of them.
    std::optional<IncrementalInvariants> invariants;
    if (ctx.recorded.workload)
        invariants.emplace(*ctx.recorded.workload);

    // An admission point tears the admission that just happened; the
    // final image of a run is whole and also gets the full invariant
    // walk, which the incremental verdict must match.
    auto inject = [&](Tick when, bool atAdmission) {
        MemoryImage snapshot;
        if (!atAdmission || tornWords >= wordsPerLine) {
            snapshot = sys->memory().clonePersisted();
        } else {
            // Tear the admission that just happened: keep only the
            // first tornWords of its written words.
            std::uint8_t written = sys->memory().lastAdmissionMask();
            std::uint8_t admit = 0;
            unsigned kept = 0;
            for (unsigned i = 0;
                 i < wordsPerLine && kept < tornWords; ++i) {
                if (written & (1u << i)) {
                    admit |= static_cast<std::uint8_t>(1u << i);
                    ++kept;
                }
            }
            snapshot = sys->memory().clonePersistedTorn(admit);
        }
        // Media faults strike the frozen snapshot before the oracle
        // computes committed regions, so the oracle reasons over
        // exactly the image recovery sees. Each fault class asks the
        // adversary per opportunity; fired decisions carry their
        // entropy in the log, so replay and ddmin apply them exactly.
        if (ctx.spec.media.any()) {
            const AdmissionRing ring =
                sys->memory().recentAdmissions();
            unsigned dropped = 0;
            for (unsigned i = 0;
                 i < ctx.spec.media.dropAdmissions; ++i) {
                if (!adv.considerMedia(FuzzSite::MediaDrop))
                    continue;
                if (!mediaDropNewest(snapshot, ring, dropped))
                    break;
            }
            for (unsigned i = 0; i < ctx.spec.media.bitFlips; ++i) {
                if (auto entropy =
                        adv.considerMedia(FuzzSite::MediaFlip)) {
                    mediaFlipBit(snapshot, ring, dropped,
                                 rig.ip.layout, *entropy);
                }
            }
            for (unsigned i = 0; i < ctx.spec.media.poisonLines;
                 ++i) {
                if (auto entropy =
                        adv.considerMedia(FuzzSite::MediaPoison)) {
                    mediaPoisonLine(snapshot, ring, dropped,
                                    rig.ip.layout, *entropy);
                }
            }
        }
        std::vector<bool> committed =
            rig.oracle.committedRegions(snapshot);
        RecoveryOptions ropts;
        ropts.verifyChecksums = ctx.spec.verifyChecksums;
        RecoveryReport report =
            recovery.recover(snapshot, programThreads,
                             RecoveryScan::Paged, ropts);

        std::string err;
        if (report.verdict == RecoveryVerdict::Failed)
            err = "recovery FAILED: metadata area poisoned";
        else
            err = rig.oracle.checkRecovered(snapshot, committed,
                                            &report);
        // Structural invariants only bind un-degraded recoveries: a
        // quarantined region legitimately leaves the structure
        // partial ("degraded but consistent").
        if (err.empty() && report.verdict == RecoveryVerdict::Full &&
            invariants) {
            err = invariants->check(snapshot);
            if (!atAdmission) {
                auto read = [&snapshot](Addr addr) {
                    return snapshot.readPersisted(addr);
                };
                std::string full =
                    ctx.recorded.workload->checkInvariants(read);
                if (full != err) {
                    // A checker bug, not a recovery bug: its own
                    // failure class, and it displaces any earlier
                    // violation, which the same checker reported.
                    ++outcome.pointsChecked;
                    ++outcome.pointsFailed;
                    outcome.failed = true;
                    outcome.checkDiverged = true;
                    outcome.crashTick = when;
                    outcome.violation = sformat(
                        "incremental invariant check diverged from "
                        "the full walk: incremental \"{}\", full "
                        "\"{}\"",
                        err, full);
                    return;
                }
            }
        }
        ++outcome.pointsChecked;
        if (err.empty())
            return;
        ++outcome.pointsFailed;
        if (!outcome.failed) {
            outcome.failed = true;
            outcome.crashTick = when;
            outcome.violation = std::move(err);
        }
    };

    // Persisted state changes only at ADR admissions, so checking in
    // an admission observer covers every distinct post-crash image
    // this schedule can produce.
    AdmissionCallback injector([&inject](const PersistRecord &rec) {
        inject(rec.when, true);
    });
    TraceHasher hasher;
    PmoSanitizer sanitizer;
    sys->addObserver(&injector);
    sys->addObserver(&hasher);
    if (pmosanEnabled(ctx.spec))
        sys->addObserver(&sanitizer);

    auto foldSanitizer = [&] {
        if (sanitizer.ok())
            return;
        // Persist-order violations ride the same failure path as
        // recovery violations, so shrinking and .repro dumps apply.
        outcome.pointsFailed += 1;
        if (!outcome.failed) {
            outcome.failed = true;
            outcome.crashTick = sanitizer.violations().empty()
                                    ? outcome.endTick
                                    : sanitizer.violations()[0].when;
            outcome.violation = sanitizer.report();
        }
    };

    // Branching mode: capture the whole machine at power-of-two
    // adversary query counts. The capture itself runs in a deferred
    // Stat-priority one-shot, after every same-tick action has
    // settled and with the capture event already released — a restore
    // resumes exactly at the inter-event boundary. Only the last two
    // captures are kept; branches fork from the older one, so a
    // non-trivial suffix of the schedule remains to explore. The
    // extra events shift kernel seq numbers uniformly, which cannot
    // reorder dispatch, so the main schedule is unperturbed.
    struct Capture
    {
        Tick when = 0;
        SimSnapshot snap;
        DrainAdversary::State adv;
        PmoSanitizer::State san;
        std::uint64_t hash = 0;
        FuzzReplayOutcome outcome;
        std::uint64_t serviced = 0;
        std::uint64_t committed = 0;
    };
    std::deque<Capture> captures;
    bool capturing = true;
    if (probe && probe->branches > 0) {
        adv.setQueryHook([&](std::uint64_t queries) {
            if (!capturing || (queries & (queries - 1)) != 0)
                return;
            sys->eventQueue().schedule(
                sys->eventQueue().curTick(),
                [&] {
                    if (!capturing)
                        return;
                    Capture cap;
                    cap.when = sys->eventQueue().curTick();
                    cap.snap = sys->snapshot();
                    cap.adv = adv.snapshotState();
                    cap.san = sanitizer.snapshotState();
                    cap.hash = hasher.value();
                    cap.outcome = outcome;
                    cap.serviced = sys->eventsServiced();
                    cap.committed = static_cast<std::uint64_t>(
                        sys->totalCommitted());
                    inform("fuzz-fork capture @{}: {} keys",
                           cap.when, cap.snap.size());
                    captures.push_back(std::move(cap));
                    if (captures.size() > 2)
                        captures.pop_front();
                },
                EventPriority::Stat);
        });
    }

    outcome.endTick = sys->run();
    // A crash after the last persist must recover to the final state.
    inject(outcome.endTick, false);
    foldSanitizer();

    outcome.traceHash = hasher.value();
    outcome.hostEvents = sys->eventsServiced();
    outcome.simOps =
        static_cast<std::uint64_t>(sys->totalCommitted());

    if (probe && !captures.empty() && !outcome.failed) {
        // The main schedule passed: rewind to the older capture and
        // explore reseeded suffixes. Each branch restores machine,
        // adversary, hasher, and sanitizer to the same warm prefix,
        // then lets a fresh decision stream produce a different legal
        // schedule tail. The first failing branch stops exploration;
        // its full log is handed back for oracle confirmation.
        capturing = false;
        const Capture &cap = captures.front();
        const FuzzReplayOutcome mainOutcome = outcome;
        const DrainAdversary::State mainAdv = adv.snapshotState();
        for (unsigned b = 1;
             b <= probe->branches && !probe->failed; ++b) {
            sys->restore(cap.snap);
            adv.restoreState(cap.adv);
            adv.reseed(mixSeed(probe->seedBase, b));
            hasher.restoreValue(cap.hash);
            sanitizer.restoreState(cap.san);
            outcome = cap.outcome;
            inform("fuzz-fork branch {} from @{}", b, cap.when);
            outcome.endTick = sys->run();
            inject(outcome.endTick, false);
            foldSanitizer();
            ++probe->branchesRun;
            probe->hostEvents +=
                sys->eventsServiced() - cap.serviced;
            probe->simOps +=
                static_cast<std::uint64_t>(sys->totalCommitted()) -
                cap.committed;
            if (outcome.failed) {
                probe->failed = true;
                probe->failingBranch = b;
                probe->failingLog = adv.log();
                probe->failingQueries = adv.queriesSeen();
                probe->traceHash = hasher.value();
            }
        }
        // Hand the main schedule's log and outcome back to the
        // caller; the branches' state lives in the probe.
        adv.restoreState(mainAdv);
        outcome = mainOutcome;
    }
    return outcome;
}

} // namespace

FuzzReplayOutcome
replayDecisions(const FuzzTrialContext &ctx, const DecisionLog &log,
                unsigned tornWords)
{
    System::Seeded seeded;
    return replayDecisions(ctx, log, tornWords, seeded);
}

FuzzReplayOutcome
replayDecisions(const FuzzTrialContext &ctx, const DecisionLog &log,
                unsigned tornWords, System::Seeded &seeded)
{
    DrainAdversary adv = DrainAdversary::replaying(log);
    return runWithInjection(ctx, adv, tornWords, seeded);
}

FuzzTrialResult
runFuzzTrial(const FuzzTrialSpec &spec)
{
    return runFuzzTrial(makeTrialContext(spec));
}

FuzzTrialResult
runFuzzTrial(const FuzzTrialContext &ctx)
{
    const FuzzTrialSpec &spec = ctx.spec;
    FuzzTrialResult result;
    result.workloadSeed = ctx.workloadSeed;
    result.adversarySeed = ctx.adversarySeed;
    // Every machine of this trial is seeded from ctx's preload map:
    // the first seeds it, the rest share its image and L2 tags.
    System::Seeded seeded;

    // Torn-word mask for every injection of this trial: half the
    // trials keep admissions whole, the rest tear the final line
    // after 1..7 words. Drawn from its own seed stream, so both
    // trial modes see the same mask.
    Rng torn(ctx.tornSeed);
    result.tornWords =
        torn.chance(0.5) ? wordsPerLine
                         : static_cast<unsigned>(
                               torn.nextRange(1, wordsPerLine - 1));

    // Branch exploration needs the single warm run's snapshots, so a
    // non-zero branch count implies the forked trial path.
    const unsigned forkBranches = spec.forkBranches.value_or(
        envConfig().fuzzForkBranch.value_or(0));
    // Media fuzzing also implies it: the classic recording run has no
    // injection attached, so media opportunities would never be seen
    // (and never logged) outside the forked path.
    const bool forked =
        spec.fork.value_or(envConfig().crashFork.value_or(false)) ||
        forkBranches > 0 || spec.media.any();
    if (forked) {
        // Forked fast path: ONE recording run with injection
        // attached. The injection observers are pure (they clone the
        // image and recover the clone), so the adversary sees the
        // schedule of a recording-only run and logs the identical
        // decisions. A passing trial is done after this single run —
        // roughly half the classic wall-clock.
        AdversaryParams ap = spec.adversary;
        ap.seed = ctx.adversarySeed;
        DrainAdversary adv = DrainAdversary::recording(ap);
        BranchProbe probe;
        probe.branches = forkBranches;
        // Branch seeds come from their own SplitMix stream so branch
        // k never collides with the trial's workload/adversary/torn
        // sub-seeds (streams 1..3).
        probe.seedBase = mixSeed(ctx.adversarySeed, 0x5eed);
        FuzzReplayOutcome fast =
            runWithInjection(ctx, adv, result.tornWords, seeded, &probe);
        result.decisions = adv.log();
        result.queries = adv.queriesSeen();
        result.hostEvents += fast.hostEvents + probe.hostEvents;
        result.simOps += fast.simOps + probe.simOps;
        result.branchesExplored = probe.branchesRun;
        if (!fast.failed && probe.failed) {
            // The main schedule passed but a forked suffix failed:
            // confirm by replaying the branch's full decision log
            // from tick zero — the exact predicate the shrinker
            // applies to sub-logs. The replay must also reproduce
            // the restored-prefix execution's persist trace bit for
            // bit; a mismatch means snapshot restore is not
            // deterministic and is reported as its own failure
            // class.
            FuzzReplayOutcome confirm = replayDecisions(
                ctx, probe.failingLog, result.tornWords, seeded);
            result.decisions = probe.failingLog;
            result.queries = probe.failingQueries;
            result.failingBranch = probe.failingBranch;
            result.failed = confirm.failed;
            result.checkDiverged = confirm.checkDiverged;
            result.violation = confirm.violation;
            result.crashTick = confirm.crashTick;
            result.pointsChecked = confirm.pointsChecked;
            result.pointsFailed = confirm.pointsFailed;
            result.traceHash = confirm.traceHash;
            result.hostEvents += confirm.hostEvents;
            result.simOps += confirm.simOps;
            if (confirm.traceHash != probe.traceHash) {
                result.replayDiverged = true;
                result.failed = true;
                if (result.violation.empty())
                    result.violation =
                        "replay divergence: replaying the forked "
                        "branch's decision log does not reproduce "
                        "the restored-snapshot execution";
            }
            return result;
        }
        if (!fast.failed) {
            result.pointsChecked = fast.pointsChecked;
            result.pointsFailed = fast.pointsFailed;
            result.traceHash = fast.traceHash;
            return result;
        }
        // Confirm the failure through the oracle path: replay the
        // recorded log from tick 0, exactly what the shrinker will
        // do. The divergence check below compares against the fast
        // run's trace.
        FuzzReplayOutcome outcome = replayDecisions(
            ctx, result.decisions, result.tornWords, seeded);
        result.failed = outcome.failed;
        result.checkDiverged = outcome.checkDiverged;
        result.violation = outcome.violation;
        result.crashTick = outcome.crashTick;
        result.pointsChecked = outcome.pointsChecked;
        result.pointsFailed = outcome.pointsFailed;
        result.traceHash = outcome.traceHash;
        result.hostEvents += outcome.hostEvents;
        result.simOps += outcome.simOps;
        if (outcome.traceHash != fast.traceHash) {
            result.replayDiverged = true;
            result.failed = true;
            if (result.violation.empty())
                result.violation =
                    "replay divergence: persist trace of the replay "
                    "run does not match the recording run";
        }
        return result;
    }

    // Recording run: execute under a fresh adversarial schedule, no
    // injection, capture the decision log and the persist trace.
    std::uint64_t recordHash = 0;
    {
        AdversaryParams ap = spec.adversary;
        ap.seed = ctx.adversarySeed;
        DrainAdversary adv = DrainAdversary::recording(ap);
        TrialRig rig(ctx);
        auto sys = rig.buildSystem(ctx, &adv, seeded);
        TraceHasher hasher;
        sys->addObserver(&hasher);
        sys->run();
        recordHash = hasher.value();
        result.decisions = adv.log();
        result.queries = adv.queriesSeen();
        result.hostEvents += sys->eventsServiced();
        result.simOps +=
            static_cast<std::uint64_t>(sys->totalCommitted());
    }

    FuzzReplayOutcome outcome =
        replayDecisions(ctx, result.decisions, result.tornWords, seeded);
    result.failed = outcome.failed;
    result.checkDiverged = outcome.checkDiverged;
    result.violation = outcome.violation;
    result.crashTick = outcome.crashTick;
    result.pointsChecked = outcome.pointsChecked;
    result.pointsFailed = outcome.pointsFailed;
    result.traceHash = outcome.traceHash;
    result.hostEvents += outcome.hostEvents;
    result.simOps += outcome.simOps;

    if (outcome.traceHash != recordHash) {
        // The replayed schedule did not reproduce the recorded run —
        // an infrastructure bug, reported as its own failure class so
        // campaigns surface it instead of silently mis-shrinking.
        result.replayDiverged = true;
        result.failed = true;
        if (result.violation.empty())
            result.violation = "replay divergence: persist trace of "
                               "the replay run does not match the "
                               "recording run";
    }
    return result;
}

} // namespace strand
