/**
 * @file
 * The three benchmark workloads and the code that drives their cells
 * through the simulator's public calls.
 *
 * The drivers mirror runExperiment (timing cells), runCrashCell in
 * forked mode (crash cells) and runFuzzCell (fuzz cells) call for
 * call, adding only spans; selfCheck() re-runs a few cells through
 * those library entry points and requires identical results.
 */

#include <algorithm>
#include <deque>

#include "bench.hh"
#include "core/observer_util.hh"
#include "core/sweep.hh"
#include "crash/crash_harness.hh"
#include "fuzz/campaign.hh"
#include "runtime/recovery.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace perfbench
{

using namespace strand;

namespace
{

/** Repository default seeds, reproduced exactly at --seed 1. */
constexpr std::uint64_t defaultCrashSeed = 0xc4a54;
constexpr std::uint64_t defaultFuzzSeed = 0xf022;

/** Trials per NON-ATOMIC fuzz cell: the fuzz_campaign bench's default. */
constexpr unsigned nonAtomicTrials = 6;

/** @p base at seed 1, shifted by the seed otherwise. */
std::uint64_t
derivedSeed(std::uint64_t base, std::uint64_t seed)
{
    return base + (seed - 1);
}

unsigned
orDefault(unsigned value, unsigned fallback)
{
    return value ? value : fallback;
}

/** FNV-1a over a sweep cell key (the sweep's fuzz seed remix). */
std::uint64_t
hashKey(const std::string &key)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
cellKey(const std::string &workload, HwDesign design,
        PersistencyModel model, const std::string &variant)
{
    std::string key = workload + "/" + hwDesignName(design) + "/" +
                      persistencyModelName(model);
    if (!variant.empty())
        key += "/" + variant;
    return key;
}

Tracer *
tracerOf(PassResult *pass)
{
    return pass ? pass->tracer.get() : nullptr;
}

/** Build a System the way every library driver does. */
std::unique_ptr<System>
buildSystem(const SystemConfig &config, const RecordedWorkload &recorded,
            std::vector<OpStream> streams, PassResult *pass)
{
    Scope span(tracerOf(pass), SpanKind::Build);
    auto sys = std::make_unique<System>(config);
    sys->seedImage(recorded.preload);
    sys->loadStreams(std::move(streams));
    if (pass && pass->tracer)
        ++pass->builds;
    return sys;
}

/**
 * System::run, attributing its host time (minus any sanitizer
 * callbacks inside it) and its events to the engine family.
 */
Tick
runSystem(System &sys, HwDesign design, PassResult *pass)
{
    Tracer *tracer = tracerOf(pass);
    if (!tracer)
        return sys.run();
    const std::uint64_t events0 = sys.eventsServiced();
    const std::int64_t sanitizer0 = tracer->sanitizerNs;
    const std::int64_t t0 = nowNs();
    Tick end;
    {
        Scope span(tracer, SpanKind::Run);
        end = sys.run();
    }
    const std::int64_t ns =
        nowNs() - t0 - (tracer->sanitizerNs - sanitizer0);
    const std::uint64_t events = sys.eventsServiced() - events0;
    if (design == HwDesign::IntelX86) {
        pass->runNsIntel += ns;
        pass->eventsIntel += events;
    } else {
        pass->runNsStrand += ns;
        pass->eventsStrand += events;
    }
    return end;
}

/** Timing cell: runExperiment without PMO-san or crash injection. */
RunMetrics
driveTiming(const RecordedWorkload &recorded, HwDesign design,
            PersistencyModel model, PassResult *pass)
{
    Tracer *tracer = tracerOf(pass);
    InstrumentorParams ip;
    ip.design = design;
    ip.model = model;
    Instrumentor instr(ip);
    std::vector<OpStream> streams;
    {
        Scope span(tracer, SpanKind::Lower);
        streams = instr.lower(recorded.trace);
    }
    SystemConfig config;
    config.numCores = static_cast<unsigned>(streams.size());
    config.design = design;
    auto sys = buildSystem(config, recorded, std::move(streams), pass);
    AdmissionTally tally;
    sys->addObserver(&tally);

    RunMetrics metrics;
    runSystem(*sys, design, pass);
    for (CoreId i = 0; i < recorded.params.numThreads; ++i)
        metrics.runTicks = std::max(metrics.runTicks, sys->finishTickOf(i));
    metrics.totalCycles = sys->totalCycles();
    metrics.clwbs = sys->totalClwbs();
    metrics.persistStalls = sys->totalPersistStalls();
    for (CoreId i = 0; i < sys->numCores(); ++i)
        metrics.allStalls += sys->core(i).stallCycles.sum();
    metrics.snoopStalls = sys->hierarchy().snoopStalls.value();
    metrics.ckc = metrics.totalCycles > 0
                      ? 1000.0 * metrics.clwbs / metrics.totalCycles
                      : 0.0;
    metrics.lowering = instr.stats();
    metrics.hostEvents = sys->eventsServiced();
    metrics.simOps = static_cast<std::uint64_t>(sys->totalCommitted());
    metrics.pmAdmissions = tally.admissions();

    if (design != HwDesign::NonAtomic) {
        const MemoryImage &img = sys->memory();
        std::string problem;
        {
            Scope span(tracer, SpanKind::Check);
            problem = recorded.workload->checkInvariants(
                [&img](Addr addr) { return img.readPersisted(addr); });
        }
        panicIf(!problem.empty(),
                "post-run invariant violation in {} under {}/{}: {}",
                recorded.workload->name(), hwDesignName(design),
                persistencyModelName(model), problem);
    }
    if (tracer)
        pass->sim.accumulate(*sys);
    return metrics;
}

void
digestTiming(Digest &d, const RunMetrics &m)
{
    d.add(static_cast<std::uint64_t>(m.runTicks));
    d.add(m.totalCycles);
    d.add(m.clwbs);
    d.add(m.persistStalls);
    d.add(m.allStalls);
    d.add(m.snoopStalls);
    d.add(m.hostEvents);
    d.add(m.simOps);
    d.add(m.pmAdmissions);
    d.add(m.lowering.clwbs);
    d.add(m.lowering.barriers);
    d.add(m.lowering.drains);
}

/** Admit-mask keeping the first @p tornWords written words. */
std::uint8_t
tornAdmitMask(std::uint8_t written, unsigned tornWords)
{
    std::uint8_t admit = 0;
    unsigned kept = 0;
    for (unsigned i = 0; i < wordsPerLine && kept < tornWords; ++i) {
        if (written & (1u << i)) {
            admit |= static_cast<std::uint8_t>(1u << i);
            ++kept;
        }
    }
    return admit;
}

/** Crash cell: runCrashCell in forked mode, span by span. */
CrashCellResult
driveCrash(const RecordedWorkload &recorded, HwDesign design,
           PersistencyModel model, const CrashHarnessConfig &config,
           PassResult *pass)
{
    Tracer *tracer = tracerOf(pass);
    CrashCellResult result;
    result.design = design;
    result.model = model;
    result.workload = recorded.workload ? recorded.workload->name() : "?";
    result.pointsRequested = config.pointBudget;

    InstrumentorParams ip;
    ip.design = design;
    ip.model = model;
    ip.logStyle = config.logStyle;
    Instrumentor instr(ip);
    std::vector<OpStream> streams;
    {
        Scope span(tracer, SpanKind::Lower);
        streams = instr.lower(recorded.trace);
    }
    CrashOracle oracle(recorded.trace, instr.regionLog(), recorded.preload,
                       ip.layout);
    if (config.pointBudget == 0)
        return result;

    SystemConfig sysCfg = config.experiment.baseSystem;
    sysCfg.numCores = static_cast<unsigned>(streams.size());
    sysCfg.design = design;
    sysCfg.engine = config.experiment.engine;
    sysCfg.engine.recordCompletionTicks = true;
    sysCfg.layout = ip.layout;

    const bool pmosan = config.pmosan.value_or(false);
    RecoveryManager recovery{ip.layout};
    const unsigned programThreads = recorded.params.numThreads;

    struct Outcome
    {
        Tick when = 0;
        bool passed = false;
        RecoveryReport report;
        std::string violation;
    };

    auto evaluate = [&](const MemoryImage &machine, Tick when) {
        Outcome outcome;
        outcome.when = when;
        MemoryImage snapshot;
        {
            Scope span(tracer, SpanKind::Clone);
            snapshot = config.tornWords >= wordsPerLine
                           ? machine.clonePersisted()
                           : machine.clonePersistedTorn(tornAdmitMask(
                                 machine.lastAdmissionMask(),
                                 config.tornWords));
        }
        if (config.media.any())
            applyMediaFaults(snapshot, machine.recentAdmissions(),
                             config.media, ip.layout, when);
        std::vector<bool> committed;
        {
            Scope span(tracer, SpanKind::Classify);
            committed = oracle.committedRegions(snapshot);
        }
        RecoveryOptions options;
        options.verifyChecksums = config.verifyChecksums;
        {
            Scope span(tracer, SpanKind::Recover);
            outcome.report = recovery.recover(
                snapshot, programThreads, RecoveryScan::Paged, options);
        }
        std::string err;
        if (outcome.report.verdict == RecoveryVerdict::Failed) {
            err = "recovery FAILED: metadata area poisoned";
        } else {
            Scope span(tracer, SpanKind::Oracle);
            err = oracle.checkRecovered(snapshot, committed,
                                        &outcome.report);
        }
        if (err.empty() && recorded.workload &&
            outcome.report.verdict == RecoveryVerdict::Full) {
            Scope span(tracer, SpanKind::Check);
            err = recorded.workload->checkInvariants(
                [&snapshot](Addr addr) {
                    return snapshot.readPersisted(addr);
                });
        }
        outcome.passed = err.empty();
        outcome.violation = std::move(err);
        return outcome;
    };

    auto fold = [&](Outcome &&outcome) {
        ++result.pointsTested;
        const RecoveryReport &r = outcome.report;
        result.totalRolledBack += r.entriesRolledBack;
        result.totalReplayed += r.redoEntriesReplayed;
        result.totalTornSkipped += r.tornEntriesSkipped;
        result.totalCorruptQuarantined += r.corruptEntriesQuarantined;
        result.totalPoisonedQuarantined += r.poisonedEntriesQuarantined;
        result.totalQuarantinedAddrs += r.quarantinedAddrs.size();
        switch (r.verdict) {
          case RecoveryVerdict::Full:
            ++result.verdictFull;
            break;
          case RecoveryVerdict::Degraded:
            ++result.verdictDegraded;
            break;
          case RecoveryVerdict::Failed:
            ++result.verdictFailed;
            break;
        }
        if (outcome.passed) {
            ++result.pointsPassed;
            return;
        }
        CrashPointResult point;
        point.when = outcome.when;
        point.entriesRolledBack = r.entriesRolledBack;
        point.redoEntriesReplayed = r.redoEntriesReplayed;
        if (result.failures.size() < 32)
            point.violation = std::move(outcome.violation);
        result.failures.push_back(std::move(point));
    };

    // Warm run: enumerate crash points, capture every admission's
    // pre-image, and take the mid-run machine captures the
    // determinism self-check restores from.
    std::vector<Tick> enumerated;
    struct AdmitDelta
    {
        Tick when;
        MemoryImage::AdmissionUndo undo;
    };
    std::vector<AdmitDelta> admits;
    // Copies the streams, as runCrashCell does.
    auto sys = buildSystem(sysCfg, recorded, streams, pass);
    PmoSanitizer sanitizer;
    std::unique_ptr<TimedObserver> timedSanitizer;
    if (pmosan) {
        if (tracer) {
            timedSanitizer =
                std::make_unique<TimedObserver>(sanitizer, *tracer);
            sys->addObserver(timedSanitizer.get());
        } else {
            sys->addObserver(&sanitizer);
        }
    }

    struct MachineCapture
    {
        Tick when = 0;
        SimSnapshot snap;
        PmoSanitizer::State sanitizerState;
    };
    std::deque<MachineCapture> captures;
    std::uint64_t admissionsSeen = 0;
    bool capturing = config.verifyMidrunFork;
    auto captureMachine = [&] {
        if (!capturing)
            return;
        Scope span(tracer, SpanKind::Snapshot);
        MachineCapture cap;
        cap.when = sys->eventQueue().curTick();
        cap.snap = sys->snapshot();
        cap.sanitizerState = sanitizer.snapshotState();
        captures.push_back(std::move(cap));
        if (captures.size() > 2)
            captures.pop_front();
    };
    AdmissionCallback admissions([&](const PersistRecord &rec) {
        enumerated.push_back(rec.when);
        admits.push_back({rec.when, sys->memory().lastAdmissionUndo()});
        ++admissionsSeen;
        if (capturing && (admissionsSeen & (admissionsSeen - 1)) == 0)
            sys->eventQueue().schedule(rec.when, captureMachine,
                                       EventPriority::Stat);
    });
    sys->addObserver(&admissions);
    const Tick endTick = runSystem(*sys, design, pass);
    result.hostEvents += sys->eventsServiced();
    result.simOps += static_cast<std::uint64_t>(sys->totalCommitted());
    for (CoreId i = 0; i < sys->numCores(); ++i) {
        const std::vector<Tick> &ticks =
            sys->core(i).persistEngine().completionTicks();
        enumerated.insert(enumerated.end(), ticks.begin(), ticks.end());
    }
    const Tick finishTick = sys->finishTick();

    if (!captures.empty()) {
        capturing = false;
        sys->removeObserver(&admissions);
        const MachineCapture &cap = captures.front();
        const std::vector<PersistRecord> reference = sys->persistTrace();
        {
            Scope span(tracer, SpanKind::Snapshot);
            sys->restore(cap.snap);
            sanitizer.restoreState(cap.sanitizerState);
        }
        const Tick refork = runSystem(*sys, design, pass);
        panicIf(refork != finishTick,
                "mid-run fork diverged: restored run finished at {} "
                "instead of {}", refork, finishTick);
        panicIf(sys->persistTrace() != reference,
                "mid-run fork diverged: restored persist trace does not "
                "match the uninterrupted run");
    }
    if (tracer) {
        pass->sim.accumulate(*sys);
        pass->sanitizerChecked += sanitizer.persistsChecked();
    }

    CrashPointPlan plan = planCrashPoints(std::move(enumerated), endTick,
                                          config);
    result.pointsInjected = static_cast<unsigned>(plan.points.size()) + 1;
    Outcome endOutcome = evaluate(sys->memory(), finishTick);

    // Rewind a fork of the final image admission by admission, newest
    // first, evaluating each planned point on the reconstructed state.
    MemoryImage machine = sys->memory();
    sys.reset();
    std::vector<Outcome> outcomes;
    outcomes.reserve(plan.points.size());
    for (auto it = plan.points.rbegin(); it != plan.points.rend(); ++it) {
        const Tick when = *it;
        while (!admits.empty() && admits.back().when > when) {
            machine.undoAdmission(admits.back().undo);
            admits.pop_back();
        }
        machine.setLastAdmission(admits.empty()
                                     ? MemoryImage::AdmissionUndo{}
                                     : admits.back().undo);
        if (config.media.any()) {
            AdmissionRing ring;
            std::size_t start =
                admits.size() > MemoryImage::admissionRingDepth
                    ? admits.size() - MemoryImage::admissionRingDepth
                    : 0;
            for (std::size_t i = start; i < admits.size(); ++i)
                ring.push_back(admits[i].undo);
            machine.setRecentAdmissions(std::move(ring));
        }
        outcomes.push_back(evaluate(machine, when));
    }
    for (auto it = outcomes.rbegin(); it != outcomes.rend(); ++it)
        fold(std::move(*it));
    fold(std::move(endOutcome));

    if (!sanitizer.ok()) {
        CrashPointResult point;
        point.when = sanitizer.violations().empty()
                         ? finishTick
                         : sanitizer.violations()[0].when;
        ++result.pointsTested;
        if (result.failures.size() < 32)
            point.violation = sanitizer.report();
        result.failures.push_back(std::move(point));
    }
    return result;
}

void
digestCrash(Digest &d, const CrashCellResult &r)
{
    d.add(std::uint64_t{r.pointsTested});
    d.add(std::uint64_t{r.pointsPassed});
    d.add(std::uint64_t{r.pointsInjected});
    d.add(r.totalRolledBack);
    d.add(r.totalReplayed);
    d.add(r.totalTornSkipped);
    d.add(r.totalCorruptQuarantined);
    d.add(r.totalPoisonedQuarantined);
    d.add(r.totalQuarantinedAddrs);
    d.add(std::uint64_t{r.verdictFull});
    d.add(std::uint64_t{r.verdictDegraded});
    d.add(std::uint64_t{r.verdictFailed});
    d.add(r.hostEvents);
    d.add(r.simOps);
    for (const CrashPointResult &f : r.failures) {
        d.add(static_cast<std::uint64_t>(f.when));
        d.add(f.entriesRolledBack);
        d.add(f.redoEntriesReplayed);
        d.add(f.violation);
    }
}

/**
 * Fuzz cell: runFuzzCell without reproducer files, span by span. The
 * shrinker replays against @p contexts (one per trial, built in
 * set-up) instead of a context rebuilt per failing trial.
 */
FuzzCellResult
driveFuzz(const FuzzCellConfig &config,
          const std::vector<FuzzTrialContext> &contexts, PassResult *pass)
{
    Tracer *tracer = tracerOf(pass);
    FuzzCellResult result;
    for (unsigned i = 0; i < config.trials; ++i) {
        FuzzTrialSpec spec = config.base;
        spec.seed = mixSeed(config.seed, i + 1);

        FuzzTrialResult trial;
        {
            Scope span(tracer, SpanKind::FuzzTrial);
            trial = runFuzzTrial(spec);
        }
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
        if (config.shrink && !trial.replayDiverged) {
            ShrinkResult shrunk;
            {
                Scope span(tracer, SpanKind::FuzzShrink);
                shrunk = shrinkDecisions(contexts[i], trial.decisions,
                                         trial.tornWords,
                                         config.shrinkBudget);
            }
            if (pass) {
                pass->shrinkReplays += shrunk.replays;
                pass->rawDecisions += trial.decisions.size();
                pass->shrunkDecisions +=
                    shrunk.stillFails ? shrunk.log.size()
                                      : trial.decisions.size();
            }
            if (shrunk.stillFails)
                reduced = std::move(shrunk.log);
        }
        failure.shrunkDecisions = reduced.size();
        failure.shrunk = std::move(reduced);
        result.failures.push_back(std::move(failure));
    }
    if (pass) {
        pass->queries += result.queries;
        pass->holds += result.holds;
    }
    return result;
}

void
digestFuzz(Digest &d, const FuzzCellResult &r)
{
    d.add(std::uint64_t{r.trials});
    d.add(std::uint64_t{r.failingTrials});
    d.add(r.pointsChecked);
    d.add(r.queries);
    d.add(r.holds);
    d.add(r.hostEvents);
    d.add(r.simOps);
    for (const FuzzFailure &f : r.failures) {
        d.add(f.trialSeed);
        d.add(static_cast<std::uint64_t>(f.crashTick));
        d.add(std::uint64_t{f.tornWords});
        d.add(f.violation);
        d.add(static_cast<std::uint64_t>(f.rawDecisions));
        d.add(static_cast<std::uint64_t>(f.shrunkDecisions));
        d.add(std::uint64_t{f.replayDiverged});
    }
}

std::shared_ptr<const RecordedWorkload>
record(WorkloadKind kind, unsigned threads, unsigned ops,
       std::uint64_t seed, Tracer *tracer)
{
    WorkloadParams params;
    params.numThreads = threads;
    params.opsPerThread = ops;
    params.seed = seed;
    Scope span(tracer, SpanKind::Record);
    return std::make_shared<const RecordedWorkload>(
        recordWorkload(kind, params));
}

/**
 * design-sweep: the Figure 7 matrix (3 models x 8 Table II workloads
 * x 5 designs) at the fig7 bench's default sizes, in its cell order.
 */
class DesignSweep final : public Workload
{
  public:
    DesignSweep(std::uint64_t seed, const WorkloadSize &size)
        : seed(seed), threads(orDefault(size.threads, 8)),
          ops(orDefault(size.ops, 60))
    {
        const std::size_t kinds =
            size.kinds ? std::min<std::size_t>(size.kinds,
                                               std::size(allWorkloads))
                       : std::size(allWorkloads);
        for (PersistencyModel model : allModels) {
            for (std::size_t w = 0; w < kinds; ++w) {
                const std::size_t intel = cells.size();
                for (HwDesign design : allDesigns)
                    cells.push_back({w, design, model, intel});
            }
        }
        numKinds = kinds;
    }

    void
    setup(Tracer *tracer) override
    {
        recorded.clear();
        for (std::size_t w = 0; w < numKinds; ++w)
            recorded.push_back(
                record(allWorkloads[w], threads, ops, seed, tracer));
        runTicks.assign(cells.size(), 0);
    }

    std::size_t numCells() const override { return cells.size(); }

    void
    runCell(std::size_t index, PassResult &pass) override
    {
        const Cell &cell = cells[index];
        Scope span(pass.tracer.get(), SpanKind::CellTiming);
        ++pass.attempted;
        RunMetrics metrics;
        try {
            metrics = driveTiming(*recorded[cell.workload], cell.design,
                                  cell.model, &pass);
        } catch (const std::exception &e) {
            pass.digest.add(std::string_view("panic"));
            pass.miss(key(cell) + ": " + e.what());
            runTicks[index] = 0;
            return;
        }
        digestTiming(pass.digest, metrics);
        pass.simOps += metrics.simOps;
        pass.events += metrics.hostEvents;
        runTicks[index] = metrics.runTicks;
        if (cell.design == HwDesign::StrandWeaver &&
            runTicks[cell.intel] > 0 && metrics.runTicks > 0)
            pass.swSpeedups.push_back(
                static_cast<double>(runTicks[cell.intel]) /
                static_cast<double>(metrics.runTicks));
    }

    std::vector<std::string>
    selfCheck(unsigned &checks) override
    {
        std::vector<std::string> problems;
        // The Intel baseline and the StrandWeaver cell of the first
        // workload under the first model.
        for (std::size_t index : {std::size_t{0}, std::size_t{3}}) {
            const Cell &cell = cells[index];
            ++checks;
            RunMetrics ours = driveTiming(*recorded[cell.workload],
                                          cell.design, cell.model,
                                          nullptr);
            ExperimentConfig config;
            config.pmosan = false;
            RunMetrics lib = runExperiment(*recorded[cell.workload],
                                           cell.design, cell.model,
                                           config, true);
            Digest a, b;
            digestTiming(a, ours);
            digestTiming(b, lib);
            if (a.value() != b.value())
                problems.push_back("timing driver differs from "
                                   "runExperiment on " + key(cell));
        }
        return problems;
    }

  private:
    struct Cell
    {
        std::size_t workload;
        HwDesign design;
        PersistencyModel model;
        std::size_t intel; ///< index of this row's Intel baseline
    };

    std::string
    key(const Cell &cell) const
    {
        return cellKey(workloadName(allWorkloads[cell.workload]),
                       cell.design, cell.model, "");
    }

    std::uint64_t seed;
    unsigned threads, ops;
    std::size_t numKinds = 0;
    std::vector<Cell> cells;
    std::vector<std::shared_ptr<const RecordedWorkload>> recorded;
    std::vector<Tick> runTicks;
};

/**
 * crash-fork: the crash_matrix bench's matrix cells (without its
 * two-run speedup probe), every cell on the forked harness with
 * PMO-san attached.
 */
class CrashFork final : public Workload
{
  public:
    CrashFork(std::uint64_t seed, const WorkloadSize &size)
        : seed(seed), threads(orDefault(size.threads, 2)),
          ops(orDefault(size.ops, 40))
    {
        const std::vector<WorkloadKind> all = {
            WorkloadKind::Queue, WorkloadKind::Hashmap,
            WorkloadKind::ArraySwap};
        kinds.assign(all.begin(),
                     all.begin() + (size.kinds ? std::min<std::size_t>(
                                                     size.kinds, all.size())
                                               : all.size()));
        MediaFaultConfig media;
        media.poisonLines = 1;
        media.bitFlips = 1;
        media.dropAdmissions = 2;
        media.seed = 0xed1a;

        for (std::size_t w = 0; w < kinds.size(); ++w) {
            for (HwDesign design : allDesigns) {
                auto add = [&](PersistencyModel model, LogStyle style,
                               std::string variant, bool withMedia,
                               bool strict) {
                    Cell cell;
                    cell.workload = w;
                    cell.design = design;
                    cell.model = model;
                    cell.variant = std::move(variant);
                    cell.config.pointBudget =
                        orDefault(size.crashPoints, 16);
                    cell.config.seed =
                        derivedSeed(defaultCrashSeed, seed);
                    cell.config.logStyle = style;
                    cell.config.experiment.logStyle = style;
                    cell.config.experiment.engine.hopsStrictAdmission =
                        strict;
                    if (withMedia)
                        cell.config.media = media;
                    cell.config.fork = true;
                    cell.config.pmosan = true;
                    cells.push_back(std::move(cell));
                };
                for (PersistencyModel model : allModels)
                    add(model, LogStyle::Undo, "", false, false);
                add(PersistencyModel::Txn, LogStyle::Redo, "redo", false,
                    false);
                for (PersistencyModel model : allModels)
                    add(model, LogStyle::Undo, "media", true, false);
                add(PersistencyModel::Txn, LogStyle::Redo, "redo-media",
                    true, false);
                if (design != HwDesign::Hops)
                    continue;
                for (PersistencyModel model : allModels)
                    add(model, LogStyle::Undo, "strict-media", true, true);
                add(PersistencyModel::Txn, LogStyle::Redo,
                    "strict-redo-media", true, true);
            }
        }
    }

    void
    setup(Tracer *tracer) override
    {
        recorded.clear();
        for (WorkloadKind kind : kinds)
            recorded.push_back(record(kind, threads, ops, seed, tracer));
    }

    std::size_t numCells() const override { return cells.size(); }

    void
    runCell(std::size_t index, PassResult &pass) override
    {
        const Cell &cell = cells[index];
        Scope span(pass.tracer.get(), SpanKind::CellCrash);
        CrashCellResult result;
        try {
            result = driveCrash(*recorded[cell.workload], cell.design,
                                cell.model, cell.config, &pass);
        } catch (const std::exception &e) {
            ++pass.attempted;
            pass.digest.add(std::string_view("panic"));
            pass.miss(key(cell) + ": " + e.what());
            return;
        }
        digestCrash(pass.digest, result);
        pass.simOps += result.simOps;
        pass.events += result.hostEvents;
        pass.crashPoints += result.pointsInjected;
        if (pass.tracer) {
            pass.verdictFull += result.verdictFull;
            pass.verdictDegraded += result.verdictDegraded;
            pass.verdictFailed += result.verdictFailed;
            pass.rolledBack += result.totalRolledBack;
        }

        // Expectations as in the crash_matrix bench: NON-ATOMIC must
        // be caught; the plain HOPS media cells carry a documented
        // modeling gap (tolerated); every other point must recover.
        const unsigned failing = result.pointsTested - result.pointsPassed;
        if (cell.design == HwDesign::NonAtomic) {
            ++pass.attempted;
            if (result.allPassed())
                pass.miss(key(cell) + ": NON-ATOMIC violation not caught");
            return;
        }
        pass.attempted += result.pointsTested;
        if (failing == 0)
            return;
        if (cell.design == HwDesign::Hops &&
            (cell.variant == "media" || cell.variant == "redo-media")) {
            pass.tolerated += failing;
            return;
        }
        pass.failed += failing - 1;
        pass.miss(key(cell) + ": " + std::to_string(failing) +
                  " crash point(s) failed; first: " +
                  result.failures.front().violation);
    }

    std::vector<std::string>
    selfCheck(unsigned &checks) override
    {
        std::vector<std::string> problems;
        // A recoverable media cell (verdict tallies) and a NON-ATOMIC
        // cell (failure tallies) of the first workload.
        for (std::size_t index = 0; index < cells.size(); ++index) {
            const Cell &cell = cells[index];
            const bool wanted =
                cell.workload == 0 && cell.model == PersistencyModel::Txn &&
                ((cell.design == HwDesign::StrandWeaver &&
                  cell.variant == "media") ||
                 (cell.design == HwDesign::NonAtomic &&
                  cell.variant.empty()));
            if (!wanted)
                continue;
            ++checks;
            CrashCellResult ours = driveCrash(*recorded[cell.workload],
                                              cell.design, cell.model,
                                              cell.config, nullptr);
            CrashCellResult lib = runCrashCell(*recorded[cell.workload],
                                               cell.design, cell.model,
                                               cell.config);
            Digest a, b;
            digestCrash(a, ours);
            digestCrash(b, lib);
            if (a.value() != b.value())
                problems.push_back("crash driver differs from "
                                   "runCrashCell on " + key(cell));
        }
        return problems;
    }

  private:
    struct Cell
    {
        std::size_t workload = 0;
        HwDesign design = HwDesign::StrandWeaver;
        PersistencyModel model = PersistencyModel::Txn;
        std::string variant;
        CrashHarnessConfig config;
    };

    std::string
    key(const Cell &cell) const
    {
        return cellKey(workloadName(kinds[cell.workload]), cell.design,
                       cell.model, cell.variant);
    }

    std::uint64_t seed;
    unsigned threads, ops;
    std::vector<WorkloadKind> kinds;
    std::vector<Cell> cells;
    std::vector<std::shared_ptr<const RecordedWorkload>> recorded;
};

/**
 * fuzz-campaign: fuzz_campaign bench cells (every design and model,
 * plus the HOPS epoch-interlock variant) at its default sizes, on
 * three of its four workloads. The rbtree cells are left out for
 * time; hashmap and nstore-bal keep the plain HOPS modeling-gap
 * failures, so both expected-failure classes (NON-ATOMIC and plain
 * HOPS) are shrunk by ddmin.
 *
 * Recoverable designs run one trial per cell. A NON-ATOMIC cell must
 * find a violation, and one or two trials can miss it: over the seeds
 * tried while the benchmark was built, one trial on queue/sfr and two
 * trials on queue/atlas found none. So NON-ATOMIC cells run the
 * bench's six trials. Only their first failure is shrunk, to keep the
 * pass short.
 */
class FuzzCampaign final : public Workload
{
  public:
    FuzzCampaign(std::uint64_t seed, const WorkloadSize &size)
    {
        const std::vector<WorkloadKind> all = {
            WorkloadKind::Queue, WorkloadKind::Hashmap,
            WorkloadKind::NStoreBalanced};
        const std::size_t kinds =
            size.kinds ? std::min<std::size_t>(size.kinds, all.size())
                       : all.size();
        for (std::size_t w = 0; w < kinds; ++w) {
            for (HwDesign design : allDesigns) {
                for (PersistencyModel model : allModels) {
                    Cell cell;
                    cell.config.base.kind = all[w];
                    cell.config.base.design = design;
                    cell.config.base.model = model;
                    cell.config.base.numThreads =
                        orDefault(size.threads, 2);
                    cell.config.base.opsPerThread = orDefault(size.ops, 10);
                    cell.config.base.pmosan = false;
                    cell.config.base.fork = false;
                    cell.config.base.forkBranches = 0;
                    if (design == HwDesign::NonAtomic) {
                        cell.config.trials = nonAtomicTrials;
                        cell.config.maxFailures = 1;
                    } else {
                        cell.config.trials = 1;
                    }
                    auto add = [&](const std::string &variant) {
                        cell.key = cellKey(workloadName(all[w]), design,
                                           model, variant);
                        cell.config.seed =
                            mixSeed(derivedSeed(defaultFuzzSeed, seed),
                                    hashKey(cell.key));
                        cells.push_back(cell);
                    };
                    add("");
                    if (design == HwDesign::Hops) {
                        cell.config.base.experiment.engine
                            .hopsEpochInterlock = true;
                        cell.interlock = true;
                        add("interlock");
                    }
                }
            }
        }
    }

    void
    setup(Tracer *tracer) override
    {
        // One trial context per trial: the shrinker replays against
        // it when the trial fails.
        contexts.assign(cells.size(), {});
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const FuzzCellConfig &config = cells[c].config;
            for (unsigned i = 0; i < config.trials; ++i) {
                FuzzTrialSpec spec = config.base;
                spec.seed = mixSeed(config.seed, i + 1);
                Scope span(tracer, SpanKind::Record);
                contexts[c].push_back(makeTrialContext(spec));
            }
        }
    }

    std::size_t numCells() const override { return cells.size(); }

    void
    runCell(std::size_t index, PassResult &pass) override
    {
        const Cell &cell = cells[index];
        Scope span(pass.tracer.get(), SpanKind::CellFuzz);
        FuzzCellResult result;
        try {
            result = driveFuzz(cell.config, contexts[index], &pass);
        } catch (const std::exception &e) {
            ++pass.attempted;
            pass.digest.add(std::string_view("panic"));
            pass.miss(cell.key + ": " + e.what());
            return;
        }
        digestFuzz(pass.digest, result);
        pass.simOps += result.simOps;
        pass.events += result.hostEvents;
        pass.crashPoints += result.pointsChecked;

        // Expectations as in the fuzz_campaign bench.
        const HwDesign design = cell.config.base.design;
        ++pass.attempted;
        if (design == HwDesign::NonAtomic) {
            if (result.allPassed())
                pass.miss(cell.key + ": NON-ATOMIC violation not found in " +
                          std::to_string(result.trials) + " trials");
            return;
        }
        if (!result.allPassed()) {
            if (design == HwDesign::Hops && !cell.interlock)
                pass.tolerated += result.failingTrials;
            else
                pass.miss(cell.key + ": " +
                          std::to_string(result.failingTrials) +
                          " failing trial(s); first: " +
                          result.failures.front().violation);
        }
    }

    std::vector<std::string>
    selfCheck(unsigned &checks) override
    {
        std::vector<std::string> problems;
        // The first NON-ATOMIC cell (failing trials, shrinking) and the
        // first StrandWeaver cell (passing trials).
        for (HwDesign design : {HwDesign::NonAtomic,
                                HwDesign::StrandWeaver}) {
            auto it = std::find_if(cells.begin(), cells.end(),
                                   [design](const Cell &cell) {
                                       return cell.config.base.design ==
                                              design;
                                   });
            if (it == cells.end())
                continue;
            ++checks;
            // The measured passes' path: trial contexts from set-up.
            FuzzCellResult ours =
                driveFuzz(it->config, contexts[it - cells.begin()], nullptr);
            FuzzCellResult lib = runFuzzCell(it->config);
            Digest a, b;
            digestFuzz(a, ours);
            digestFuzz(b, lib);
            if (a.value() != b.value())
                problems.push_back("fuzz driver differs from runFuzzCell "
                                   "on " + it->key);
        }
        return problems;
    }

  private:
    struct Cell
    {
        FuzzCellConfig config;
        std::string key;
        bool interlock = false;
    };

    std::vector<Cell> cells;
    std::vector<std::vector<FuzzTrialContext>> contexts;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "design-sweep", "crash-fork", "fuzz-campaign"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             WorkloadSize size)
{
    if (name == "design-sweep")
        return std::make_unique<DesignSweep>(seed, size);
    if (name == "crash-fork")
        return std::make_unique<CrashFork>(seed, size);
    if (name == "fuzz-campaign")
        return std::make_unique<FuzzCampaign>(seed, size);
    return nullptr;
}

} // namespace perfbench
