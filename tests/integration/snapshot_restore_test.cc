/**
 * @file
 * Full-machine mid-run snapshot determinism.
 *
 * The contract under test: capture the whole component graph mid-run
 * (from a settled inter-event boundary), let the run finish, restore
 * the capture into the same System, and re-run — the re-run must be
 * bit-identical to the uninterrupted execution. Persist traces,
 * finish ticks, aggregate metrics, and PMO-san counters all have to
 * match exactly, across every hardware design with the undo-logging
 * lowering and the sanitizer attached.
 *
 * A second System without the capture observer runs alongside to show
 * the capture machinery itself does not perturb the schedule. The
 * capture shares memory-image pages with the live machine; one test
 * checks that later traffic never writes through to it. Machines
 * seeded from a shared System::Seeded state share pages the same way
 * and must run like freshly seeded ones.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/observer_util.hh"
#include "runtime/instrumentor.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace strand
{
namespace
{

/** Streams and a system factory for one (workload, design, model). */
struct Rig
{
    RecordedWorkload recorded;
    InstrumentorParams ip;
    std::vector<OpStream> streams;

    Rig(HwDesign design, PersistencyModel model)
    {
        WorkloadParams params;
        params.numThreads = 3;
        params.opsPerThread = 12;
        params.seed = 29;
        recorded = recordWorkload(WorkloadKind::Hashmap, params);
        ip.design = design;
        ip.model = model;
        ip.logStyle = LogStyle::Undo;
        Instrumentor instr(ip);
        streams = instr.lower(recorded.trace);
    }

    /** A machine seeded plainly, or through @p seeded if given. */
    std::unique_ptr<System>
    buildSystem(System::Seeded *seeded = nullptr)
    {
        SystemConfig cfg;
        cfg.numCores = static_cast<unsigned>(streams.size());
        cfg.design = ip.design;
        cfg.layout = ip.layout;
        auto sys = std::make_unique<System>(cfg);
        if (seeded)
            sys->seedImage(recorded.preload, *seeded);
        else
            sys->seedImage(recorded.preload);
        auto copies = streams;
        sys->loadStreams(std::move(copies));
        return sys;
    }
};

/** Everything we require to be bit-identical across executions. */
struct Fingerprint
{
    std::vector<PersistRecord> trace;
    Tick finish = 0;
    std::vector<Tick> coreFinish;
    double clwbs = 0;
    double cycles = 0;
    double committed = 0;
    double persistStalls = 0;
    std::uint64_t sanChecked = 0;
    std::uint64_t sanViolations = 0;

    static Fingerprint
    of(System &sys, PmoSanitizer &san)
    {
        Fingerprint fp;
        fp.trace = sys.persistTrace();
        fp.finish = sys.finishTick();
        for (CoreId i = 0; i < sys.numCores(); ++i)
            fp.coreFinish.push_back(sys.finishTickOf(i));
        fp.clwbs = sys.totalClwbs();
        fp.cycles = sys.totalCycles();
        fp.committed = sys.totalCommitted();
        fp.persistStalls = sys.totalPersistStalls();
        fp.sanChecked = san.snapshotState().checkedCount;
        fp.sanViolations = san.snapshotState().totalViolations;
        return fp;
    }

    void
    expectEqual(const Fingerprint &other, const char *label) const
    {
        EXPECT_EQ(trace == other.trace, true)
            << label << ": persist traces differ ("
            << trace.size() << " vs " << other.trace.size()
            << " records)";
        EXPECT_EQ(finish, other.finish) << label;
        EXPECT_EQ(coreFinish, other.coreFinish) << label;
        EXPECT_EQ(clwbs, other.clwbs) << label;
        EXPECT_EQ(cycles, other.cycles) << label;
        EXPECT_EQ(committed, other.committed) << label;
        EXPECT_EQ(persistStalls, other.persistStalls) << label;
        EXPECT_EQ(sanChecked, other.sanChecked) << label;
        EXPECT_EQ(sanViolations, other.sanViolations) << label;
    }
};

class SnapshotRestore : public ::testing::TestWithParam<HwDesign>
{
};

TEST_P(SnapshotRestore, MidRunRestoreReplaysBitIdentically)
{
    const HwDesign design = GetParam();
    Rig rig(design, PersistencyModel::Sfr);

    // Reference: an identical machine with no capture machinery.
    Fingerprint plain;
    {
        auto sys = rig.buildSystem();
        PmoSanitizer san;
        sys->addObserver(&san);
        sys->run();
        plain = Fingerprint::of(*sys, san);
    }
    ASSERT_GT(plain.trace.size(), 8u)
        << "workload too small to capture mid-run";

    // Instrumented run: capture the full machine at the 8th ADR
    // admission, from a Stat-priority one-shot so every same-tick
    // action has settled first.
    auto sys = rig.buildSystem();
    PmoSanitizer san;
    sys->addObserver(&san);
    SimSnapshot snap;
    PmoSanitizer::State sanAtCapture;
    Tick captureTick = 0;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &rec) {
        if (++admissions != 8)
            return;
        sys->eventQueue().schedule(
            rec.when,
            [&] {
                captureTick = sys->eventQueue().curTick();
                snap = sys->snapshot();
                sanAtCapture = san.snapshotState();
            },
            EventPriority::Stat);
    });
    sys->addObserver(&capturer);
    sys->run();
    Fingerprint uninterrupted = Fingerprint::of(*sys, san);

    // Taking a capture must not perturb the schedule.
    uninterrupted.expectEqual(plain, "capture-perturbation");
    ASSERT_GT(snap.size(), 0u) << "capture event never fired";
    ASSERT_GT(captureTick, 0u);
    ASSERT_LT(captureTick, uninterrupted.finish)
        << "capture must be mid-run, not at completion";

    // Restore into the same graph and re-run the tail. The capture
    // observer must come off first: its closures count admissions of
    // the original run.
    sys->removeObserver(&capturer);
    sys->restore(snap);
    san.restoreState(sanAtCapture);
    EXPECT_EQ(sys->eventQueue().curTick(), captureTick)
        << "restore must rewind the clock to the capture point";
    EXPECT_LT(sys->persistTrace().size(), uninterrupted.trace.size())
        << "restore must rewind the persist trace";
    sys->run();
    Fingerprint rerun = Fingerprint::of(*sys, san);
    rerun.expectEqual(uninterrupted, "restore-rerun");
}

TEST_P(SnapshotRestore, RestoreIsRepeatable)
{
    // Restoring the same capture twice must replay the same tail
    // twice — a single snapshot supports many forks.
    const HwDesign design = GetParam();
    Rig rig(design, PersistencyModel::Sfr);
    auto sys = rig.buildSystem();
    PmoSanitizer san;
    sys->addObserver(&san);
    SimSnapshot snap;
    PmoSanitizer::State sanAtCapture;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &rec) {
        if (++admissions != 4)
            return;
        sys->eventQueue().schedule(
            rec.when,
            [&] {
                snap = sys->snapshot();
                sanAtCapture = san.snapshotState();
            },
            EventPriority::Stat);
    });
    sys->addObserver(&capturer);
    sys->run();
    Fingerprint first = Fingerprint::of(*sys, san);
    ASSERT_GT(snap.size(), 0u);
    sys->removeObserver(&capturer);

    for (int fork = 0; fork < 2; ++fork) {
        sys->restore(snap);
        san.restoreState(sanAtCapture);
        sys->run();
        Fingerprint again = Fingerprint::of(*sys, san);
        again.expectEqual(first, "repeated-restore");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, SnapshotRestore, ::testing::ValuesIn(allDesigns),
    [](const ::testing::TestParamInfo<HwDesign> &info) {
        std::string name = hwDesignName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** Every persisted word, and the architectural value of each. */
std::map<Addr, std::pair<std::uint64_t, std::uint64_t>>
imageWords(const MemoryImage &img)
{
    std::map<Addr, std::pair<std::uint64_t, std::uint64_t>> words;
    img.forEachPersisted([&](Addr addr, std::uint64_t value) {
        words[addr] = {value, img.readArch(addr)};
    });
    return words;
}

TEST(SnapshotRestoreImage, CapturedImageStaysIsolatedFromLaterTraffic)
{
    // The capture shares the image's pages with the live machine.
    // Traffic after the capture, and after a restore from it, must
    // copy a page before writing it and never reach the capture.
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Sfr);
    auto sys = rig.buildSystem();
    SimSnapshot snap;
    std::map<Addr, std::pair<std::uint64_t, std::uint64_t>> atCapture;
    std::size_t archAtCapture = 0;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &rec) {
        if (++admissions != 8)
            return;
        sys->eventQueue().schedule(
            rec.when,
            [&] {
                snap = sys->snapshot();
                atCapture = imageWords(sys->memory());
                archAtCapture = sys->memory().archWords();
            },
            EventPriority::Stat);
    });
    sys->addObserver(&capturer);
    sys->run();
    ASSERT_GT(snap.size(), 0u);
    const auto finalWords = imageWords(sys->memory());
    ASSERT_NE(finalWords, atCapture) << "no traffic after the capture";

    const MemoryImage &captured = snap.get<MemoryImage>("system.image");
    EXPECT_EQ(imageWords(captured), atCapture)
        << "live traffic wrote through to the capture";
    EXPECT_EQ(captured.archWords(), archAtCapture);

    sys->removeObserver(&capturer);
    sys->restore(snap);
    EXPECT_EQ(imageWords(sys->memory()), atCapture);
    sys->run();
    EXPECT_EQ(imageWords(sys->memory()), finalWords)
        << "the restored run must end on the uninterrupted image";
    EXPECT_EQ(imageWords(captured), atCapture)
        << "traffic after a restore wrote through to the capture";
    EXPECT_EQ(captured.archWords(), archAtCapture);
}

TEST_P(SnapshotRestore, MachinesSeededFromSharedStateRunLikeFreshOnes)
{
    // Machines seeded through one System::Seeded start from the first
    // machine's image and L2 tag pages, copy-on-write. Each must run
    // exactly like a freshly seeded machine, and no run may write
    // through to the shared state.
    Rig rig(GetParam(), PersistencyModel::Sfr);
    std::map<Addr, std::pair<std::uint64_t, std::uint64_t>> seededWords;
    auto runOne = [&](System::Seeded *seeded) {
        auto sys = rig.buildSystem(seeded);
        seededWords = imageWords(sys->memory());
        PmoSanitizer san;
        sys->addObserver(&san);
        sys->run();
        return Fingerprint::of(*sys, san);
    };
    const Fingerprint fresh = runOne(nullptr);
    const auto freshWords = seededWords;
    ASSERT_FALSE(freshWords.empty());

    System::Seeded seeded;
    for (const char *label : {"filling", "reusing", "reusing again"}) {
        runOne(&seeded).expectEqual(fresh, label);
        EXPECT_EQ(seededWords, freshWords) << label;
        EXPECT_EQ(seeded.words, &rig.recorded.preload) << label;
        EXPECT_EQ(imageWords(seeded.image), freshWords)
            << label << ": a run wrote through to the shared image";
    }

    // Another map, even with equal contents, seeds afresh.
    const auto copy = rig.recorded.preload;
    SystemConfig cfg;
    cfg.numCores = static_cast<unsigned>(rig.streams.size());
    cfg.design = rig.ip.design;
    cfg.layout = rig.ip.layout;
    System other(cfg);
    other.seedImage(copy, seeded);
    EXPECT_EQ(seeded.words, &copy);
    EXPECT_EQ(imageWords(other.memory()), freshWords);
}

TEST(SnapshotRestoreRedo, RedoLoweringRoundTrips)
{
    // The redo log style takes a different lowering path; one design
    // suffices to keep it under the same determinism contract.
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Txn);
    InstrumentorParams redoIp = rig.ip;
    redoIp.logStyle = LogStyle::Redo;
    Instrumentor instr(redoIp);
    rig.streams = instr.lower(rig.recorded.trace);

    auto sys = rig.buildSystem();
    PmoSanitizer san;
    sys->addObserver(&san);
    SimSnapshot snap;
    PmoSanitizer::State sanAtCapture;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &rec) {
        if (++admissions != 8)
            return;
        sys->eventQueue().schedule(
            rec.when,
            [&] {
                snap = sys->snapshot();
                sanAtCapture = san.snapshotState();
            },
            EventPriority::Stat);
    });
    sys->addObserver(&capturer);
    sys->run();
    Fingerprint uninterrupted = Fingerprint::of(*sys, san);
    ASSERT_GT(snap.size(), 0u);

    sys->removeObserver(&capturer);
    sys->restore(snap);
    san.restoreState(sanAtCapture);
    sys->run();
    Fingerprint rerun = Fingerprint::of(*sys, san);
    rerun.expectEqual(uninterrupted, "redo-restore-rerun");
}

} // namespace
} // namespace strand
