/**
 * @file
 * Incremental invariant checking (IncrementalInvariants) against the
 * full walk (Workload::checkInvariants).
 *
 * The contract: whatever sequence of images the checker is fed, each
 * check() returns exactly what the full walk returns on that image —
 * the first failing unit's message, in unit order — while re-checking
 * only the units that read a changed line. The tests feed it
 *  - hand-made corruptions of the preloaded nstore and hashmap
 *    structures (wrong bucket, torn payload, cycle), stacked so the
 *    first failing unit moves back and forth;
 *  - every crash image of adversarial runs on nstore-bal and hashmap,
 *    raw and recovered, whole, torn and with media faults, on a
 *    recoverable design and on NON-ATOMIC (whose images break);
 *  - a diff with one changed line left out, which must go wrong.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/observer_util.hh"
#include "crash/media_faults.hh"
#include "fuzz/fuzz_trial.hh"
#include "fuzz/incremental_check.hh"
#include "runtime/instrumentor.hh"
#include "runtime/recovery.hh"

namespace strand
{
namespace
{

RecordedWorkload
record(WorkloadKind kind)
{
    WorkloadParams params;
    params.numThreads = 2;
    params.opsPerThread = 10;
    params.seed = 11;
    return recordWorkload(kind, params);
}

/** The preloaded structure as a durable image. */
MemoryImage
preloadedImage(const RecordedWorkload &recorded)
{
    MemoryImage img;
    for (const auto &[addr, value] : recorded.preload)
        img.writeDurable(addr, value);
    return img;
}

std::string
fullWalk(const Workload &workload, const MemoryImage &img)
{
    return workload.checkInvariants(
        [&img](Addr addr) { return img.readPersisted(addr); });
}

/**
 * Chained-bucket layout shared by nstore and hashmap: the bucket
 * array is the first allocation, so its base is the lowest preloaded
 * address, and each bucket head is the first word of its line.
 */
struct Buckets
{
    Addr base = 0;
    Addr keyField = 0;
    Addr nextField = 0;
    /** A payload word the invariant constrains. */
    Addr payloadField = 0;

    Addr head(const MemoryImage &img, std::uint64_t b) const
    {
        return img.readPersisted(base + b * lineBytes);
    }
};

Buckets
bucketsOf(const RecordedWorkload &recorded)
{
    Buckets b;
    b.base = std::min_element(recorded.preload.begin(),
                              recorded.preload.end())
                 ->first;
    if (recorded.kind == WorkloadKind::Hashmap) {
        b.keyField = 0;
        b.payloadField = 8;
        b.nextField = 16;
    } else {
        b.keyField = 0;
        b.nextField = 8;
        b.payloadField = 16 + 2 * wordBytes;
    }
    return b;
}

/** @return the first bucket at or after @p from with a chain of at
 * least two entries. */
std::uint64_t
longChain(const MemoryImage &img, const Buckets &b, std::uint64_t from)
{
    for (std::uint64_t bucket = from;; ++bucket) {
        Addr head = b.head(img, bucket);
        if (head != 0 && img.readPersisted(head + b.nextField) != 0)
            return bucket;
    }
}

/** Feed @p img to @p checker and require the full walk's verdict. */
void
expectSameVerdict(IncrementalInvariants &checker, const Workload &workload,
                  const MemoryImage &img, const std::string &expected,
                  const char *step)
{
    const std::string full = fullWalk(workload, img);
    EXPECT_EQ(full, expected) << step << ": corruption missed its mark";
    EXPECT_EQ(checker.check(img), full) << step;
}

class IncrementalCorruption
    : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(IncrementalCorruption, FirstFailingUnitMatchesTheFullWalk)
{
    const RecordedWorkload recorded = record(GetParam());
    const Workload &workload = *recorded.workload;
    const bool hashmap = GetParam() == WorkloadKind::Hashmap;
    const std::string prefix = hashmap ? "hashmap " : "nstore ";
    const std::string wrongBucket =
        prefix + (hashmap ? "node" : "tuple") + " in wrong bucket";
    const std::string payloadBroken =
        hashmap ? "hashmap value missing" : "nstore tuple payload torn";
    const std::string cycle = prefix + "chain does not terminate";

    const Buckets b = bucketsOf(recorded);
    MemoryImage img = preloadedImage(recorded);
    IncrementalInvariants checker(workload);
    expectSameVerdict(checker, workload, img, "", "clean");
    EXPECT_EQ(checker.lastUnitsChecked(), workload.invariantUnits());

    // A late bucket gets a tuple with a key from another bucket.
    const std::uint64_t late =
        longChain(img, b, workload.invariantUnits() * 3 / 4);
    const Addr lateTuple = b.head(img, late);
    const std::uint64_t lateKey = img.readPersisted(lateTuple + b.keyField);
    img.writeDurable(lateTuple + b.keyField, lateKey + 1);
    expectSameVerdict(checker, workload, img, wrongBucket, "wrong bucket");
    EXPECT_EQ(checker.lastUnitsChecked(), 1u);

    // An earlier bucket's second entry loses its payload: the first
    // failing unit moves forward.
    const std::uint64_t early = longChain(img, b, 2);
    ASSERT_LT(early, late);
    const Addr earlySecond =
        img.readPersisted(b.head(img, early) + b.nextField);
    const std::uint64_t earlyPayload =
        img.readPersisted(earlySecond + b.payloadField);
    img.writeDurable(earlySecond + b.payloadField,
                     hashmap ? 0 : earlyPayload + 5);
    expectSameVerdict(checker, workload, img, payloadBroken,
                      "torn payload");
    EXPECT_EQ(checker.lastUnitsChecked(), 1u);

    // A middle bucket's chain loops back to its head. The earlier
    // failure still comes first.
    const std::uint64_t middle = longChain(img, b, early + 1);
    ASSERT_LT(middle, late);
    const Addr middleHead = b.head(img, middle);
    const Addr middleSecond =
        img.readPersisted(middleHead + b.nextField);
    const Addr middleTail = img.readPersisted(middleSecond + b.nextField);
    img.writeDurable(middleSecond + b.nextField, middleHead);
    expectSameVerdict(checker, workload, img, payloadBroken,
                      "cycle behind an earlier failure");

    // Repairs, earliest first: each uncovers the next failure.
    img.writeDurable(earlySecond + b.payloadField, earlyPayload);
    expectSameVerdict(checker, workload, img, cycle, "repair payload");
    img.writeDurable(middleSecond + b.nextField, middleTail);
    expectSameVerdict(checker, workload, img, wrongBucket,
                      "repair cycle");
    img.writeDurable(lateTuple + b.keyField, lateKey);
    expectSameVerdict(checker, workload, img, "", "repair key");

    // An edit no unit reads re-checks nothing.
    img.writeDurable(pmBase + 0x10000, 42);
    expectSameVerdict(checker, workload, img, "", "unread line");
    EXPECT_EQ(checker.lastUnitsChecked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ChainedBuckets, IncrementalCorruption,
    ::testing::Values(WorkloadKind::NStoreBalanced,
                      WorkloadKind::Hashmap),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        std::string name = workloadName(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(IncrementalInvariants, DiffMissingAChangedLineGoesStale)
{
    // The checker is only as exact as its diff: leave the corrupted
    // line out, and the unit that read it keeps its old verdict.
    const RecordedWorkload recorded = record(WorkloadKind::NStoreBalanced);
    const Buckets b = bucketsOf(recorded);
    const MemoryImage clean = preloadedImage(recorded);
    MemoryImage torn = clean;
    const Addr tuple = b.head(clean, longChain(clean, b, 0));
    torn.writeDurable(tuple + b.payloadField, 1);

    std::vector<Addr> changed;
    torn.forEachChangedPersistedLine(
        clean, [&changed](Addr line) { changed.push_back(line); });
    ASSERT_EQ(changed, std::vector<Addr>{lineAlign(tuple)});

    IncrementalInvariants exact(*recorded.workload);
    IncrementalInvariants stale(*recorded.workload);
    ASSERT_EQ(exact.check(clean), "");
    ASSERT_EQ(stale.check(clean), "");
    EXPECT_EQ(exact.checkChanged(torn, changed),
              "nstore tuple payload torn");
    EXPECT_EQ(stale.checkChanged(torn, {}), "");
    EXPECT_NE(stale.check(torn), fullWalk(*recorded.workload, torn))
        << "the stale checker diffs against the torn image it was told "
           "about, so it stays wrong";
}

/** Crash-image sources of the adversarial differential runs. */
struct RunShape
{
    WorkloadKind kind;
    HwDesign design;
    unsigned tornWords;
    bool media;
};

/**
 * Run one adversarial schedule and feed every admission's crash image
 * to two checkers, one raw and one after recovery; both must match
 * the full walk at every point. @return the points compared.
 */
unsigned
compareAtEveryCrashPoint(const RunShape &shape, std::uint64_t seed,
                         unsigned *failingPoints)
{
    FuzzTrialSpec spec;
    spec.kind = shape.kind;
    spec.design = shape.design;
    spec.model = PersistencyModel::Txn;
    spec.numThreads = 2;
    spec.opsPerThread = 10;
    spec.seed = seed;
    const FuzzTrialContext ctx = makeTrialContext(spec);
    const Workload &workload = *ctx.recorded.workload;

    InstrumentorParams ip;
    ip.design = spec.design;
    ip.model = spec.model;
    ip.logStyle = spec.logStyle;
    Instrumentor instr(ip);
    SystemConfig cfg;
    auto streams = instr.lower(ctx.recorded.trace);
    cfg.numCores = static_cast<unsigned>(streams.size());
    cfg.design = spec.design;
    cfg.layout = ip.layout;
    AdversaryParams ap;
    ap.seed = ctx.adversarySeed;
    DrainAdversary adv = DrainAdversary::recording(ap);
    cfg.adversary = &adv;
    System sys(cfg);
    sys.seedImage(ctx.recorded.preload);
    sys.loadStreams(std::move(streams));

    MediaFaultConfig media;
    if (shape.media) {
        media.poisonLines = 1;
        media.bitFlips = 1;
        media.dropAdmissions = 2;
        media.seed = seed;
    }
    RecoveryManager recovery{ip.layout};
    IncrementalInvariants raw(workload);
    IncrementalInvariants recovered(workload);
    unsigned points = 0;
    auto compare = [&](IncrementalInvariants &checker,
                       const MemoryImage &img, Tick when,
                       const char *which) {
        const std::string full = fullWalk(workload, img);
        EXPECT_EQ(checker.check(img), full)
            << which << " image at tick " << when << " ("
            << workloadName(shape.kind) << ", "
            << hwDesignName(shape.design) << ", torn "
            << shape.tornWords << ", media " << shape.media << ")";
        ++points;
        if (!full.empty())
            ++*failingPoints;
    };
    AdmissionCallback inject([&](const PersistRecord &rec) {
        const MemoryImage &live = sys.memory();
        std::uint8_t admit = 0;
        unsigned kept = 0;
        for (unsigned i = 0; i < wordsPerLine && kept < shape.tornWords;
             ++i) {
            if (live.lastAdmissionMask() & (1u << i)) {
                admit |= static_cast<std::uint8_t>(1u << i);
                ++kept;
            }
        }
        MemoryImage img = shape.tornWords >= wordsPerLine
                              ? live.clonePersisted()
                              : live.clonePersistedTorn(admit);
        if (shape.media)
            applyMediaFaults(img, live.recentAdmissions(), media,
                             ip.layout, rec.when);
        compare(raw, img, rec.when, "raw");
        recovery.recover(img, ctx.recorded.params.numThreads,
                         RecoveryScan::Paged);
        compare(recovered, img, rec.when, "recovered");
    });
    sys.addObserver(&inject);
    sys.run();
    return points;
}

TEST(IncrementalInvariants, MatchesTheFullWalkAtEveryFuzzCrashPoint)
{
    const RunShape shapes[] = {
        {WorkloadKind::NStoreBalanced, HwDesign::StrandWeaver, 8, false},
        {WorkloadKind::NStoreBalanced, HwDesign::NonAtomic, 3, false},
        {WorkloadKind::NStoreBalanced, HwDesign::StrandWeaver, 5, true},
        {WorkloadKind::Hashmap, HwDesign::NonAtomic, 8, false},
        {WorkloadKind::Hashmap, HwDesign::StrandWeaver, 2, false},
        {WorkloadKind::Hashmap, HwDesign::NonAtomic, 8, true},
    };
    unsigned points = 0;
    unsigned failing = 0;
    for (const RunShape &shape : shapes)
        points += compareAtEveryCrashPoint(shape, 3, &failing);
    // Enough images, and enough broken ones, to mean something.
    EXPECT_GT(points, 1000u);
    EXPECT_GT(failing, 100u);
}

} // namespace
} // namespace strand
