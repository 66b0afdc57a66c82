/**
 * @file
 * Integration-grade unit tests for the coherent cache hierarchy:
 * miss latencies, MESI transitions, cache-to-cache transfers,
 * write-backs with persist interlocks, CLWB flushes, and snoop
 * stalls (§IV mechanisms).
 *
 * Requests travel through a test-owned MemPort, exactly as cores and
 * persist engines mail them in production: loads answer Nack or Done,
 * stores answer Ack/Nack plus a later Done, flushes answer
 * FlushStarted and Done(wrotePm). Every quoted latency therefore
 * includes the port legs (one request leg in, one response leg out,
 * plus one more request leg for paths that reach a controller).
 *
 * The snapshot tests at the end check that a capture shares the tag
 * pages with the live hierarchy instead of copying them, and that
 * later traffic never writes through to a capture.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"

namespace
{

/** Bytes requested from every global operator new in this binary. */
std::atomic<std::uint64_t> heapBytes{0};

} // namespace

void *
operator new(std::size_t size)
{
    heapBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with
// an inlined operator new at a call site and warn about a mismatch.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace strand
{
namespace
{

constexpr Addr lineA = pmBase + 0x0000;
constexpr Addr lineB = pmBase + 0x4000;

class HierarchyFixture : public ::testing::Test
{
  protected:
    /** Per-request response bookkeeping, keyed by token. */
    struct Outcome
    {
        bool acked = false;
        bool nacked = false;
        bool started = false;
        bool done = false;
        bool wrotePm = false;
        Tick doneAt = 0;
    };

    void
    build(unsigned cores = 2, HierarchyParams p = HierarchyParams{})
    {
        params = p;
        pm = std::make_unique<MemController>("pm", eq, img,
                                             MemControllerParams{}, true);
        dram = std::make_unique<MemController>(
            "dram", eq, img, dramControllerParams(), false);
        hier = std::make_unique<Hierarchy>("caches", eq, img, cores,
                                           params, *pm, *dram);
        port.init(eq, "test.port");
        port.bind(*hier);
        port.setResponseHandler([this](const MemResponse &resp) {
            Outcome &o = outcomes[resp.token];
            switch (resp.kind) {
              case MemResponseKind::Ack:
                o.acked = true;
                break;
              case MemResponseKind::Nack:
                o.nacked = true;
                break;
              case MemResponseKind::FlushStarted:
                o.started = true;
                break;
              case MemResponseKind::Done:
                o.done = true;
                o.doneAt = eq.curTick();
                o.wrotePm = resp.wrotePm;
                break;
            }
        });
    }

    /** Mail one request; @return its token. */
    std::uint64_t
    send(MemRequestKind kind, CoreId core, Addr addr,
         std::uint64_t value = 0)
    {
        MemRequest req;
        req.kind = kind;
        req.core = core;
        req.addr = addr;
        req.value = value;
        req.token = nextToken++;
        outcomes[req.token];
        port.send(std::move(req));
        return req.token;
    }

    const Outcome &
    out(std::uint64_t token)
    {
        return outcomes.at(token);
    }

    /** Service everything scheduled at the next live tick. */
    bool
    step()
    {
        const Tick next = eq.nextLiveTick();
        if (next == maxTick)
            return false;
        eq.runUntil(next);
        return true;
    }

    /** Blocking store helper: retry Nacks, run until completion. */
    void
    store(CoreId core, Addr addr, std::uint64_t value)
    {
        std::uint64_t tok = 0;
        for (;;) {
            tok = send(MemRequestKind::Store, core, addr, value);
            while (!out(tok).acked && !out(tok).nacked)
                ASSERT_TRUE(step());
            if (out(tok).acked)
                break; // Nack: the next send is the retry
        }
        while (!out(tok).done)
            ASSERT_TRUE(step());
    }

    /** Blocking load helper: retry Nacks, run until completion. */
    void
    load(CoreId core, Addr addr)
    {
        for (;;) {
            std::uint64_t tok = send(MemRequestKind::Load, core, addr);
            while (!out(tok).done && !out(tok).nacked)
                ASSERT_TRUE(step());
            if (out(tok).done)
                return;
        }
    }

    /** Flush and report whether PM was written. */
    bool
    flush(CoreId core, Addr addr)
    {
        std::uint64_t tok = send(MemRequestKind::Flush, core, addr);
        while (!out(tok).done)
            EXPECT_TRUE(step());
        return out(tok).wrotePm;
    }

    /** Core-to-hierarchy mail time, there and back. */
    static constexpr Tick mailRoundTrip = 2 * portLegLatency;

    EventQueue eq;
    MemoryImage img;
    HierarchyParams params;
    std::unique_ptr<MemController> pm;
    std::unique_ptr<MemController> dram;
    std::unique_ptr<Hierarchy> hier;
    MemPort port;
    std::unordered_map<std::uint64_t, Outcome> outcomes;
    std::uint64_t nextToken = 1;
};

TEST_F(HierarchyFixture, ColdLoadMissFillsExclusiveFromMemory)
{
    build();
    auto tok = send(MemRequestKind::Load, 0, lineA);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    // Mail legs + l1 lookup + snoop + l2 lookup + one more mail leg
    // to the PM controller + PM row-miss read.
    Tick expected = mailRoundTrip + params.l1Latency +
                    params.snoopLatency + params.l2Latency +
                    portLegLatency + nsToTicks(346);
    EXPECT_EQ(out(tok).doneAt, expected);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Exclusive);
    EXPECT_NE(hier->l2State(lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->loadMisses.value(), 1.0);
}

TEST_F(HierarchyFixture, WarmLoadHitsInL1)
{
    build();
    load(0, lineA);
    Tick before = eq.curTick();
    auto tok = send(MemRequestKind::Load, 0, lineA);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    EXPECT_EQ(out(tok).doneAt - before, mailRoundTrip + params.l1Latency);
    EXPECT_EQ(hier->loadHits.value(), 1.0);
}

TEST_F(HierarchyFixture, StoreMissInstallsModifiedAndUpdatesImage)
{
    build();
    store(0, lineA + 8, 1234);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Modified);
    EXPECT_TRUE(hier->l1Dirty(0, lineA));
    EXPECT_EQ(img.readArch(lineA + 8), 1234u);
    EXPECT_EQ(hier->storeMisses.value(), 1.0);
    // Nothing persisted yet.
    EXPECT_FALSE(img.persistedContains(lineA + 8));
}

TEST_F(HierarchyFixture, StoreHitOnOwnedLineIsFast)
{
    build();
    store(0, lineA, 1);
    Tick before = eq.curTick();
    auto tok = send(MemRequestKind::Store, 0, lineA + 8, 2);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    EXPECT_EQ(out(tok).doneAt - before, mailRoundTrip + params.l1Latency);
    EXPECT_EQ(hier->storeHits.value(), 1.0);
}

TEST_F(HierarchyFixture, ReadSharingDemotesOwnerAndDirtiesL2)
{
    build();
    store(0, lineA, 7);
    load(1, lineA);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Shared);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Shared);
    EXPECT_TRUE(hier->l2Dirty(lineA));
    EXPECT_EQ(hier->cacheToCache.value(), 1.0);
}

TEST_F(HierarchyFixture, UpgradeInvalidatesSharers)
{
    build();
    load(0, lineA);
    load(1, lineA); // both shared now
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Shared);
    store(1, lineA, 5);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
    EXPECT_EQ(hier->upgrades.value(), 1.0);
}

TEST_F(HierarchyFixture, RfoStealsDirtyLineFromRemoteOwner)
{
    build();
    store(0, lineA, 1);
    store(1, lineA, 2);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
    EXPECT_EQ(img.readArch(lineA), 2u);
    EXPECT_EQ(hier->cacheToCache.value(), 1.0);
}

TEST_F(HierarchyFixture, RfoStallsOnOwnersPersistDrain)
{
    build();
    bool clear = false;
    int recordings = 0;
    hier->setDrainPointRecorder(0, [&] {
        ++recordings;
        return [&clear] { return clear; };
    });

    store(0, lineA, 1);
    EXPECT_EQ(recordings, 0); // stores alone record nothing

    auto tok = send(MemRequestKind::Store, 1, lineA, 2);
    while (!out(tok).acked && !out(tok).nacked)
        ASSERT_TRUE(step());
    ASSERT_TRUE(out(tok).acked);
    // Run a generous amount of simulated time: the RFO must not
    // complete while the owner's persist engine has not drained.
    eq.runUntil(eq.curTick() + nsToTicks(10000));
    EXPECT_FALSE(out(tok).done);
    EXPECT_EQ(recordings, 1);
    EXPECT_EQ(hier->snoopStalls.value(), 1.0);

    clear = true;
    hier->kick();
    eq.run();
    EXPECT_TRUE(out(tok).done);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
}

TEST_F(HierarchyFixture, FlushDirtyLinePersistsData)
{
    build();
    store(0, lineA, 42);
    EXPECT_TRUE(flush(0, lineA));
    EXPECT_EQ(img.readPersisted(lineA), 42u);
    // CLWB retains a clean copy.
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Exclusive);
    EXPECT_FALSE(hier->l1Dirty(0, lineA));
    EXPECT_EQ(hier->flushesDirty.value(), 1.0);
}

TEST_F(HierarchyFixture, FlushCleanLineDoesNotWritePm)
{
    build();
    load(0, lineA);
    EXPECT_FALSE(flush(0, lineA));
    EXPECT_EQ(hier->flushesClean.value(), 1.0);
    EXPECT_FALSE(img.persistedContains(lineA));
}

TEST_F(HierarchyFixture, FlushAbsentLineCompletesClean)
{
    build();
    EXPECT_FALSE(flush(0, lineB));
}

TEST_F(HierarchyFixture, FlushFindsDirtyLineInRemoteL1)
{
    build();
    store(1, lineA, 9);
    EXPECT_TRUE(flush(0, lineA));
    EXPECT_EQ(img.readPersisted(lineA), 9u);
    EXPECT_FALSE(hier->l1Dirty(1, lineA));
}

TEST_F(HierarchyFixture, FlushSnapshotExcludesLaterStores)
{
    build();
    store(0, lineA, 1);
    auto flushTok = send(MemRequestKind::Flush, 0, lineA);
    // Let the flush pass its lookup point (one mail leg plus the L1
    // read, plus the response leg of the FlushStarted notification),
    // then store again before the PM ack arrives.
    eq.runUntil(eq.curTick() + 2 * portLegLatency + params.l1Latency);
    EXPECT_TRUE(out(flushTok).started);
    auto storeTok = send(MemRequestKind::Store, 0, lineA, 2);
    eq.run();
    EXPECT_TRUE(out(flushTok).done);
    EXPECT_TRUE(out(storeTok).done);
    EXPECT_EQ(img.readPersisted(lineA), 1u);
    EXPECT_EQ(img.readArch(lineA), 2u);
}

TEST_F(HierarchyFixture, MshrLimitBoundsOutstandingMisses)
{
    build();
    // Mail more loads than there are MSHRs, back to back: they all
    // reach the hierarchy in one batch, and the overflow is Nacked.
    std::vector<std::uint64_t> toks;
    for (unsigned i = 0; i < params.l1Mshrs + 2; ++i) {
        Addr addr = pmBase + 0x10000 + i * 0x1000;
        toks.push_back(send(MemRequestKind::Load, 0, addr));
    }
    eq.run();
    unsigned accepted = 0;
    unsigned nacked = 0;
    for (auto tok : toks) {
        if (out(tok).done)
            ++accepted;
        if (out(tok).nacked)
            ++nacked;
    }
    EXPECT_EQ(accepted, params.l1Mshrs);
    EXPECT_EQ(nacked, 2u);
    // After draining, new misses are accepted again.
    auto tok = send(MemRequestKind::Load, 0, pmBase + 0x80000);
    eq.run();
    EXPECT_TRUE(out(tok).done);
}

TEST_F(HierarchyFixture, MissesToSameLineMergeInOneMshr)
{
    build();
    auto a = send(MemRequestKind::Load, 0, lineA);
    auto b = send(MemRequestKind::Load, 0, lineA + 8);
    eq.run();
    EXPECT_TRUE(out(a).done);
    EXPECT_TRUE(out(b).done);
    EXPECT_EQ(hier->loadMisses.value(), 2.0);
    // Only one memory read should have been issued.
    EXPECT_EQ(pm->numReads.value(), 1.0);
}

TEST_F(HierarchyFixture, CapacityEvictionWritesBackThroughL2)
{
    // Shrink both levels so evictions happen quickly.
    HierarchyParams p;
    p.l1Size = 256;  // 2 sets x 2 ways
    p.l2Size = 2048; // 2 sets x 16 ways
    build(1, p);

    // Dirty three conflicting L1 lines (same L1 set: stride 128).
    // With 2 ways the third store evicts a dirty victim.
    store(0, pmBase + 0, 1);
    store(0, pmBase + 128, 2);
    store(0, pmBase + 256, 3);
    eq.run();
    EXPECT_GE(hier->l1Writebacks.value(), 1.0);
    // The write-back landed in the L2 and marked it dirty.
    EXPECT_TRUE(hier->l2Dirty(pmBase + 0));
}

TEST_F(HierarchyFixture, WritebackWaitsForPersistClearance)
{
    HierarchyParams p;
    p.l1Size = 256;
    build(1, p);

    bool clear = false;
    hier->setDrainPointRecorder(0, [&] {
        return [&clear] { return clear; };
    });

    store(0, pmBase + 0, 1);
    store(0, pmBase + 128, 2);
    store(0, pmBase + 256, 3); // evicts a dirty line into the WB buffer
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 1u);

    clear = true;
    hier->kick();
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 0u);
}

TEST_F(HierarchyFixture, L2CapacityEvictionPersistsDirtyData)
{
    HierarchyParams p;
    p.l1Size = 256;
    p.l2Size = 1024; // 1 set x 16 ways: 16 lines total
    p.l2Ways = 16;
    build(1, p);

    // Dirty more lines than the L2 can hold; evictions must reach PM.
    for (unsigned i = 0; i < 24; ++i)
        store(0, pmBase + i * 64, i + 1);
    eq.run();
    EXPECT_GE(hier->l2Evictions.value(), 1.0);
    EXPECT_GE(pm->numWrites.value(), 1.0);
    EXPECT_GT(img.persistedWords(), 0u);
}

TEST_F(HierarchyFixture, DramTrafficDoesNotPersist)
{
    build();
    store(0, dramBase + 0x100, 5);
    EXPECT_TRUE(flush(0, dramBase + 0x100) == true ||
                img.persistedWords() == 0u);
    eq.run();
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST_F(HierarchyFixture, ConcurrentMissesToDistinctLinesOverlap)
{
    build();
    auto a = send(MemRequestKind::Load, 0, pmBase + 0x100000);
    auto b = send(MemRequestKind::Load, 0, pmBase + 0x200000);
    eq.run();
    ASSERT_TRUE(out(a).done);
    ASSERT_TRUE(out(b).done);
    // Different banks: the two fills overlap almost entirely.
    Tick serial = 2 * (params.l1Latency + params.snoopLatency +
                       params.l2Latency + nsToTicks(346));
    EXPECT_LT(std::max(out(a).doneAt, out(b).doneAt), serial);
}

TEST_F(HierarchyFixture, HierarchyReportsIdleAfterDraining)
{
    build();
    store(0, lineA, 1);
    flush(0, lineA);
    eq.run();
    EXPECT_TRUE(hier->idle());
}

TEST_F(HierarchyFixture, CaptureOfPrewarmedL2SharesTagPages)
{
    // Table I geometry with every L2 set warm, as System::seedImage
    // leaves it: a capture and a restore must cost the page tables,
    // not the 11 MB of L2 tags.
    build(8);
    const Addr l2Sets = params.l2Size / lineBytes / params.l2Ways;
    hier->prewarmL2(pmBase, pmBase + 2 * l2Sets * lineBytes);
    load(0, lineA);
    store(1, lineB, 3);
    eq.run();

    SimSnapshot snap;
    std::uint64_t before = heapBytes.load();
    hier->saveState(snap);
    EXPECT_LT(heapBytes.load() - before, std::uint64_t{1} << 20);

    before = heapBytes.load();
    hier->restoreState(snap);
    EXPECT_LT(heapBytes.load() - before, std::uint64_t{1} << 20);
    EXPECT_EQ(hier->l2State(pmBase + l2Sets * lineBytes),
              CoherenceState::Shared);

    // Presence tests must not copy a page the capture still holds. A
    // repeated prewarm finds every line already present and writes
    // nothing, so it allocates nothing at all.
    before = heapBytes.load();
    hier->prewarmL2(pmBase, pmBase + 2 * l2Sets * lineBytes);
    EXPECT_EQ(heapBytes.load() - before, 0u);

    // An L1 fill from an L2-resident line only asks the L2 whether it
    // holds the line (the miss path and the inclusion check). Under a
    // fresh capture the fill copies one 768-byte L1 page and
    // allocates request bookkeeping, but no 6 KiB L2 page.
    const std::uint64_t l2PageBytes =
        std::uint64_t{CacheArray::setsPerPage} * params.l2Ways *
        sizeof(CacheLineInfo);
    const Addr resident = pmBase + 5 * lineBytes;
    ASSERT_EQ(hier->l1State(0, resident), CoherenceState::Invalid);
    SimSnapshot again;
    hier->saveState(again);
    before = heapBytes.load();
    load(0, resident);
    EXPECT_LT(heapBytes.load() - before, l2PageBytes);
    EXPECT_NE(hier->l1State(0, resident), CoherenceState::Invalid);
}

TEST_F(HierarchyFixture, RestoreRewindsTagsPastLaterTraffic)
{
    constexpr Addr lineC = pmBase + 0x8000;
    build();
    hier->prewarmL2(pmBase, pmBase + 0x10000);
    store(0, lineA, 1);
    load(1, lineB);
    eq.run();

    struct Tags
    {
        CoherenceState a0, a1, b0, b1, c0, l2a, l2c;
        bool dirtyA0, dirtyL2A;
        bool operator==(const Tags &) const = default;
    };
    auto tags = [this] {
        return Tags{hier->l1State(0, lineA), hier->l1State(1, lineA),
                    hier->l1State(0, lineB), hier->l1State(1, lineB),
                    hier->l1State(0, lineC), hier->l2State(lineA),
                    hier->l2State(lineC),    hier->l1Dirty(0, lineA),
                    hier->l2Dirty(lineA)};
    };
    const Tags captured = tags();
    SimSnapshot snap;
    hier->saveState(snap);

    for (int round = 0; round < 2; ++round) {
        // Steal A, upgrade B, fill C: every L1 and L2 writer runs.
        store(1, lineA, 2);
        store(0, lineB, 3);
        load(0, lineC);
        eq.run();
        ASSERT_NE(tags(), captured);
        hier->restoreState(snap);
        EXPECT_EQ(tags(), captured) << "round " << round;
    }
}

} // namespace
} // namespace strand
