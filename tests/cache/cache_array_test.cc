/**
 * @file
 * Unit tests for the set-associative tag array: geometry, lookup,
 * LRU victimization, invalidation, and the copy-on-write tag pages
 * that snapshots and copies share with the live array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "cache/cache_array.hh"

namespace strand
{
namespace
{

TEST(CacheArray, GeometryFromSizeAndWays)
{
    CacheArray arr(32 * 1024, 2);
    EXPECT_EQ(arr.numWays(), 2u);
    EXPECT_EQ(arr.numSets(), 32u * 1024 / 64 / 2);
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, BadGeometryIsFatal)
{
    EXPECT_THROW(CacheArray(0, 2), std::invalid_argument);
    EXPECT_THROW(CacheArray(1024, 0), std::invalid_argument);
}

TEST(CacheArray, InstallAndFind)
{
    CacheArray arr(1024, 2); // 8 sets
    EXPECT_EQ(arr.findLine(0x1000), nullptr);
    CacheLineInfo &victim = arr.victimFor(0x1000);
    arr.install(victim, 0x1000, CoherenceState::Exclusive);

    CacheLineInfo *line = arr.findLine(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Exclusive);
    EXPECT_FALSE(line->dirty());
    line->state = CoherenceState::Modified;
    EXPECT_TRUE(line->dirty());

    // Any address within the line maps to the same entry.
    EXPECT_EQ(arr.findLine(0x1000 + 63), line);
    EXPECT_EQ(arr.findLine(0x1000 + 64), nullptr);
}

TEST(CacheArray, VictimPrefersInvalid)
{
    CacheArray arr(256, 2); // 2 sets, 2 ways
    // Two lines map to set 0: line addresses 0 and 128.
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    CacheLineInfo &victim = arr.victimFor(128);
    EXPECT_FALSE(victim.valid());
}

TEST(CacheArray, VictimIsLeastRecentlyUsed)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways; set stride is 128
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    // Touch line 0 so that 128 becomes LRU.
    arr.touch(*arr.findLine(0));
    CacheLineInfo &victim = arr.victimFor(256);
    EXPECT_TRUE(victim.valid());
    EXPECT_EQ(victim.lineAddr, 128u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray arr(1024, 2);
    arr.install(arr.victimFor(0x40), 0x40, CoherenceState::Modified);
    EXPECT_TRUE(arr.invalidate(0x40));
    EXPECT_EQ(arr.findLine(0x40), nullptr);
    EXPECT_FALSE(arr.invalidate(0x40));
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray arr(1024, 2);
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(64), 64, CoherenceState::Modified);
    int seen = 0;
    arr.forEachValid([&](CacheLineInfo &) { ++seen; });
    EXPECT_EQ(seen, 2);
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(coherenceStateName(CoherenceState::Invalid), "I");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Shared), "S");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Exclusive), "E");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Modified), "M");
}

TEST(CacheArray, SnapshotStateRoundTrips)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways
    arr.install(arr.victimFor(0), 0, CoherenceState::Modified);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    arr.touch(*arr.findLine(0));
    CacheArray::State state = arr.snapshotState();

    // Mutate past the capture, then rewind.
    arr.install(arr.victimFor(256), 256, CoherenceState::Exclusive);
    arr.invalidate(0);
    arr.restoreState(std::move(state));

    EXPECT_EQ(arr.countValid(), 2u);
    ASSERT_NE(arr.findLine(0), nullptr);
    EXPECT_EQ(arr.findLine(0)->state, CoherenceState::Modified);
    ASSERT_NE(arr.findLine(128), nullptr);
    EXPECT_EQ(arr.findLine(256), nullptr);
    // LRU clock is part of the capture: 128 is still the victim.
    EXPECT_EQ(arr.victimFor(256).lineAddr, 128u);
}

TEST(CacheArray, RestoreRejectsChangedGeometry)
{
    CacheArray small(256, 2);
    CacheArray big(1024, 2);
    EXPECT_THROW(big.restoreState(small.snapshotState()),
                 std::logic_error);
}

TEST(CacheArray, ConflictingLinesShareASet)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways
    // Three conflicting lines for set 0: 0, 128, 256.
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    CacheLineInfo &victim = arr.victimFor(256);
    ASSERT_TRUE(victim.valid()); // set is full, a valid line must go
    Addr evicted = victim.lineAddr;
    arr.install(victim, 256, CoherenceState::Shared);
    EXPECT_EQ(arr.findLine(evicted), nullptr);
    EXPECT_NE(arr.findLine(256), nullptr);
    EXPECT_EQ(arr.countValid(), 2u);
}

/** One line's bookkeeping, comparable. */
struct Tag
{
    Addr lineAddr;
    CoherenceState state;
    std::uint64_t lastUse;

    bool operator==(const Tag &) const = default;
};

/** Every line a captured state holds, page by page; never-allocated
 * pages read as Invalid lines. */
std::vector<Tag>
tagsOf(const CacheArray::State &state)
{
    const std::size_t pageLines =
        std::size_t{CacheArray::setsPerPage} * state.ways;
    std::vector<Tag> tags;
    for (const CacheArray::Page &page : state.pages) {
        for (std::size_t i = 0; i < pageLines; ++i) {
            CacheLineInfo line = page ? page[i] : CacheLineInfo{};
            tags.push_back({line.lineAddr, line.state, line.lastUse});
        }
    }
    return tags;
}

/** The line victimFor() picks in every set, as (address, valid). */
std::vector<std::pair<Addr, bool>>
victimsOf(CacheArray &arr)
{
    std::vector<std::pair<Addr, bool>> victims;
    for (unsigned set = 0; set < arr.numSets(); ++set) {
        const CacheLineInfo &v = arr.victimFor(Addr{set} * lineBytes);
        victims.emplace_back(v.lineAddr, v.valid());
    }
    return victims;
}

/** 64 sets x 2 ways: four copy-on-write pages. */
constexpr std::uint64_t pagedSize = 64 * 2 * lineBytes;
/** Address stride between lines that map to the same set. */
constexpr Addr setStride = 64 * lineBytes;

/** A full pagedSize array with a mixed LRU order in every set. */
CacheArray
filledArray()
{
    CacheArray arr(pagedSize, 2);
    for (Addr set = 0; set < 64; ++set) {
        Addr a = set * lineBytes;
        arr.install(arr.victimFor(a), a, CoherenceState::Shared);
        arr.install(arr.victimFor(a + setStride), a + setStride,
                    set % 2 ? CoherenceState::Modified
                            : CoherenceState::Exclusive);
        if (set % 3 == 0)
            arr.touch(*arr.findLine(a));
    }
    return arr;
}

/**
 * Capture @p arr, apply @p mutate, and check the capture did not
 * move, then that restoring it gives back the exact tags and the
 * same LRU victims.
 */
void
expectCaptureSurvives(const std::function<void(CacheArray &)> &mutate)
{
    CacheArray arr = filledArray();
    CacheArray::State snap = arr.snapshotState();
    const std::vector<Tag> captured = tagsOf(snap);

    mutate(arr);
    ASSERT_NE(tagsOf(arr.snapshotState()), captured)
        << "the mutation must change the live array";
    EXPECT_EQ(tagsOf(snap), captured) << "a write reached the capture";

    arr.restoreState(snap);
    EXPECT_EQ(tagsOf(arr.snapshotState()), captured);
    CacheArray reference = filledArray();
    EXPECT_EQ(victimsOf(arr), victimsOf(reference));
    EXPECT_EQ(tagsOf(snap), captured);
}

TEST(CacheArrayCopyOnWrite, CaptureSurvivesFindLineWrite)
{
    expectCaptureSurvives([](CacheArray &arr) {
        arr.findLine(5 * lineBytes)->state = CoherenceState::Modified;
    });
}

TEST(CacheArrayCopyOnWrite, CaptureSurvivesTouch)
{
    expectCaptureSurvives([](CacheArray &arr) {
        // Set 7's older line becomes the newest: its victim flips.
        arr.touch(*arr.findLine(7 * lineBytes));
        arr.touch(*arr.findLine(40 * lineBytes + setStride));
    });
}

TEST(CacheArrayCopyOnWrite, CaptureSurvivesVictimInstall)
{
    expectCaptureSurvives([](CacheArray &arr) {
        Addr conflict = 9 * lineBytes + 2 * setStride;
        arr.install(arr.victimFor(conflict), conflict,
                    CoherenceState::Exclusive);
    });
}

TEST(CacheArrayCopyOnWrite, CaptureSurvivesInvalidate)
{
    expectCaptureSurvives([](CacheArray &arr) {
        EXPECT_TRUE(arr.invalidate(33 * lineBytes + setStride));
    });
}

TEST(CacheArrayCopyOnWrite, CaptureSurvivesForEachValid)
{
    expectCaptureSurvives([](CacheArray &arr) {
        arr.forEachValid([](CacheLineInfo &line) {
            line.state = CoherenceState::Invalid;
        });
    });
}

TEST(CacheArrayCopyOnWrite, RestoredStateCanBeRestoredAgain)
{
    // The mid-run self-check restores one capture, re-runs, and may
    // restore it again: writes after the first restore must not leak
    // into the capture.
    CacheArray arr = filledArray();
    CacheArray::State snap = arr.snapshotState();
    const std::vector<Tag> captured = tagsOf(snap);
    for (int round = 0; round < 3; ++round) {
        arr.restoreState(snap);
        arr.findLine(round * lineBytes)->state = CoherenceState::Invalid;
        arr.touch(*arr.findLine(20 * lineBytes));
        EXPECT_EQ(tagsOf(snap), captured);
    }
    arr.restoreState(snap);
    EXPECT_EQ(tagsOf(arr.snapshotState()), captured);
}

TEST(CacheArrayCopyOnWrite, CopiesAreIndependent)
{
    // Copying an array (as growing a vector of L1s does) shares its
    // pages; a write to either copy must not reach the other.
    CacheArray original = filledArray();
    const std::vector<Tag> before = tagsOf(original.snapshotState());
    CacheArray copy = original;

    copy.findLine(3 * lineBytes)->state = CoherenceState::Modified;
    copy.touch(*copy.findLine(50 * lineBytes));
    EXPECT_TRUE(copy.invalidate(12 * lineBytes));
    EXPECT_EQ(tagsOf(original.snapshotState()), before);

    const std::vector<Tag> copied = tagsOf(copy.snapshotState());
    original.install(original.victimFor(12 * lineBytes + 2 * setStride),
                     12 * lineBytes + 2 * setStride,
                     CoherenceState::Shared);
    EXPECT_TRUE(original.invalidate(61 * lineBytes));
    EXPECT_EQ(tagsOf(copy.snapshotState()), copied);
}

TEST(CacheArrayCopyOnWrite, ConstLookupSharesThePage)
{
    CacheArray arr = filledArray();
    CacheArray::State snap = arr.snapshotState();
    const CacheArray &view = arr;
    const CacheLineInfo *line = view.findLine(18 * lineBytes);
    ASSERT_NE(line, nullptr);
    // Set 18 lives on page 1; the read did not copy it.
    const CacheLineInfo *page = snap.pages[1].get();
    EXPECT_TRUE(line >= page &&
                line < page + CacheArray::setsPerPage * 2);
    // A write through the non-const lookup does.
    CacheLineInfo *owned = arr.findLine(18 * lineBytes);
    EXPECT_FALSE(owned >= page &&
                 owned < page + CacheArray::setsPerPage * 2);
}

TEST(CacheArrayCopyOnWrite, UnwrittenPagesAreNotAllocated)
{
    CacheArray arr(28 * 1024 * 1024, 16); // the Table I L2
    auto allocated = [&arr] {
        CacheArray::State state = arr.snapshotState();
        return std::count_if(
            state.pages.begin(), state.pages.end(),
            [](const auto &page) { return page != nullptr; });
    };
    EXPECT_EQ(allocated(), 0);
    EXPECT_EQ(arr.findLine(0x1234540), nullptr);
    EXPECT_EQ(arr.countValid(), 0u);
    EXPECT_FALSE(arr.invalidate(0x1234540));
    EXPECT_EQ(allocated(), 0);

    arr.install(arr.victimFor(0x1234540), 0x1234540,
                CoherenceState::Shared);
    EXPECT_EQ(allocated(), 1);
    EXPECT_EQ(arr.countValid(), 1u);
}

} // namespace
} // namespace strand
