/**
 * @file
 * Unit tests for the functional memory image: architectural vs
 * persisted views, line snapshots, and crash semantics.
 *
 * The copy-on-write tests at the end check that copies of an image
 * share its pages, that every writer copies a shared page before
 * writing it (in both directions: clone to source and source to
 * clone), and count the bytes a clone and its first write allocate
 * through a replaced operator new.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <vector>

#include "mem/memory_image.hh"

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

constexpr Addr pmLine = pmBase + 0x1000;

TEST(AddressMap, LineAndWordHelpers)
{
    EXPECT_EQ(lineAlign(pmBase + 100), pmBase + 64);
    EXPECT_EQ(wordAlign(pmBase + 100), pmBase + 96);
    EXPECT_EQ(wordIndex(pmBase + 100), 4u);
    EXPECT_TRUE(isPersistentAddr(pmBase));
    EXPECT_TRUE(isPersistentAddr(pmBase + pmSize - 1));
    EXPECT_FALSE(isPersistentAddr(pmBase - 1));
    EXPECT_FALSE(isPersistentAddr(dramBase));
}

TEST(MemoryImage, ArchWriteReadRoundTrip)
{
    MemoryImage img;
    EXPECT_FALSE(img.archContains(pmLine));
    EXPECT_EQ(img.readArch(pmLine), 0u);
    img.writeArch(pmLine, 0xdeadbeef);
    EXPECT_TRUE(img.archContains(pmLine));
    EXPECT_EQ(img.readArch(pmLine), 0xdeadbeefu);
    // Unaligned access resolves to the containing word.
    EXPECT_EQ(img.readArch(pmLine + 3), 0xdeadbeefu);
}

TEST(MemoryImage, SnapshotCapturesOnlyWrittenWords)
{
    MemoryImage img;
    img.writeArch(pmLine + 0, 11);
    img.writeArch(pmLine + 16, 22);
    LineData snap = img.snapshotLine(pmLine + 16);
    EXPECT_EQ(snap.lineAddr, pmLine);
    EXPECT_TRUE(snap.valid(0));
    EXPECT_FALSE(snap.valid(1));
    EXPECT_TRUE(snap.valid(2));
    EXPECT_EQ(snap.words[0], 11u);
    EXPECT_EQ(snap.words[2], 22u);
}

TEST(MemoryImage, PersistAppliesSnapshotNotLaterStores)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    LineData snap = img.snapshotLine(pmLine);
    // A later architectural store must not leak into the snapshot.
    img.writeArch(pmLine, 2);
    img.persistLine(snap);
    EXPECT_EQ(img.readPersisted(pmLine), 1u);
    EXPECT_EQ(img.readArch(pmLine), 2u);
}

TEST(MemoryImage, PersistedViewStartsEmpty)
{
    MemoryImage img;
    img.writeArch(pmLine, 42);
    EXPECT_FALSE(img.persistedContains(pmLine));
    EXPECT_EQ(img.readPersisted(pmLine), 0u);
}

TEST(MemoryImage, CrashDiscardsUnpersistedData)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    img.persistLine(img.snapshotLine(pmLine));
    img.writeArch(pmLine, 2);
    img.writeArch(pmLine + 8, 99); // never persisted

    img.crash();

    // Post-crash architectural state equals the persisted view.
    EXPECT_EQ(img.readArch(pmLine), 1u);
    EXPECT_FALSE(img.archContains(pmLine + 8));
}

TEST(MemoryImage, PersistToVolatileAddressPanics)
{
    MemoryImage img;
    img.writeArch(dramBase + 64, 5);
    LineData snap = img.snapshotLine(dramBase + 64);
    EXPECT_THROW(img.persistLine(snap), std::logic_error);
}

TEST(MemoryImage, EmptySnapshotPersistIsNoop)
{
    MemoryImage img;
    LineData empty;
    empty.lineAddr = dramBase; // invalid range but no valid words
    EXPECT_NO_THROW(img.persistLine(empty));
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST(MemoryImage, LineDataSetAndValidMask)
{
    LineData data;
    data.set(0, 7);
    data.set(7, 9);
    EXPECT_TRUE(data.valid(0));
    EXPECT_TRUE(data.valid(7));
    EXPECT_FALSE(data.valid(3));
    EXPECT_THROW(data.set(8, 1), std::logic_error);
}

TEST(MemoryImage, ClonePersistedTornRevertsUnadmittedWords)
{
    MemoryImage img;
    // Word 0 persists once before the torn admission; word 1 never
    // persisted before it.
    img.writeArch(pmLine + 0, 1);
    img.persistLine(img.snapshotLine(pmLine));
    img.writeArch(pmLine + 0, 2);
    img.writeArch(pmLine + 8, 3);
    img.persistLine(img.snapshotLine(pmLine)); // the torn admission
    ASSERT_EQ(img.lastAdmissionMask(), 0b11u);

    // Admit only word 1: word 0 reverts to its pre-admission value.
    MemoryImage tornHigh = img.clonePersistedTorn(0b10);
    EXPECT_EQ(tornHigh.readPersisted(pmLine + 0), 1u);
    EXPECT_EQ(tornHigh.readPersisted(pmLine + 8), 3u);

    // Admit only word 0: word 1 had no pre-image, so it vanishes
    // from both the persisted and the post-crash architectural view.
    MemoryImage tornLow = img.clonePersistedTorn(0b01);
    EXPECT_EQ(tornLow.readPersisted(pmLine + 0), 2u);
    EXPECT_FALSE(tornLow.persistedContains(pmLine + 8));
    EXPECT_FALSE(tornLow.archContains(pmLine + 8));

    // A full mask admits everything; the source image is untouched.
    MemoryImage full = img.clonePersistedTorn(0xff);
    EXPECT_EQ(full.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(full.readPersisted(pmLine + 8), 3u);
    EXPECT_EQ(img.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(img.readPersisted(pmLine + 8), 3u);
}

TEST(MemoryImage, ClonePersistedTornWithoutAdmissionIsPlainClone)
{
    MemoryImage img;
    img.writeDurable(pmLine, 7);
    MemoryImage torn = img.clonePersistedTorn(0);
    EXPECT_EQ(torn.readPersisted(pmLine), 7u);
    EXPECT_EQ(torn.readArch(pmLine), 7u);
}

TEST(WordStore, SparseWritesAcrossPageBoundaries)
{
    // Words straddling a 4 KiB page boundary land in different pages
    // of the sparse store; neighbors within the same pages stay
    // unoccupied and read as zero.
    MemoryImage img;
    const Addr boundary = pmBase + WordStore::pageBytes;
    img.writeArch(boundary - wordBytes, 0x11);
    img.writeArch(boundary, 0x22);
    EXPECT_EQ(img.readArch(boundary - wordBytes), 0x11u);
    EXPECT_EQ(img.readArch(boundary), 0x22u);
    EXPECT_EQ(img.archWords(), 2u);
    EXPECT_FALSE(img.archContains(boundary - 2 * wordBytes));
    EXPECT_FALSE(img.archContains(boundary + wordBytes));
    EXPECT_EQ(img.readArch(boundary + wordBytes), 0u);

    // Widely scattered pages: one word each, no cross-talk.
    for (unsigned i = 0; i < 64; ++i)
        img.writeArch(pmBase + i * 16 * WordStore::pageBytes, i + 1);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(
            img.readArch(pmBase + i * 16 * WordStore::pageBytes),
            i + 1);
    }
    EXPECT_EQ(img.archWords(), 66u);
}

TEST(WordStore, SnapshotAndPersistRoundTripNearPageEdges)
{
    // Cache lines never span pages (pageBytes is a multiple of
    // lineBytes), so the one-page-lookup fast path in snapshotLine /
    // persistLine must behave identically for the first and last
    // line of a page.
    MemoryImage img;
    const Addr lastLine =
        pmBase + WordStore::pageBytes - lineBytes;
    const Addr firstLine = pmBase + WordStore::pageBytes;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        img.writeArch(lastLine + w * wordBytes, 100 + w);
        img.writeArch(firstLine + w * wordBytes, 200 + w);
    }
    img.persistLine(img.snapshotLine(lastLine));
    img.persistLine(img.snapshotLine(firstLine));
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        EXPECT_EQ(img.readPersisted(lastLine + w * wordBytes),
                  100u + w);
        EXPECT_EQ(img.readPersisted(firstLine + w * wordBytes),
                  200u + w);
    }
    EXPECT_EQ(img.persistedWords(), 2u * wordsPerLine);
}

TEST(WordStore, ForEachEnumeratesEveryOccupiedWordOnce)
{
    MemoryImage img;
    // Two partial lines in different pages plus one full line.
    img.writeDurable(pmLine, 1);
    img.writeDurable(pmLine + 24, 2);
    img.writeDurable(pmLine + 4 * WordStore::pageBytes, 3);
    std::map<Addr, std::uint64_t> seen;
    img.forEachPersisted([&seen](Addr addr, std::uint64_t value) {
        EXPECT_TRUE(seen.emplace(addr, value).second);
    });
    std::map<Addr, std::uint64_t> expected{
        {pmLine, 1},
        {pmLine + 24, 2},
        {pmLine + 4 * WordStore::pageBytes, 3},
    };
    EXPECT_EQ(seen, expected);
}

TEST(WordStore, TornCloneMatchesWordMapSemanticsOnPagedStore)
{
    // The paged store must reproduce the word-map semantics
    // ClonePersistedTornRevertsUnadmittedWords pins down, here with
    // the torn line sitting at the very end of a page and the
    // pre-image of one word living only in an earlier admission.
    MemoryImage img;
    const Addr line = pmBase + 7 * WordStore::pageBytes - lineBytes;
    img.writeArch(line + 0, 1);
    img.persistLine(img.snapshotLine(line));
    img.writeArch(line + 0, 2);
    img.writeArch(line + 8, 3);
    img.persistLine(img.snapshotLine(line));
    ASSERT_EQ(img.lastAdmissionMask(), 0b11u);

    MemoryImage torn = img.clonePersistedTorn(0b10);
    EXPECT_EQ(torn.readPersisted(line + 0), 1u);
    EXPECT_EQ(torn.readPersisted(line + 8), 3u);

    // Reverting a word with no pre-image erases it from the page;
    // the slot reads as zero and reports unoccupied.
    MemoryImage tornLow = img.clonePersistedTorn(0b01);
    EXPECT_EQ(tornLow.readPersisted(line + 0), 2u);
    EXPECT_FALSE(tornLow.persistedContains(line + 8));
    EXPECT_EQ(tornLow.readPersisted(line + 8), 0u);
    EXPECT_EQ(tornLow.persistedWords(), 1u);

    // Clones share pages copy-on-write: writing the clone leaves the
    // source image untouched.
    torn.writeDurable(line + 16, 77);
    EXPECT_FALSE(img.persistedContains(line + 16));
}

TEST(WordStore, TornMaskSpanningPageBoundaryRevertsBothSides)
{
    // Admissions on the last line of one page and the first line of
    // the next: the torn-word revert walks prevValid/prevWords for a
    // line whose page neighbours hold earlier admissions. The
    // boundary must not leak reverts into the adjacent page, and the
    // erase path must vacate the first/last slot of a page cleanly.
    MemoryImage img;
    const Addr boundary = pmBase + 3 * WordStore::pageBytes;
    const Addr lastLine = boundary - lineBytes;
    const Addr firstLine = boundary;

    // Earlier admission fills the last line of the low page.
    for (unsigned w = 0; w < wordsPerLine; ++w)
        img.writeArch(lastLine + w * wordBytes, 100 + w);
    img.persistLine(img.snapshotLine(lastLine));

    // The torn admission sits on the first line of the high page:
    // word 0 has a pre-image from an earlier admission, word 7 does
    // not.
    img.writeArch(firstLine + 0, 1);
    img.persistLine(img.snapshotLine(firstLine));
    img.writeArch(firstLine + 0, 2);
    img.writeArch(firstLine + 7 * wordBytes, 3);
    img.persistLine(img.snapshotLine(firstLine));
    ASSERT_EQ(img.lastAdmissionMask(), 0b1000'0001u);

    // Admit nothing of the final line: word 0 reverts to its
    // pre-image, word 7 is erased from the high page's first slots.
    MemoryImage torn = img.clonePersistedTorn(0);
    EXPECT_EQ(torn.readPersisted(firstLine + 0), 1u);
    EXPECT_FALSE(torn.persistedContains(firstLine + 7 * wordBytes));
    // The low page — the other side of the boundary — is untouched.
    for (unsigned w = 0; w < wordsPerLine; ++w)
        EXPECT_EQ(torn.readPersisted(lastLine + w * wordBytes),
                  100u + w);
    EXPECT_EQ(torn.persistedWords(), wordsPerLine + 1u);

    // Mirror image: tear an admission on the LAST line of the low
    // page with the high page already populated.
    MemoryImage mirror;
    mirror.writeArch(firstLine, 55);
    mirror.persistLine(mirror.snapshotLine(firstLine));
    mirror.writeArch(lastLine + 7 * wordBytes, 9);
    mirror.persistLine(mirror.snapshotLine(lastLine));
    MemoryImage mirrorTorn = mirror.clonePersistedTorn(0);
    EXPECT_FALSE(
        mirrorTorn.persistedContains(lastLine + 7 * wordBytes));
    EXPECT_EQ(mirrorTorn.readPersisted(firstLine), 55u);
    EXPECT_EQ(mirrorTorn.persistedWords(), 1u);
}

TEST(MemoryImage, UndoAdmissionRestoresPreAdmissionImage)
{
    // The forked harness rewinds a completed run's image by undoing
    // admissions newest-first. One step of that: fork the image
    // mid-admission (pre-image recorded, line admitted), undo, and
    // land exactly on the pre-admission persisted state.
    MemoryImage img;
    img.writeArch(pmLine + 0, 1);
    img.persistLine(img.snapshotLine(pmLine));
    MemoryImage before = img; // fork: pre-admission state

    img.writeArch(pmLine + 0, 2);
    img.writeArch(pmLine + 8, 3);
    img.persistLine(img.snapshotLine(pmLine)); // the admission
    MemoryImage::AdmissionUndo undo = img.lastAdmissionUndo();

    MemoryImage rewound = img; // fork: post-admission state
    rewound.undoAdmission(undo);
    EXPECT_EQ(rewound.readPersisted(pmLine + 0), 1u);
    EXPECT_FALSE(rewound.persistedContains(pmLine + 8));
    EXPECT_EQ(rewound.persistedWords(), before.persistedWords());
    // The source fork is untouched by the rewind.
    EXPECT_EQ(img.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(img.readPersisted(pmLine + 8), 3u);
}

TEST(MemoryImage, UndoAdmissionsNewestFirstAcrossPages)
{
    // Three admissions on two pages, undone newest-first, must strip
    // the image back to empty — including vacating a page whose only
    // occupant came from an undone admission.
    MemoryImage img;
    const Addr lineA = pmBase + WordStore::pageBytes - lineBytes;
    const Addr lineB = pmBase + WordStore::pageBytes;
    std::vector<MemoryImage::AdmissionUndo> undos;

    img.writeArch(lineA, 1);
    img.persistLine(img.snapshotLine(lineA));
    undos.push_back(img.lastAdmissionUndo());
    img.writeArch(lineB, 2);
    img.persistLine(img.snapshotLine(lineB));
    undos.push_back(img.lastAdmissionUndo());
    img.writeArch(lineA, 3);
    img.persistLine(img.snapshotLine(lineA));
    undos.push_back(img.lastAdmissionUndo());

    img.undoAdmission(undos[2]);
    EXPECT_EQ(img.readPersisted(lineA), 1u);
    img.undoAdmission(undos[1]);
    EXPECT_FALSE(img.persistedContains(lineB));
    img.undoAdmission(undos[0]);
    EXPECT_FALSE(img.persistedContains(lineA));
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST(MemoryImage, SetLastAdmissionRebindsTornCloneAfterRewind)
{
    // After rewinding past an admission, the forked harness rebinds
    // lastAdmission to the newest remaining undo so torn clones tear
    // the RIGHT line — the same line a run crashed at that point
    // would have torn.
    MemoryImage img;
    img.writeArch(pmLine + 0, 1);
    img.writeArch(pmLine + 8, 2);
    img.persistLine(img.snapshotLine(pmLine));
    MemoryImage::AdmissionUndo first = img.lastAdmissionUndo();
    MemoryImage atFirst = img; // oracle: image right after admission 1

    img.writeArch(pmLine + 64, 9);
    img.persistLine(img.snapshotLine(pmLine + 64));

    MemoryImage rewound = img;
    rewound.undoAdmission(rewound.lastAdmissionUndo());
    rewound.setLastAdmission(first);
    EXPECT_EQ(rewound.lastAdmissionMask(), atFirst.lastAdmissionMask());

    MemoryImage tornRewound = rewound.clonePersistedTorn(0b01);
    MemoryImage tornOracle = atFirst.clonePersistedTorn(0b01);
    EXPECT_EQ(tornRewound.readPersisted(pmLine + 0),
              tornOracle.readPersisted(pmLine + 0));
    EXPECT_EQ(tornRewound.persistedContains(pmLine + 8),
              tornOracle.persistedContains(pmLine + 8));
    EXPECT_EQ(tornRewound.persistedWords(),
              tornOracle.persistedWords());
}

TEST(MemoryImage, AdmissionRingKeepsTheNewestAdmissions)
{
    // The ring models the ADR buffer: partial-drain media faults can
    // only strike what was still in flight, so the image retains the
    // last admissionRingDepth undos, oldest evicted first.
    MemoryImage img;
    const unsigned depth = MemoryImage::admissionRingDepth;
    for (unsigned i = 0; i < depth + 4; ++i) {
        img.writeArch(pmLine + i * lineBytes, i + 1);
        img.persistLine(img.snapshotLine(pmLine + i * lineBytes));
    }
    const auto &ring = img.recentAdmissions();
    ASSERT_EQ(ring.size(), depth);
    EXPECT_EQ(ring.front().lineAddr, pmLine + 4 * lineBytes);
    EXPECT_EQ(ring.back().lineAddr,
              pmLine + (depth + 3) * lineBytes);

    // Undoing ring entries newest-first (the partial-drain model)
    // reconstructs earlier admission-boundary images exactly.
    MemoryImage snapshot = img;
    unsigned dropped = 0;
    while (dropped < 2) {
        snapshot.undoAdmission(ring[ring.size() - 1 - dropped]);
        ++dropped;
    }
    EXPECT_FALSE(
        snapshot.persistedContains(pmLine + (depth + 3) * lineBytes));
    EXPECT_FALSE(
        snapshot.persistedContains(pmLine + (depth + 2) * lineBytes));
    EXPECT_EQ(snapshot.readPersisted(pmLine + (depth + 1) * lineBytes),
              depth + 2);
}

TEST(MemoryImage, PoisonScramblesAndSticksThroughPartialRewrites)
{
    MemoryImage img;
    img.writeDurable(pmLine, 7);
    img.writeDurable(pmLine + 8, 9);
    img.poisonLine(pmLine + 8); // any address in the line
    EXPECT_TRUE(img.isPoisoned(pmLine));
    EXPECT_TRUE(img.isPoisoned(pmLine + 56));
    EXPECT_FALSE(img.isPoisoned(pmLine + lineBytes));
    // Occupied words are scrambled so code that trusts them fails
    // loudly instead of reading back clean values.
    EXPECT_NE(img.readPersisted(pmLine), 7u);
    EXPECT_NE(img.readPersisted(pmLine + 8), 9u);
    ASSERT_EQ(img.poisonedLines().size(), 1u);
    EXPECT_EQ(*img.poisonedLines().begin(), pmLine);

    // Poison is sticky: a single-word durable rewrite repairs that
    // word's content but not the line's ECC block, so the marker
    // survives and recovery's residual pass still fences the line.
    img.writeDurable(pmLine, 7);
    EXPECT_EQ(img.readPersisted(pmLine), 7u);
    EXPECT_TRUE(img.isPoisoned(pmLine));
    EXPECT_NE(img.readPersisted(pmLine + 8), 9u);
}

TEST(MemoryImage, CorruptWordFlipsPersistedBits)
{
    MemoryImage img;
    img.writeDurable(pmLine, 0xff);
    img.corruptWord(pmLine, 1ull << 3);
    EXPECT_EQ(img.readPersisted(pmLine), 0xffull ^ (1ull << 3));
    // Flips are silent: no poison marker, nothing for the residual
    // pass to fence — exactly the class only checksums can catch.
    EXPECT_FALSE(img.isPoisoned(pmLine));
}

TEST(MemoryImage, OverlappingPersistsLastWriterWins)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    LineData first = img.snapshotLine(pmLine);
    img.writeArch(pmLine, 2);
    LineData second = img.snapshotLine(pmLine);
    img.persistLine(first);
    img.persistLine(second);
    EXPECT_EQ(img.readPersisted(pmLine), 2u);
    // Reversed order models a strong-persist-atomicity violation; the
    // image records whatever order the timing model produced.
    img.persistLine(first);
    EXPECT_EQ(img.readPersisted(pmLine), 1u);
}

/** Both views of an image, deep-copied out for comparison. */
struct Views
{
    std::map<Addr, std::uint64_t> persisted;
    std::map<Addr, std::uint64_t> arch;
    std::set<Addr> poisoned;

    bool operator==(const Views &) const = default;
};

/**
 * Deep copy of @p img: every persisted word, and the architectural
 * words at the persisted addresses and at @p extra.
 */
Views
viewsOf(const MemoryImage &img, const std::vector<Addr> &extra = {})
{
    Views v;
    img.forEachPersisted([&v](Addr addr, std::uint64_t value) {
        v.persisted[addr] = value;
    });
    std::vector<Addr> archAddrs = extra;
    for (const auto &[addr, value] : v.persisted)
        archAddrs.push_back(addr);
    for (Addr addr : archAddrs) {
        if (img.archContains(addr))
            v.arch[addr] = img.readArch(addr);
    }
    v.poisoned = img.poisonedLines();
    return v;
}

/** Two pages, each with a few durable lines, plus the edge lines. */
MemoryImage
twoPageImage()
{
    MemoryImage img;
    const Addr edge = pmBase + 4 * WordStore::pageBytes;
    for (Addr line : {edge - 2 * lineBytes, edge - lineBytes, edge,
                      edge + lineBytes}) {
        for (unsigned w = 0; w < wordsPerLine; ++w)
            img.writeArch(line + w * wordBytes, line + w + 1);
        img.persistLine(img.snapshotLine(line));
    }
    return img;
}

/** Addresses the isolation tests write, for viewsOf(). */
std::vector<Addr>
touchedAddrs()
{
    const Addr edge = pmBase + 4 * WordStore::pageBytes;
    std::vector<Addr> addrs;
    for (Addr line = edge - 2 * lineBytes; line < edge + 2 * lineBytes;
         line += lineBytes)
        for (unsigned w = 0; w < wordsPerLine; ++w)
            addrs.push_back(line + w * wordBytes);
    return addrs;
}

/**
 * Apply @p edit to a copy of a shared image, then to the source, and
 * check that each side sees only its own edit.
 */
void
expectIsolatedBothWays(
    const std::function<MemoryImage(const MemoryImage &)> &copy,
    const std::function<void(MemoryImage &)> &edit, const char *what)
{
    const std::vector<Addr> addrs = touchedAddrs();
    MemoryImage source = twoPageImage();
    MemoryImage clone = copy(source);
    const Views sourceBefore = viewsOf(source, addrs);
    const Views cloneBefore = viewsOf(clone, addrs);

    // Clone to source: the clone's edit must not reach the source.
    edit(clone);
    const Views cloneEdited = viewsOf(clone, addrs);
    EXPECT_NE(cloneEdited, cloneBefore) << what << ": edit was a no-op";
    EXPECT_EQ(viewsOf(source, addrs), sourceBefore)
        << what << ": clone's edit reached the source";

    // Source to clone: on a fresh pair, the source's edit must not
    // reach the clone.
    MemoryImage source2 = twoPageImage();
    MemoryImage clone2 = copy(source2);
    const Views clone2Before = viewsOf(clone2, addrs);
    edit(source2);
    EXPECT_EQ(viewsOf(clone2, addrs), clone2Before)
        << what << ": source's edit reached the clone";
}

const std::function<MemoryImage(const MemoryImage &)> plainCopy =
    [](const MemoryImage &img) { return img; };
const std::function<MemoryImage(const MemoryImage &)> persistedClone =
    [](const MemoryImage &img) { return img.clonePersisted(); };

TEST(WordStoreCow, SetAndClearStayIsolatedBothWays)
{
    WordStore source;
    const Addr a = pmBase + 3 * WordStore::pageBytes - wordBytes;
    const Addr b = pmBase + 3 * WordStore::pageBytes;
    auto clear = [](WordStore &store, Addr addr) {
        store.clearSlot(store.touchPage(addr), WordStore::slotOf(addr));
    };
    source.set(a, 1);
    source.set(b, 2);
    WordStore copy = source;

    copy.set(a, 10);
    clear(copy, b);
    EXPECT_EQ(source.get(a), 1u);
    EXPECT_EQ(source.get(b), 2u);
    EXPECT_EQ(source.size(), 2u);
    EXPECT_EQ(copy.get(a), 10u);
    EXPECT_FALSE(copy.contains(b));
    EXPECT_EQ(copy.size(), 1u);

    clear(source, a);
    source.set(b, 20);
    EXPECT_EQ(copy.get(a), 10u);
    EXPECT_FALSE(copy.contains(b));
    EXPECT_FALSE(source.contains(a));
    EXPECT_EQ(source.get(b), 20u);
}

TEST(WordStoreCow, EditsStayIsolatedBothWays)
{
    const Addr edge = pmBase + 4 * WordStore::pageBytes;
    for (const auto &copy : {plainCopy, persistedClone}) {
        expectIsolatedBothWays(
            copy,
            [edge](MemoryImage &img) {
                img.writeArch(edge, 99);
                img.writeDurable(edge - lineBytes, 98);
            },
            "writeArch/writeDurable");
        expectIsolatedBothWays(
            copy,
            [edge](MemoryImage &img) {
                img.writeArch(edge - lineBytes + 8, 97);
                img.persistLine(img.snapshotLine(edge - lineBytes));
            },
            "persistLine");
        // A clone has no admission history of its own; undo the
        // source's newest admission on either side.
        const MemoryImage::AdmissionUndo newest =
            twoPageImage().recentAdmissions().back();
        expectIsolatedBothWays(
            copy,
            [newest](MemoryImage &img) { img.undoAdmission(newest); },
            "undoAdmission");
        expectIsolatedBothWays(
            copy, [edge](MemoryImage &img) { img.poisonLine(edge); },
            "poisonLine");
        expectIsolatedBothWays(
            copy,
            [edge](MemoryImage &img) {
                img.corruptWord(edge - wordBytes, 1ull << 5);
            },
            "corruptWord");
    }
}

TEST(WordStoreCow, TornCloneAcrossAPageEdgeStaysIsolated)
{
    // The newest admission is the first line of the upper page; a
    // torn clone reverts and erases words there while the lower page
    // stays shared.
    const std::vector<Addr> addrs = touchedAddrs();
    const Addr edge = pmBase + 4 * WordStore::pageBytes;
    MemoryImage source = twoPageImage();
    source.writeArch(edge, 500);
    source.writeArch(edge + lineBytes - wordBytes, 501);
    source.persistLine(source.snapshotLine(edge));
    const Views sourceBefore = viewsOf(source, addrs);

    MemoryImage torn = source.clonePersistedTorn(0b1000'0000);
    EXPECT_EQ(torn.readPersisted(edge), edge + 1);
    EXPECT_EQ(torn.readPersisted(edge + lineBytes - wordBytes), 501u);
    EXPECT_EQ(viewsOf(source, addrs), sourceBefore)
        << "tearing the clone reached the source";

    // Later traffic on the source, on both sides of the edge, must
    // not reach the torn clone.
    const Views tornBefore = viewsOf(torn, addrs);
    source.writeDurable(edge - wordBytes, 600);
    source.writeArch(edge + 8, 601);
    source.persistLine(source.snapshotLine(edge));
    EXPECT_EQ(viewsOf(torn, addrs), tornBefore)
        << "source traffic reached the torn clone";
}

/** An image the size of nstore's: 4096 bucket lines and 16384
 * 64-byte tuples, durable. */
MemoryImage
nstoreSizedImage()
{
    MemoryImage img;
    const Addr heap = pmBase + 0x100000;
    const unsigned lines = 4096 + 16384;
    for (unsigned l = 0; l < lines; ++l) {
        const Addr line = heap + static_cast<Addr>(l) * lineBytes;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            img.writeDurable(line + w * wordBytes, l * 8 + w + 1);
    }
    return img;
}

TEST(WordStoreCow, CloneAllocatesLessThanOnePage)
{
    const MemoryImage img = nstoreSizedImage();
    ASSERT_EQ(img.persistedWords(), (4096u + 16384u) * wordsPerLine);

    std::uint64_t before = heapBytes.load();
    MemoryImage clone = img.clonePersisted();
    EXPECT_LT(heapBytes.load() - before, sizeof(WordStore::Page))
        << "a clone must share pages, not copy them";

    before = heapBytes.load();
    MemoryImage copy = img;
    EXPECT_LT(heapBytes.load() - before, sizeof(WordStore::Page));
    EXPECT_EQ(clone.readPersisted(pmBase + 0x100000), 1u);
    EXPECT_EQ(copy.persistedWords(), img.persistedWords());
}

TEST(WordStoreCow, FirstWriteAfterACloneCopiesExactlyOnePage)
{
    const MemoryImage img = nstoreSizedImage();
    MemoryImage clone = img.clonePersisted();
    const Addr word = pmBase + 0x100000 + 5000 * lineBytes;

    // One view written, one page copied: at least a page's bytes and
    // less than two.
    std::uint64_t before = heapBytes.load();
    clone.writeArch(word, 7);
    std::uint64_t copied = heapBytes.load() - before;
    EXPECT_GE(copied, sizeof(WordStore::Page));
    EXPECT_LT(copied, 2 * sizeof(WordStore::Page));

    // The page is private now: writing it again allocates nothing.
    before = heapBytes.load();
    clone.writeArch(word + wordBytes, 8);
    EXPECT_EQ(heapBytes.load() - before, 0u);

    // A durable write reaches both views: one page each.
    before = heapBytes.load();
    clone.writeDurable(word + WordStore::pageBytes, 9);
    copied = heapBytes.load() - before;
    EXPECT_GE(copied, 2 * sizeof(WordStore::Page));
    EXPECT_LT(copied, 3 * sizeof(WordStore::Page));

    EXPECT_EQ(img.readArch(word), 5000u * 8 + 1);
    EXPECT_EQ(img.readPersisted(word + WordStore::pageBytes),
              (5000u + WordStore::pageBytes / lineBytes) * 8 + 1);
}

TEST(WordStoreCow, ChangedLinesSkipSharedPages)
{
    MemoryImage a = twoPageImage();
    MemoryImage b = a;
    std::vector<Addr> changed;
    auto collect = [&changed](Addr line) { changed.push_back(line); };
    b.forEachChangedPersistedLine(a, collect);
    EXPECT_TRUE(changed.empty());

    // A value change, a new word on an absent page, and an erase are
    // each reported once, by line; a rewrite to the same value and an
    // architectural-only write are not.
    const Addr edge = pmBase + 4 * WordStore::pageBytes;
    const Addr far = pmBase + 40 * WordStore::pageBytes;
    b.writeDurable(edge + 8, 1234);
    b.writeDurable(edge + 16, a.readPersisted(edge + 16));
    b.writeDurable(far + 3 * lineBytes, 5);
    b.writeArch(edge - lineBytes, 77);
    b.undoAdmission(a.recentAdmissions().front());
    b.forEachChangedPersistedLine(a, collect);
    std::sort(changed.begin(), changed.end());
    EXPECT_EQ(changed, (std::vector<Addr>{edge - 2 * lineBytes, edge,
                                          far + 3 * lineBytes}));

    // The diff is symmetric.
    std::vector<Addr> reverse;
    a.forEachChangedPersistedLine(
        b, [&reverse](Addr line) { reverse.push_back(line); });
    std::sort(reverse.begin(), reverse.end());
    EXPECT_EQ(reverse, changed);
}

} // namespace
} // namespace strand
