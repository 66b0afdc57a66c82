/**
 * @file
 * Functional memory state with separate architectural and persisted
 * views.
 *
 * The architectural view reflects the newest value each word has
 * taken on in the cache hierarchy (updated when a store drains from
 * the store queue into the L1). The persisted view reflects only the
 * data that has reached the ADR domain of the PM controller. A
 * simulated crash freezes the persisted view; recovery code then
 * reads it to reconstruct program state.
 */

#ifndef MEM_MEMORY_IMAGE_HH
#define MEM_MEMORY_IMAGE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/**
 * A snapshot of (part of) one cache line, captured when a flush or
 * write-back leaves the caches and applied to the persisted view when
 * the PM controller accepts it.
 */
struct LineData
{
    Addr lineAddr = 0;
    std::array<std::uint64_t, wordsPerLine> words{};
    /** Bit i set means words[i] holds a captured value. */
    std::uint8_t validMask = 0;

    bool
    valid(unsigned idx) const
    {
        return validMask & (1u << idx);
    }

    void
    set(unsigned idx, std::uint64_t value)
    {
        panicIf(idx >= wordsPerLine, "line word index out of range");
        words[idx] = value;
        validMask |= static_cast<std::uint8_t>(1u << idx);
    }
};

/**
 * Sparse word storage, page-granular and copy-on-write.
 *
 * Words live in fixed-size pages (512 words / 4 KiB of data), each
 * with an occupancy bitmap distinguishing written words from the
 * implicit zero background. Compared to a per-word hash map this
 * costs one hash probe per *page* on the line-granular paths
 * (snapshot, persist). Cache lines never span pages (pageBytes is a
 * multiple of lineBytes), so line operations touch exactly one page.
 *
 * Pages are held by shared pointer in chunks of pagesPerChunk
 * consecutive pages, and the chunks by shared pointer in a hash map
 * keyed by chunk base address. A copy of the store (a crash clone, a
 * clone's architectural view, a System snapshot) copies that map and
 * shares every chunk and page, as CacheArray shares tag pages. The
 * store copies a chunk and then a page the first time it writes to
 * them while anyone else still holds them, so an untouched page is
 * never copied and a write copies at most one page. Sharing is
 * decided by reference counts, which only mean something to the
 * thread that owns the store: a store and every copy of it belong to
 * one thread.
 */
class WordStore
{
  public:
    static constexpr unsigned pageWords = 512;
    static constexpr Addr pageBytes =
        static_cast<Addr>(pageWords) * wordBytes;
    static_assert(pageBytes % lineBytes == 0,
                  "lines must not span pages");
    /** Pages per chunk: 64 pages span 256 KiB, so an nstore-sized
     * image (about 1.3 MiB) is a handful of chunks. */
    static constexpr unsigned pagesPerChunk = 64;
    static constexpr Addr chunkBytes = pagesPerChunk * pageBytes;

    struct Page
    {
        /** Unwritten words hold zero, so values compare directly. */
        std::array<std::uint64_t, pageWords> words{};
        /** Bit w set means words[w] has been written. */
        std::array<std::uint64_t, pageWords / 64> occupancy{};
    };

    /** pagesPerChunk page slots; an absent page reads as zero. */
    using Chunk = std::array<std::shared_ptr<Page>, pagesPerChunk>;

    /** @return the base address of the page holding @p wordAddr. */
    static Addr
    pageBase(Addr wordAddr)
    {
        return wordAddr & ~(pageBytes - 1);
    }

    /** @return @p wordAddr's word slot within its page. */
    static unsigned
    slotOf(Addr wordAddr)
    {
        return static_cast<unsigned>((wordAddr & (pageBytes - 1)) /
                                     wordBytes);
    }

    static bool
    occupied(const Page &page, unsigned slot)
    {
        return (page.occupancy[slot >> 6] >> (slot & 63)) & 1;
    }

    /** Write one slot of @p page, which touchPage() returned. */
    void
    setSlot(Page &page, unsigned slot, std::uint64_t value)
    {
        if (!occupied(page, slot)) {
            page.occupancy[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            ++occupiedWords;
        }
        page.words[slot] = value;
    }

    /** Return one slot of @p page, which touchPage() returned, to
     * the never-written zero background. */
    void
    clearSlot(Page &page, unsigned slot)
    {
        if (!occupied(page, slot))
            return;
        page.occupancy[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        page.words[slot] = 0;
        --occupiedWords;
    }

    void
    set(Addr wordAddr, std::uint64_t value)
    {
        setSlot(touchPage(wordAddr), slotOf(wordAddr), value);
    }

    /** @return the word's value, or 0 if never written. */
    std::uint64_t
    get(Addr wordAddr) const
    {
        const Page *page = findPage(wordAddr);
        // Unwritten slots of an existing page read as zero from the
        // zero-initialized array, matching the sparse background.
        return page ? page->words[slotOf(wordAddr)] : 0;
    }

    bool
    contains(Addr wordAddr) const
    {
        const Page *page = findPage(wordAddr);
        return page && occupied(*page, slotOf(wordAddr));
    }

    /** @return the page holding @p wordAddr, or nullptr. Never
     * copies. */
    const Page *
    findPage(Addr wordAddr) const
    {
        auto it = chunks.find(chunkBase(wordAddr));
        return it == chunks.end()
                   ? nullptr
                   : (*it->second)[pageIndex(wordAddr)].get();
    }

    /**
     * @return the page holding @p wordAddr, private to this store:
     * created if absent, copied (with its chunk) if another store
     * still holds it.
     */
    Page &
    touchPage(Addr wordAddr)
    {
        std::shared_ptr<Page> &page =
            privatize(chunks[chunkBase(wordAddr)])[pageIndex(wordAddr)];
        return privatize(page);
    }

    /** Number of written words across all pages. */
    std::size_t size() const { return occupiedWords; }

    /** Walk every written word (unordered). */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const auto &[base, chunk] : chunks) {
            for (unsigned p = 0; p < pagesPerChunk; ++p) {
                const Page *page = (*chunk)[p].get();
                if (!page)
                    continue;
                const Addr pageAddr = base + p * pageBytes;
                for (unsigned slot = 0; slot < pageWords; ++slot) {
                    if (occupied(*page, slot))
                        visit(pageAddr + slot * wordBytes,
                              page->words[slot]);
                }
            }
        }
    }

    /**
     * Call @p visit(lineAddr) once for every line holding a word
     * whose value differs between this store and @p other, reading
     * unwritten words as zero (occupancy alone is no difference).
     * Chunks and pages the two stores share are skipped unread, so
     * the cost scales with what either store wrote since they last
     * shared it. Unordered.
     */
    template <typename Visit>
    void
    forEachChangedLine(const WordStore &other, Visit &&visit) const
    {
        static const Chunk none{};
        for (const auto &[base, chunk] : chunks) {
            auto it = other.chunks.find(base);
            const Chunk *theirs =
                it == other.chunks.end() ? &none : it->second.get();
            if (theirs != chunk.get())
                diffChunk(base, *chunk, *theirs, visit);
        }
        for (const auto &[base, chunk] : other.chunks) {
            if (!chunks.count(base))
                diffChunk(base, none, *chunk, visit);
        }
    }

  private:
    static constexpr unsigned linesPerPage = pageBytes / lineBytes;

    static Addr
    chunkBase(Addr wordAddr)
    {
        return wordAddr & ~(chunkBytes - 1);
    }

    static unsigned
    pageIndex(Addr wordAddr)
    {
        return static_cast<unsigned>((wordAddr & (chunkBytes - 1)) /
                                     pageBytes);
    }

    /** Make @p slot's target private to this store: allocate it if
     * absent, copy it if anyone else holds it. */
    template <typename T>
    static T &
    privatize(std::shared_ptr<T> &slot)
    {
        if (!slot)
            slot = std::make_shared<T>();
        else if (slot.use_count() != 1)
            slot = std::make_shared<T>(*slot);
        return *slot;
    }

    /** forEachChangedLine() over one chunk's pages. */
    template <typename Visit>
    static void
    diffChunk(Addr base, const Chunk &a, const Chunk &b, Visit &visit)
    {
        static const Page zero{};
        for (unsigned p = 0; p < pagesPerChunk; ++p) {
            if (a[p] == b[p])
                continue;
            const Page &pa = a[p] ? *a[p] : zero;
            const Page &pb = b[p] ? *b[p] : zero;
            const Addr pageAddr = base + p * pageBytes;
            for (unsigned line = 0; line < linesPerPage; ++line) {
                const unsigned slot = line * wordsPerLine;
                if (!std::equal(pa.words.begin() + slot,
                                pa.words.begin() + slot + wordsPerLine,
                                pb.words.begin() + slot))
                    visit(pageAddr + line * lineBytes);
            }
        }
    }

    std::unordered_map<Addr, std::shared_ptr<Chunk>> chunks;
    std::size_t occupiedWords = 0;
};

/**
 * The global functional memory image for one simulated system.
 */
class MemoryImage
{
  public:
    /**
     * Pre-image of one ADR admission: which words the admission
     * wrote, and what each of them held in the persisted view just
     * before. Recorded by persistLine() for torn-cacheline injection
     * (clonePersistedTorn()); the forked crash harness additionally
     * collects one per admission so a final image can be rewound
     * admission by admission (undoAdmission()).
     */
    struct AdmissionUndo
    {
        Addr lineAddr = 0;
        /** Words the admission wrote. */
        std::uint8_t writtenMask = 0;
        /** Of those, words that had a prior persisted value. */
        std::uint8_t prevValidMask = 0;
        std::array<std::uint64_t, wordsPerLine> prevWords{};
    };

    /** Architectural store: called when a store reaches the L1. */
    void
    writeArch(Addr addr, std::uint64_t value)
    {
        arch.set(wordAlign(addr), value);
    }

    /** @return the architectural value of the word at @p addr. */
    std::uint64_t
    readArch(Addr addr) const
    {
        return arch.get(wordAlign(addr));
    }

    /** @return true if the word has ever been written architecturally. */
    bool
    archContains(Addr addr) const
    {
        return arch.contains(wordAlign(addr));
    }

    /**
     * Capture the current architectural content of the line holding
     * @p addr. Words never written are left invalid in the snapshot.
     */
    LineData
    snapshotLine(Addr addr) const
    {
        LineData data;
        data.lineAddr = lineAlign(addr);
        const WordStore::Page *page = arch.findPage(data.lineAddr);
        if (!page)
            return data;
        unsigned base = WordStore::slotOf(data.lineAddr);
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            if (WordStore::occupied(*page, base + i))
                data.set(i, page->words[base + i]);
        }
        return data;
    }

    /**
     * Apply a snapshot to the persisted view. Called by the PM
     * controller at ADR admission, the point of persistence. The
     * admission's pre-image is remembered so torn-cacheline fault
     * injection can re-crash with only part of this line durable
     * (see clonePersistedTorn()).
     */
    void
    persistLine(const LineData &data)
    {
        panicIf(!isPersistentAddr(data.lineAddr) && data.validMask != 0,
                "persist to non-PM address {}", data.lineAddr);
        lastAdmission.lineAddr = data.lineAddr;
        lastAdmission.writtenMask = data.validMask;
        lastAdmission.prevValidMask = 0;
        if (data.validMask == 0) {
            pushAdmission(lastAdmission);
            return;
        }
        WordStore::Page &page = persisted.touchPage(data.lineAddr);
        unsigned base = WordStore::slotOf(data.lineAddr);
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            if (!data.valid(i))
                continue;
            if (WordStore::occupied(page, base + i)) {
                lastAdmission.prevWords[i] = page.words[base + i];
                lastAdmission.prevValidMask |=
                    static_cast<std::uint8_t>(1u << i);
            }
            persisted.setSlot(page, base + i, data.words[i]);
        }
        pushAdmission(lastAdmission);
    }

    /**
     * Write a word durably in one step: both the architectural and
     * persisted views are updated. Used to seed preloaded data
     * before a run and by recovery code (whose writes are flushed
     * before recovery completes).
     */
    void
    writeDurable(Addr addr, std::uint64_t value)
    {
        arch.set(wordAlign(addr), value);
        persisted.set(wordAlign(addr), value);
        // Poison is deliberately NOT cleared here: it marks the whole
        // line's ECC block uncorrectable, and a single-word overwrite
        // leaves the line's other words scrambled. Clearing on partial
        // writes would let rollback "repair" one word of a poisoned
        // line and silently expose the rest — the exact corruption
        // class recovery must quarantine instead (its residual-poison
        // pass fences every still-poisoned line).
    }

    /** @return the persisted value of the word at @p addr. */
    std::uint64_t
    readPersisted(Addr addr) const
    {
        return persisted.get(wordAlign(addr));
    }

    /** @return true if the word has persisted at least once. */
    bool
    persistedContains(Addr addr) const
    {
        return persisted.contains(wordAlign(addr));
    }

    /**
     * Simulate a failure: volatile state disappears; the persisted
     * view survives untouched. The architectural view is replaced by
     * the persisted view, which is what a restarted program observes.
     */
    void
    crash()
    {
        arch = persisted;
    }

    /**
     * Clone the persisted view into a fresh post-crash image: both
     * views of the clone hold exactly what had reached the ADR
     * domain. The crash-injection harness snapshots the running
     * system this way at every crash point, then runs recovery on
     * the clone while the original run continues undisturbed. Both
     * views share the source's persisted pages (WordStore), so a
     * clone costs two page tables; recovery's writes copy only the
     * pages they touch.
     */
    MemoryImage
    clonePersisted() const
    {
        MemoryImage snapshot;
        snapshot.persisted = persisted;
        snapshot.arch = persisted;
        return snapshot;
    }

    /**
     * Like clonePersisted(), but model a *torn* final admission: PM
     * devices write below ADR line granularity, so a failure racing
     * the last admitted line can leave only a subset of its 8-byte
     * words durable. Words of the most recent persistLine() call
     * whose bit is clear in @p admitMask are reverted to their
     * pre-admission persisted value (or dropped, if the word had
     * never persisted). With no admission yet, or a full mask, the
     * clone equals clonePersisted().
     */
    MemoryImage
    clonePersistedTorn(std::uint8_t admitMask) const
    {
        MemoryImage snapshot = clonePersisted();
        const std::uint8_t torn = lastAdmission.writtenMask & ~admitMask;
        revertWords(snapshot.persisted, lastAdmission, torn);
        revertWords(snapshot.arch, lastAdmission, torn);
        return snapshot;
    }

    /** Valid-word mask of the most recent ADR admission (0 if none). */
    std::uint8_t
    lastAdmissionMask() const
    {
        return lastAdmission.writtenMask;
    }

    /** Pre-image of the most recent ADR admission. */
    const AdmissionUndo &
    lastAdmissionUndo() const
    {
        return lastAdmission;
    }

    /**
     * Overwrite the remembered last admission. The forked crash
     * harness rewinds a final image admission by admission; after
     * each rewind the previous admission in the chain becomes the
     * "most recent" one, so torn clones at the rewound point tear
     * the right line.
     */
    void
    setLastAdmission(const AdmissionUndo &undo)
    {
        lastAdmission = undo;
    }

    /**
     * Revert one admission in BOTH views: every word @p undo wrote
     * goes back to its pre-admission persisted value (or to the
     * never-written background). Only meaningful on an image whose
     * views coincide with the persisted state at the time of the
     * admission — i.e. while rewinding a completed run's final image
     * newest-admission-first; undoing out of order restores stale
     * pre-images.
     */
    void
    undoAdmission(const AdmissionUndo &undo)
    {
        revertWords(persisted, undo, undo.writtenMask);
        revertWords(arch, undo, undo.writtenMask);
    }

    /**
     * Media-fault model: how many trailing ADR admissions the image
     * remembers for partial-drain injection. Matches the depth a
     * small ADR buffer could lose on power failure; the fault model
     * never reaches further back than this.
     */
    static constexpr std::size_t admissionRingDepth = 8;

    /**
     * The last admissionRingDepth ADR admissions, oldest first.
     * Includes empty-mask admissions so the ring lines up one-to-one
     * with the forked harness's admission callback stream (required
     * for fork/two-run fault parity).
     */
    const std::vector<AdmissionUndo> &
    recentAdmissions() const
    {
        return admissionRing;
    }

    /**
     * Replace the remembered admission ring. The forked crash
     * harness rewinds a final image admission by admission and must
     * restore the ring a mid-run crash point would have seen, so
     * partial-drain faults pick from the same candidates in both
     * harness modes.
     */
    void
    setRecentAdmissions(std::vector<AdmissionUndo> ring)
    {
        admissionRing = std::move(ring);
        while (admissionRing.size() > admissionRingDepth)
            admissionRing.erase(admissionRing.begin());
    }

    /**
     * Media fault: mark the line holding @p addr as poisoned
     * (uncorrectable media error) and deterministically scramble its
     * occupied persisted words. Reads of a poisoned line fault on
     * real hardware; the scramble guarantees that any code path that
     * *trusts* poisoned content instead of quarantining it produces
     * observably wrong values rather than silently correct ones.
     */
    void
    poisonLine(Addr addr)
    {
        Addr line = lineAlign(addr);
        poisoned.insert(line);
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            Addr wa = line + i * wordBytes;
            if (persisted.contains(wa)) {
                std::uint64_t junk = 0xbadbadbadbad0000ULL ^ wa;
                persisted.set(wa, junk);
                arch.set(wa, junk);
            }
        }
    }

    /** @return true when @p addr's line is poisoned and unrepaired. */
    bool
    isPoisoned(Addr addr) const
    {
        return poisoned.count(lineAlign(addr)) != 0;
    }

    /** Poisoned, not-yet-repaired line addresses, ascending. */
    const std::set<Addr> &
    poisonedLines() const
    {
        return poisoned;
    }

    /**
     * Media fault: flip bits of one persisted word in place (silent
     * corruption — no poison flag, no trace). Both views change so a
     * post-crash reader sees the flipped value everywhere; a word
     * never written before simply becomes occupied holding the mask.
     */
    void
    corruptWord(Addr addr, std::uint64_t xorMask)
    {
        Addr wa = wordAlign(addr);
        std::uint64_t value = persisted.get(wa) ^ xorMask;
        persisted.set(wa, value);
        arch.set(wa, value);
    }

    /**
     * @return the persisted-view page holding @p addr, or nullptr if
     * no word of that page ever persisted. Page-granular access for
     * scans that would otherwise pay a hash probe per word (the
     * recovery log scan); absent pages and unoccupied slots read as
     * zero through WordStore::get(), so a caller that treats a null
     * page as all-zero words sees exactly readPersisted()'s values.
     */
    const WordStore::Page *
    persistedPage(Addr addr) const
    {
        return persisted.findPage(wordAlign(addr));
    }

    /**
     * Call @p visit(lineAddr) once for every line whose persisted
     * words differ between this image and @p other (see
     * WordStore::forEachChangedLine): what readPersisted() can tell
     * apart. Pages the two images share are skipped unread.
     */
    template <typename Visit>
    void
    forEachChangedPersistedLine(const MemoryImage &other,
                                Visit &&visit) const
    {
        persisted.forEachChangedLine(other.persisted, visit);
    }

    /** Walk every persisted word (unordered). */
    void
    forEachPersisted(
        const std::function<void(Addr, std::uint64_t)> &visit) const
    {
        persisted.forEach(visit);
    }

    std::size_t archWords() const { return arch.size(); }
    std::size_t persistedWords() const { return persisted.size(); }

  private:
    /**
     * Revert the words of @p undo's line selected by @p mask in
     * @p store to their pre-admission value, or to the never-written
     * background. One page lookup (and at most one page copy) per
     * line; a line that only loses words on an absent page is left
     * alone.
     */
    static void
    revertWords(WordStore &store, const AdmissionUndo &undo,
                std::uint8_t mask)
    {
        if (mask == 0 ||
            (!(mask & undo.prevValidMask) && !store.findPage(undo.lineAddr)))
            return;
        WordStore::Page &page = store.touchPage(undo.lineAddr);
        const unsigned base = WordStore::slotOf(undo.lineAddr);
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            if (!(mask & (1u << i)))
                continue;
            if (undo.prevValidMask & (1u << i))
                store.setSlot(page, base + i, undo.prevWords[i]);
            else
                store.clearSlot(page, base + i);
        }
    }

    void
    pushAdmission(const AdmissionUndo &undo)
    {
        if (admissionRing.size() >= admissionRingDepth)
            admissionRing.erase(admissionRing.begin());
        admissionRing.push_back(undo);
    }

    WordStore arch;
    WordStore persisted;
    AdmissionUndo lastAdmission;
    /** Trailing admissions, oldest first (partial-drain faults). */
    std::vector<AdmissionUndo> admissionRing;
    /** Poisoned (uncorrectable) line addresses; ordered for
     * deterministic iteration by recovery's quarantine pre-pass. */
    std::set<Addr> poisoned;
};

} // namespace strand

#endif // MEM_MEMORY_IMAGE_HH
