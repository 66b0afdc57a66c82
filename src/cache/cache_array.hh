/**
 * @file
 * Set-associative tag array with MESI state and LRU replacement.
 *
 * The timing model is tag-only: functional data lives in the global
 * MemoryImage and is snapshotted when a line departs toward the
 * memory controllers. The array tracks presence, coherence state,
 * and dirtiness, which is all the persistency mechanisms need.
 */

#ifndef CACHE_CACHE_ARRAY_HH
#define CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/** MESI coherence states. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** @return a short name for tracing. */
const char *coherenceStateName(CoherenceState state);

/** One cache line's bookkeeping. */
struct CacheLineInfo
{
    Addr lineAddr = 0;
    CoherenceState state = CoherenceState::Invalid;
    /** LRU timestamp; larger is more recent. */
    std::uint64_t lastUse = 0;

    bool valid() const { return state != CoherenceState::Invalid; }
    bool dirty() const { return state == CoherenceState::Modified; }
};

/**
 * Tag array for one cache. Geometry is (sizeBytes / 64) lines,
 * arranged as sets of @p ways lines each.
 *
 * The lines live in fixed-size pages of setsPerPage sets, held by
 * shared pointer. A snapshot (or a copy of the array) shares the
 * pages instead of copying them; the array copies a page the first
 * time it writes to it while anyone else still holds it. The writers
 * are the non-const findLine() on a hit, victimFor(), invalidate()
 * and forEachValid(); touch() and install() act on lines those
 * returned. A page that was never written is not allocated and reads
 * as all-Invalid. The const findLine() never copies.
 *
 * Sharing is decided by the pages' reference counts, which only
 * mean something to the thread that owns the array: an array and
 * every State captured from it belong to one thread.
 */
class CacheArray
{
  public:
    /**
     * Sets per copy-on-write page. 16 sets of the 16-way L2 is a
     * 6 KiB page: small enough that a mid-run write copies little,
     * large enough that the page table of the 28 MiB L2 (1792 pages)
     * is cheap to capture.
     */
    static constexpr unsigned setsPerPage = 16;

    using Page = std::shared_ptr<CacheLineInfo[]>;

    /**
     * @param sizeBytes Total capacity; must be a multiple of
     * ways * 64.
     * @param ways Set associativity.
     */
    CacheArray(std::uint64_t sizeBytes, unsigned ways);

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways; }

    /**
     * @return the line's info if present, else nullptr. A hit makes
     * the line's page private to this array, so the caller may write
     * through the pointer.
     */
    CacheLineInfo *findLine(Addr addr);
    /** @return the line's info if present; never copies a page. */
    const CacheLineInfo *findLine(Addr addr) const;
    /** @return whether @p addr's line is present; never copies a
     * page. */
    bool contains(Addr addr) const { return findLine(addr) != nullptr; }

    /** Record a use for LRU purposes. */
    void touch(CacheLineInfo &line) { line.lastUse = ++useClock; }

    /**
     * Choose a victim way in the set of @p addr. Prefers invalid
     * lines; otherwise the least recently used. The returned line may
     * be valid and dirty — the caller must handle the eviction.
     */
    CacheLineInfo &victimFor(Addr addr);

    /**
     * Install @p addr into @p victim (which must belong to the right
     * set) with the given state.
     */
    void
    install(CacheLineInfo &victim, Addr addr, CoherenceState state)
    {
        victim.lineAddr = lineAlign(addr);
        victim.state = state;
        touch(victim);
    }

    /** Invalidate a line if present. @return true if it was valid. */
    bool invalidate(Addr addr);

    /**
     * Full tag state captured by the hierarchy's snapshot: the page
     * table (sharing every page with the live array) and the LRU
     * clock. Capturing and restoring copy pointers, not lines.
     */
    struct State
    {
        std::uint64_t useClock = 0;
        std::vector<Page> pages;
        /** Geometry of the capturing array, checked on restore. */
        unsigned sets = 0;
        unsigned ways = 0;
    };

    /** Capture the tag state (snapshot support). */
    State snapshotState() const { return {useClock, pages, sets, ways}; }

    /** Rewind the tag state to @p state. Geometry is fixed at
     * construction, so a snapshot only restores into an array of the
     * geometry it was taken from. */
    void restoreState(const State &state);

    /** @return number of valid lines (linear scan; tests only). */
    std::uint64_t countValid() const;

    /** Iterate all valid lines (tests and draining). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t p = 0; p < pages.size(); ++p) {
            const CacheLineInfo *page = pages[p].get();
            if (!page ||
                std::none_of(page, page + pageLines(),
                             [](const CacheLineInfo &line) {
                                 return line.valid();
                             }))
                continue;
            CacheLineInfo *lines = writablePage(p);
            for (std::size_t i = 0; i < pageLines(); ++i)
                if (lines[i].valid())
                    fn(lines[i]);
        }
    }

  private:
    std::uint64_t setIndex(Addr addr) const;

    std::size_t pageLines() const
    {
        return std::size_t{setsPerPage} * ways;
    }

    /** @return the way of @p lines (one set) holding @p addr's line,
     * or -1. */
    int findWay(const CacheLineInfo *lines, Addr addr) const;

    /** @return page @p index's lines, private to this array. */
    CacheLineInfo *
    writablePage(std::size_t index)
    {
        Page &page = pages[index];
        if (page && page.use_count() == 1)
            return page.get();
        return ownPage(index);
    }

    /** Allocate page @p index if it never was, or copy it if anyone
     * else holds it. @return its lines. */
    CacheLineInfo *ownPage(std::size_t index);

    unsigned sets;
    unsigned ways;
    std::uint64_t useClock = 0;
    std::vector<Page> pages;
};

} // namespace strand

#endif // CACHE_CACHE_ARRAY_HH
