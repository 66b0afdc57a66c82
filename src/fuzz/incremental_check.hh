/**
 * @file
 * Exact incremental structural-invariant checking over a sequence of
 * memory images.
 *
 * The fuzzer checks the workload's invariants on the recovered image
 * of every crash point, and consecutive images differ in a handful of
 * lines. A workload splits its invariant into ordered independent
 * units (Workload::checkUnit), each a pure function of the words it
 * reads. The checker records the lines each unit read, diffs every
 * new image against the previously checked one (pages the two share
 * are skipped unread, see WordStore::forEachChangedLine), and
 * re-checks only the units that read a changed line. Every other
 * unit would read the same words and so reach the same verdict: the
 * result equals Workload::checkInvariants() on the new image, with
 * no sampling.
 */

#ifndef FUZZ_INCREMENTAL_CHECK_HH
#define FUZZ_INCREMENTAL_CHECK_HH

#include <array>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/memory_image.hh"
#include "workloads/workload.hh"

namespace strand
{

/** Incremental Workload::checkInvariants() over persisted views. */
class IncrementalInvariants
{
  public:
    explicit IncrementalInvariants(const Workload &workload);

    /**
     * Check @p image's persisted view. The first call checks every
     * unit; later calls re-check only the units that read a line
     * whose persisted words differ from the previously checked
     * image.
     * @return the first failing unit's description in unit order,
     * i.e. exactly checkInvariants() of @p image; empty if
     * consistent.
     */
    std::string check(const MemoryImage &image);

    /**
     * check() with the diff supplied: @p changedLines must hold
     * every line whose persisted words differ between @p image and
     * the previously checked image (extra lines only cost time). A
     * line left out can leave a stale verdict standing.
     */
    std::string checkChanged(const MemoryImage &image,
                             const std::vector<Addr> &changedLines);

    /** Units the last call checked. */
    std::size_t lastUnitsChecked() const { return unitsChecked; }

  private:
    static constexpr unsigned linesPerPage =
        WordStore::pageBytes / lineBytes;
    /** Reader slot values besides a unit index. */
    static constexpr std::uint32_t noUnit = ~std::uint32_t{0};
    static constexpr std::uint32_t manyUnits = noUnit - 1;

    /** For each line of one page: the unit that read it last, or
     * noUnit, or manyUnits (then sharedReaders holds them). */
    using PageReaders = std::array<std::uint32_t, linesPerPage>;

    /** @return @p line's index within its page. */
    static unsigned
    lineIndex(Addr line)
    {
        return static_cast<unsigned>((line & (WordStore::pageBytes - 1)) /
                                     lineBytes);
    }

    /** Where a unit's lines sit in readLines. */
    struct Span
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    void checkUnit(std::uint32_t unit, const MemoryImage &image);
    void addReader(Addr line, std::uint32_t unit);
    void dropReader(Addr line, std::uint32_t unit);
    /** Drop the ranges re-checks abandoned from readLines. */
    void compactReadLines();

    const Workload &workload;
    /** The image the recorded reads and verdicts belong to. */
    std::optional<MemoryImage> checked;
    /**
     * Lines each unit read at its last check, in read order, all
     * units in one array: a re-check appends the unit's new range
     * and abandons the old one.
     */
    std::vector<Addr> readLines;
    std::vector<Span> spans;
    /** Lines of readLines inside some unit's span. */
    std::size_t liveLines = 0;
    std::vector<std::string> verdicts;
    /** Units whose verdict is a failure, ascending. */
    std::set<std::uint32_t> failing;
    /** Page base -> which unit read each of its lines. */
    std::unordered_map<Addr, PageReaders> readers;
    /** Lines read by more than one unit (cycles, corrupt links). */
    std::unordered_map<Addr, std::vector<std::uint32_t>> sharedReaders;
    std::size_t unitsChecked = 0;
};

} // namespace strand

#endif // FUZZ_INCREMENTAL_CHECK_HH
