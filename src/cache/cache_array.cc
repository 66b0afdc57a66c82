#include "cache/cache_array.hh"

namespace strand
{

const char *
coherenceStateName(CoherenceState state)
{
    switch (state) {
      case CoherenceState::Invalid:
        return "I";
      case CoherenceState::Shared:
        return "S";
      case CoherenceState::Exclusive:
        return "E";
      case CoherenceState::Modified:
        return "M";
    }
    return "?";
}

CacheArray::CacheArray(std::uint64_t sizeBytes, unsigned ways)
    : ways(ways)
{
    fatalIf(ways == 0, "cache must have at least one way");
    std::uint64_t numLines = sizeBytes / lineBytes;
    fatalIf(numLines == 0 || numLines % ways != 0,
            "cache size {} not divisible into {}-way sets", sizeBytes,
            ways);
    sets = static_cast<unsigned>(numLines / ways);
    pages.resize((sets + setsPerPage - 1) / setsPerPage);
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (lineAlign(addr) / lineBytes) % sets;
}

int
CacheArray::findWay(const CacheLineInfo *lines, Addr addr) const
{
    Addr la = lineAlign(addr);
    for (unsigned w = 0; w < ways; ++w)
        if (lines[w].valid() && lines[w].lineAddr == la)
            return static_cast<int>(w);
    return -1;
}

CacheLineInfo *
CacheArray::findLine(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    std::size_t offset = (set % setsPerPage) * ways;
    const Page &page = pages[set / setsPerPage];
    if (!page)
        return nullptr;
    int way = findWay(page.get() + offset, addr);
    if (way < 0)
        return nullptr;
    return writablePage(set / setsPerPage) + offset + way;
}

const CacheLineInfo *
CacheArray::findLine(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    const CacheLineInfo *page = pages[set / setsPerPage].get();
    if (!page)
        return nullptr;
    const CacheLineInfo *lines = page + (set % setsPerPage) * ways;
    int way = findWay(lines, addr);
    return way < 0 ? nullptr : lines + way;
}

CacheLineInfo &
CacheArray::victimFor(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    CacheLineInfo *lines =
        writablePage(set / setsPerPage) + (set % setsPerPage) * ways;
    CacheLineInfo *victim = &lines[0];
    for (unsigned w = 0; w < ways; ++w) {
        CacheLineInfo &line = lines[w];
        if (!line.valid())
            return line;
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    return *victim;
}

bool
CacheArray::invalidate(Addr addr)
{
    CacheLineInfo *line = findLine(addr);
    if (!line)
        return false;
    line->state = CoherenceState::Invalid;
    return true;
}

CacheLineInfo *
CacheArray::ownPage(std::size_t index)
{
    Page &page = pages[index];
    Page fresh = std::make_shared<CacheLineInfo[]>(pageLines());
    // A snapshot or a copy of this array still holds the page: give
    // this array its own copy before the first write.
    if (page)
        std::copy_n(page.get(), pageLines(), fresh.get());
    page = std::move(fresh);
    return page.get();
}

void
CacheArray::restoreState(const State &state)
{
    panicIf(state.sets != sets || state.ways != ways,
            "cache array geometry changed across a snapshot");
    useClock = state.useClock;
    pages = state.pages;
}

std::uint64_t
CacheArray::countValid() const
{
    std::uint64_t count = 0;
    for (const Page &page : pages)
        if (page)
            count += std::count_if(
                page.get(), page.get() + pageLines(),
                [](const CacheLineInfo &line) { return line.valid(); });
    return count;
}

} // namespace strand
