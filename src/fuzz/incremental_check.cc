#include "fuzz/incremental_check.hh"

#include <algorithm>

namespace strand
{

IncrementalInvariants::IncrementalInvariants(const Workload &workload)
    : workload(workload), spans(workload.invariantUnits()),
      verdicts(workload.invariantUnits())
{
    panicIf(spans.size() >= manyUnits,
            "too many invariant units to index");
}

std::string
IncrementalInvariants::check(const MemoryImage &image)
{
    std::vector<Addr> changed;
    if (checked) {
        image.forEachChangedPersistedLine(
            *checked, [&changed](Addr line) { changed.push_back(line); });
    }
    return checkChanged(image, changed);
}

std::string
IncrementalInvariants::checkChanged(
    const MemoryImage &image, const std::vector<Addr> &changedLines)
{
    unitsChecked = 0;
    if (!checked) {
        for (std::uint32_t unit = 0; unit < spans.size(); ++unit)
            checkUnit(unit, image);
    } else {
        std::vector<std::uint32_t> stale;
        for (Addr line : changedLines) {
            auto page = readers.find(WordStore::pageBase(line));
            if (page == readers.end())
                continue;
            std::uint32_t reader = page->second[lineIndex(line)];
            if (reader == manyUnits) {
                const auto &units = sharedReaders.at(line);
                stale.insert(stale.end(), units.begin(), units.end());
            } else if (reader != noUnit) {
                stale.push_back(reader);
            }
        }
        std::sort(stale.begin(), stale.end());
        stale.erase(std::unique(stale.begin(), stale.end()),
                    stale.end());
        for (std::uint32_t unit : stale)
            checkUnit(unit, image);
    }
    checked = image;
    return failing.empty() ? std::string{} : verdicts[*failing.begin()];
}

void
IncrementalInvariants::checkUnit(std::uint32_t unit,
                                 const MemoryImage &image)
{
    ++unitsChecked;
    Span &span = spans[unit];
    for (std::size_t i = span.begin; i < span.end; ++i)
        dropReader(readLines[i], unit);
    liveLines -= span.end - span.begin;
    if (readLines.size() > 2 * liveLines + 4096) {
        span = {};
        compactReadLines();
    }

    const std::size_t begin = readLines.size();
    auto read = [this, begin, &image](Addr addr) {
        const Addr line = lineAlign(addr);
        if (readLines.size() == begin || readLines.back() != line)
            readLines.push_back(line);
        return image.readPersisted(addr);
    };
    verdicts[unit] = workload.checkUnit(unit, read);
    span = {begin, readLines.size()};
    liveLines += span.end - span.begin;
    for (std::size_t i = span.begin; i < span.end; ++i)
        addReader(readLines[i], unit);
    if (verdicts[unit].empty())
        failing.erase(unit);
    else
        failing.insert(unit);
}

void
IncrementalInvariants::compactReadLines()
{
    std::vector<Addr> live;
    live.reserve(liveLines);
    for (Span &span : spans) {
        const std::size_t begin = live.size();
        live.insert(live.end(),
                    readLines.begin() +
                        static_cast<std::ptrdiff_t>(span.begin),
                    readLines.begin() +
                        static_cast<std::ptrdiff_t>(span.end));
        span = {begin, live.size()};
    }
    readLines = std::move(live);
}

void
IncrementalInvariants::addReader(Addr line, std::uint32_t unit)
{
    auto [page, fresh] = readers.try_emplace(WordStore::pageBase(line));
    if (fresh)
        page->second.fill(noUnit);
    std::uint32_t &reader = page->second[lineIndex(line)];
    if (reader == noUnit) {
        reader = unit;
    } else if (reader == manyUnits) {
        std::vector<std::uint32_t> &units = sharedReaders[line];
        if (std::find(units.begin(), units.end(), unit) == units.end())
            units.push_back(unit);
    } else if (reader != unit) {
        sharedReaders[line] = {reader, unit};
        reader = manyUnits;
    }
}

void
IncrementalInvariants::dropReader(Addr line, std::uint32_t unit)
{
    auto page = readers.find(WordStore::pageBase(line));
    if (page == readers.end())
        return;
    std::uint32_t &reader = page->second[lineIndex(line)];
    if (reader == unit) {
        reader = noUnit;
    } else if (reader == manyUnits) {
        auto shared = sharedReaders.find(line);
        std::vector<std::uint32_t> &units = shared->second;
        units.erase(std::remove(units.begin(), units.end(), unit),
                    units.end());
        if (units.size() == 1) {
            reader = units.front();
            sharedReaders.erase(shared);
        }
    }
}

} // namespace strand
