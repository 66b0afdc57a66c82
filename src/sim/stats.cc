#include "sim/stats.hh"

#include <algorithm>
#include <numeric>

namespace strand::stats
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : statName(std::move(name)), statDesc(std::move(desc))
{
    panicIf(parent == nullptr, "stat '{}' created without a group",
            statName);
    parent->addStat(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << sformat("{}{} {:.6g} # {}\n", prefix, name(), total,
                      description());
}

Vector::Vector(StatGroup *parent, std::string name, std::string desc,
               std::size_t size)
    : StatBase(parent, std::move(name), std::move(desc)),
      values(size, 0.0), names(size)
{
}

void
Vector::subname(std::size_t idx, std::string name)
{
    panicIf(idx >= names.size(), "stat vector subname index out of range");
    names[idx] = std::move(name);
}

double
Vector::sum() const
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

void
Vector::print(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::string bucket =
            names[i].empty() ? std::to_string(i) : names[i];
        os << sformat("{}{}::{} {:.6g} # {}\n", prefix, name(),
                          bucket, values[i], description());
    }
    os << sformat("{}{}::total {:.6g} # {}\n", prefix, name(), sum(),
                      description());
}

void
Vector::reset()
{
    std::fill(values.begin(), values.end(), 0.0);
}

void
Histogram::print(std::ostream &os, const std::string &prefix) const
{
    os << sformat(
        "{}{}::samples {} # {}\n{}{}::mean {:.6g} # {}\n"
        "{}{}::min {:.6g} # {}\n{}{}::max {:.6g} # {}\n",
        prefix, name(), count, description(), prefix, name(), mean(),
        description(), prefix, name(), min(), description(), prefix,
        name(), max(), description());
}

void
Histogram::reset()
{
    count = 0;
    total = 0.0;
    minSeen = std::numeric_limits<double>::max();
    maxSeen = std::numeric_limits<double>::lowest();
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name(std::move(name)), parent(parent),
      path(parent ? parent->fullName() + "." + this->name : this->name)
{
    if (parent)
        parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent)
        parent->removeChild(this);
}

void
StatGroup::removeChild(StatGroup *child)
{
    auto it = std::find(childList.begin(), childList.end(), child);
    if (it != childList.end())
        childList.erase(it);
}

void
StatGroup::printStats(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? name + "." : prefix + name + ".";
    for (const StatBase *stat : statList)
        stat->print(os, full);
    for (const StatGroup *child : childList)
        child->printStats(os, full);
}

void
StatGroup::resetStats()
{
    for (StatBase *stat : statList)
        stat->reset();
    for (StatGroup *child : childList)
        child->resetStats();
}

void
StatGroup::visitStats(
    const std::function<void(const std::string &, const StatBase &)>
        &visitor,
    const std::string &prefix) const
{
    std::string full = prefix.empty() ? name + "." : prefix + name + ".";
    for (const StatBase *stat : statList)
        visitor(full + stat->name(), *stat);
    for (const StatGroup *child : childList)
        child->visitStats(visitor, full);
}

StatGroup::StatValues
StatGroup::snapshotStats() const
{
    StatValues values;
    visitStats([&values](const std::string &full, const StatBase &stat) {
        bool inserted =
            values.emplace(full, stat.snapshotValues()).second;
        panicIf(!inserted, "stat capture: duplicate full name {}", full);
    });
    return values;
}

void
StatGroup::restoreStats(const StatValues &values)
{
    std::size_t restored = 0;
    restoreStatsImpl(values, "", restored);
    panicIf(restored != values.size(),
            "stat restore into {}: {} captured stats have no "
            "matching stat in the tree",
            name, values.size() - restored);
}

void
StatGroup::restoreStatsImpl(const StatValues &values,
                            const std::string &prefix,
                            std::size_t &restored)
{
    std::string full = prefix.empty() ? name + "." : prefix + name + ".";
    for (StatBase *stat : statList) {
        auto it = values.find(full + stat->name());
        panicIf(it == values.end(),
                "stat restore: no captured value for {}",
                full + stat->name());
        stat->restoreValues(it->second);
        ++restored;
    }
    for (StatGroup *child : childList)
        child->restoreStatsImpl(values, full, restored);
}

} // namespace strand::stats
