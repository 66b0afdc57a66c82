/**
 * @file
 * Statistics package.
 *
 * Components declare named statistics inside a StatGroup. Supported
 * kinds: Scalar (a counter or accumulator), Vector (a fixed array of
 * scalars with per-bucket names), and Histogram (sample
 * distribution with min/max/mean). Groups nest, and a whole tree can
 * be dumped in a stable text format or visited programmatically.
 */

#ifndef SIM_STATS_HH
#define SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace strand::stats
{

class StatGroup;

/** Base class for a single named statistic. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &description() const { return statDesc; }

    /** Print one or more lines of "<full-name> <value> # <desc>". */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const = 0;

    /** Reset the statistic to its initial state. */
    virtual void reset() = 0;

    /** Capture the raw values as doubles (snapshot support). */
    virtual std::vector<double> snapshotValues() const = 0;

    /** Restore a capture taken by snapshotValues() on this stat. */
    virtual void restoreValues(const std::vector<double> &vals) = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** A single additive counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &
    operator+=(double delta)
    {
        total += delta;
        return *this;
    }

    Scalar &
    operator++()
    {
        total += 1.0;
        return *this;
    }

    void set(double v) { total = v; }
    double value() const { return total; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { total = 0.0; }

    std::vector<double>
    snapshotValues() const override
    {
        return {total};
    }

    void
    restoreValues(const std::vector<double> &vals) override
    {
        panicIf(vals.size() != 1, "scalar stat {} restore size mismatch",
                name());
        total = vals[0];
    }

  private:
    double total = 0.0;
};

/** A fixed-size array of counters with optional per-bucket names. */
class Vector : public StatBase
{
  public:
    Vector(StatGroup *parent, std::string name, std::string desc,
           std::size_t size);

    /** Name an individual bucket for printing. */
    void subname(std::size_t idx, std::string name);

    double &
    operator[](std::size_t idx)
    {
        panicIf(idx >= values.size(), "stat vector index {} out of range",
                idx);
        return values[idx];
    }

    double
    value(std::size_t idx) const
    {
        panicIf(idx >= values.size(), "stat vector index {} out of range",
                idx);
        return values[idx];
    }

    double sum() const;
    std::size_t size() const { return values.size(); }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

    std::vector<double> snapshotValues() const override { return values; }

    void
    restoreValues(const std::vector<double> &vals) override
    {
        panicIf(vals.size() != values.size(),
                "vector stat {} restore size mismatch", name());
        values = vals;
    }

  private:
    std::vector<double> values;
    std::vector<std::string> names;
};

/** A sampled distribution reporting count, mean, min, and max. */
class Histogram : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        ++count;
        total += v;
        if (v < minSeen)
            minSeen = v;
        if (v > maxSeen)
            maxSeen = v;
    }

    std::uint64_t samples() const { return count; }
    double mean() const { return count ? total / count : 0.0; }
    double min() const { return count ? minSeen : 0.0; }
    double max() const { return count ? maxSeen : 0.0; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

    /** Sample counts stay far below 2^53, so the double is exact. */
    std::vector<double>
    snapshotValues() const override
    {
        return {static_cast<double>(count), total, minSeen, maxSeen};
    }

    void
    restoreValues(const std::vector<double> &vals) override
    {
        panicIf(vals.size() != 4,
                "histogram stat {} restore size mismatch", name());
        count = static_cast<std::uint64_t>(vals[0]);
        total = vals[1];
        minSeen = vals[2];
        maxSeen = vals[3];
    }

  private:
    std::uint64_t count = 0;
    double total = 0.0;
    double minSeen = std::numeric_limits<double>::max();
    double maxSeen = std::numeric_limits<double>::lowest();
};

/**
 * A named collection of statistics. Groups form a tree; the full
 * name of a stat is the dot-joined path of its ancestors.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &groupName() const { return name; }

    /**
     * Full dotted path of this group ("system.cpu0.engine"). A group's
     * name and parent are fixed at construction, so the path is
     * computed once there.
     */
    const std::string &fullName() const { return path; }

    /** Dump this group and all children. */
    void printStats(std::ostream &os, const std::string &prefix = "") const;

    /** Reset all stats in this group and its children. */
    void resetStats();

    /** Visit every stat in the subtree with its full dotted name. */
    void visitStats(
        const std::function<void(const std::string &, const StatBase &)>
            &visitor,
        const std::string &prefix = "") const;

    /** Raw stat values keyed by full dotted stat name. */
    using StatValues = std::map<std::string, std::vector<double>>;

    /** Capture every stat value in the subtree (snapshot support). */
    StatValues snapshotStats() const;

    /**
     * Restore a capture taken by snapshotStats() on the same tree.
     * Panics when the tree's stats and the captured keys differ —
     * a capture from a different tree shape must fail loudly.
     */
    void restoreStats(const StatValues &values);

  private:
    friend class StatBase;

    void restoreStatsImpl(const StatValues &values,
                          const std::string &prefix,
                          std::size_t &restored);

    void addStat(StatBase *stat) { statList.push_back(stat); }
    void addChild(StatGroup *child) { childList.push_back(child); }
    void removeChild(StatGroup *child);

    std::string name;
    StatGroup *parent;
    std::string path;
    std::vector<StatBase *> statList;
    std::vector<StatGroup *> childList;
};

} // namespace strand::stats

#endif // SIM_STATS_HH
