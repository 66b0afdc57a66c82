/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace strand::stats
{
namespace
{

TEST(Stats, ScalarAccumulates)
{
    StatGroup group("g");
    Scalar s(&group, "counter", "a counter");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, VectorBucketsAndSum)
{
    StatGroup group("g");
    Vector v(&group, "vec", "a vector", 3);
    v[0] = 1.0;
    v[1] += 2.0;
    v[2] = 4.0;
    EXPECT_DOUBLE_EQ(v.sum(), 7.0);
    EXPECT_DOUBLE_EQ(v.value(1), 2.0);
    EXPECT_THROW(v[3], std::logic_error);
}

TEST(Stats, HistogramMoments)
{
    StatGroup group("g");
    Histogram h(&group, "h", "a histogram");
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.sample(10.0);
    h.sample(20.0);
    h.sample(0.0);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 20.0);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, PrintUsesDottedNames)
{
    StatGroup root("system");
    StatGroup child("cpu0", &root);
    Scalar s(&child, "cycles", "cycle count");
    s += 42;

    std::ostringstream os;
    root.printStats(os);
    std::string text = os.str();
    EXPECT_NE(text.find("system.cpu0.cycles 42"), std::string::npos);
    EXPECT_NE(text.find("# cycle count"), std::string::npos);
}

TEST(Stats, VectorPrintIncludesSubnamesAndTotal)
{
    StatGroup root("sys");
    Vector v(&root, "stalls", "stall cycles by cause", 2);
    v.subname(0, "sqFull");
    v.subname(1, "robFull");
    v[0] = 5;
    v[1] = 7;

    std::ostringstream os;
    root.printStats(os);
    std::string text = os.str();
    EXPECT_NE(text.find("sys.stalls::sqFull 5"), std::string::npos);
    EXPECT_NE(text.find("sys.stalls::robFull 7"), std::string::npos);
    EXPECT_NE(text.find("sys.stalls::total 12"), std::string::npos);
}

TEST(Stats, ResetRecurses)
{
    StatGroup root("sys");
    StatGroup child("cpu", &root);
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetStats();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, VisitSeesEveryStatWithFullName)
{
    StatGroup root("sys");
    StatGroup child("cpu", &root);
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;

    std::vector<std::string> names;
    root.visitStats([&](const std::string &name, const StatBase &) {
        names.push_back(name);
    });
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "sys.a");
    EXPECT_EQ(names[1], "sys.cpu.b");
}

TEST(Stats, ChildDestructionUnlinksFromParent)
{
    StatGroup root("sys");
    {
        StatGroup child("tmp", &root);
        Scalar s(&child, "x", "");
        s += 1;
    }
    std::ostringstream os;
    root.printStats(os);
    EXPECT_EQ(os.str().find("tmp"), std::string::npos);
}

TEST(Stats, FullNameIsTheDottedAncestorPath)
{
    // fullName() is stored at construction; it must be the dotted
    // path of the group's ancestors at every level, and snapshot
    // diagnostics must use the same string.
    EventQueue eq;
    SimObject system("system", eq);
    StatGroup cpu("cpu0", &system);
    SimObject engine("engine", eq, &cpu);
    Scalar leaf(&engine, "clwbs", "");

    EXPECT_EQ(system.fullName(), "system");
    EXPECT_EQ(cpu.fullName(), "system.cpu0");
    EXPECT_EQ(engine.fullName(), "system.cpu0.engine");
    EXPECT_EQ(system.snapshotName(), "system");
    EXPECT_EQ(engine.snapshotName(), "system.cpu0.engine");

    std::vector<std::string> names;
    system.visitStats([&](const std::string &name, const StatBase &) {
        names.push_back(name);
    });
    EXPECT_EQ(names, std::vector<std::string>{engine.fullName() +
                                              ".clwbs"});
}

} // namespace
} // namespace strand::stats
