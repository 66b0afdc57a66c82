/**
 * @file
 * SimSnapshot container semantics and Snapshotable diagnostics.
 *
 * The container must fail loudly on every misuse (duplicate keys,
 * missing keys, type confusion), report its contents for the fork-site
 * log lines (keys), and the Snapshotable default
 * implementations must name the offending component — a half-captured
 * machine is worse than no capture at all.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/snapshot.hh"

namespace strand
{
namespace
{

TEST(SimSnapshot, PutGetRoundTripsByExactType)
{
    SimSnapshot snap;
    snap.put("system.a", std::uint64_t{42});
    snap.put("system.b", std::vector<int>{1, 2, 3});
    EXPECT_EQ(snap.get<std::uint64_t>("system.a"), 42u);
    EXPECT_EQ(snap.get<std::vector<int>>("system.b"),
              (std::vector<int>{1, 2, 3}));
}

TEST(SimSnapshot, DuplicateKeyPanics)
{
    SimSnapshot snap;
    snap.put("system.x", 1);
    EXPECT_THROW(snap.put("system.x", 2), std::logic_error);
}

TEST(SimSnapshot, MissingKeyPanics)
{
    SimSnapshot snap;
    EXPECT_THROW(snap.get<int>("system.absent"), std::logic_error);
}

TEST(SimSnapshot, WrongTypePanics)
{
    SimSnapshot snap;
    snap.put("system.x", 1);
    EXPECT_THROW(snap.get<double>("system.x"), std::logic_error);
}

TEST(SimSnapshot, KeysAreSortedAndComplete)
{
    SimSnapshot snap;
    snap.put("system.cpu1", 1);
    snap.put("system.cpu0", 0);
    snap.put("system.caches", 2);
    EXPECT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.keys(),
              (std::vector<std::string>{"system.caches",
                                        "system.cpu0",
                                        "system.cpu1"}));
    EXPECT_TRUE(snap.has("system.cpu0"));
    EXPECT_FALSE(snap.has("system.cpu7"));
}

TEST(Snapshotable, DefaultPanicsNameTheComponent)
{
    struct Unaudited final : Snapshotable
    {
        std::string snapshotName() const override
        {
            return "system.cpu3.widget";
        }
    };
    Unaudited obj;
    SimSnapshot snap;
    // The default save/restore must refuse AND say who refused.
    try {
        obj.saveState(snap);
        FAIL() << "saveState default must panic";
    } catch (const std::logic_error &err) {
        EXPECT_NE(std::string(err.what()).find("system.cpu3.widget"),
                  std::string::npos)
            << err.what();
    }
    try {
        obj.restoreState(snap);
        FAIL() << "restoreState default must panic";
    } catch (const std::logic_error &err) {
        EXPECT_NE(std::string(err.what()).find("system.cpu3.widget"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace strand
