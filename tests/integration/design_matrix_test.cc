/**
 * @file
 * Full-matrix smoke and invariant tests: every Table II workload on
 * every hardware design (SFR model). Checks that hold universally:
 *
 *  - the run completes and the persisted data structure satisfies
 *    its structural invariants,
 *  - every persistent word the workload wrote functionally is
 *    durable with its final value,
 *  - the CLWB count is identical across designs (the same region
 *    trace lowers to the same flush set; only ordering primitives
 *    differ),
 *  - the Intel baseline is never faster than StrandWeaver, and the
 *    NON-ATOMIC bound is never slower (sanity of the evaluation's
 *    directionality at test sizes).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/strandweaver.hh"

namespace strand
{
namespace
{

using Cell = std::tuple<WorkloadKind, HwDesign>;

class DesignMatrix : public ::testing::TestWithParam<Cell>
{
  protected:
    static RecordedWorkload &
    recorded(WorkloadKind kind)
    {
        static std::map<WorkloadKind, RecordedWorkload> cache;
        auto it = cache.find(kind);
        if (it == cache.end()) {
            WorkloadParams params;
            params.numThreads = 3;
            params.opsPerThread = 12;
            params.seed = 17;
            it = cache.emplace(kind, recordWorkload(kind, params))
                     .first;
        }
        return it->second;
    }
};

TEST_P(DesignMatrix, RunsCleanAndPersistsEverything)
{
    auto [kind, design] = GetParam();
    RecordedWorkload &workload = recorded(kind);

    // runExperiment validates invariants itself (panics otherwise).
    RunMetrics metrics =
        runExperiment(workload, design, PersistencyModel::Sfr);
    EXPECT_GT(metrics.runTicks, 0u);
    EXPECT_GT(metrics.clwbs, 0.0);

    // CLWB counts match the Intel baseline exactly: same trace, same
    // flush set, different ordering primitives only.
    RunMetrics intel = runExperiment(workload, HwDesign::IntelX86,
                                     PersistencyModel::Sfr);
    EXPECT_EQ(metrics.lowering.clwbs, intel.lowering.clwbs);
}

std::string
cellName(const Cell &cell)
{
    std::string name = workloadName(std::get<0>(cell));
    name += "_";
    name += hwDesignName(std::get<1>(cell));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, DesignMatrix,
    ::testing::Combine(::testing::ValuesIn(allWorkloads),
                       ::testing::ValuesIn(allDesigns)),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return cellName(info.param);
    });

/**
 * Intel is never faster than StrandWeaver, and NON-ATOMIC is never
 * slower. One comparison per workload is enough, so this test is not
 * a TEST_P (which would run it on every design); it is registered
 * once per workload under the name the StrandWeaver cell of the
 * matrix gives it.
 */
class DirectionalSanity : public DesignMatrix
{
  public:
    explicit DirectionalSanity(WorkloadKind kind) : kind(kind) {}

    void
    TestBody() override
    {
        RecordedWorkload &workload = recorded(kind);
        RunMetrics intel = runExperiment(workload, HwDesign::IntelX86,
                                         PersistencyModel::Sfr);
        RunMetrics sw = runExperiment(workload, HwDesign::StrandWeaver,
                                      PersistencyModel::Sfr);
        RunMetrics na = runExperiment(workload, HwDesign::NonAtomic,
                                      PersistencyModel::Sfr);
        // Allow 5% noise at these tiny sizes.
        EXPECT_LE(sw.runTicks, intel.runTicks * 21 / 20)
            << workloadName(kind);
        EXPECT_LE(na.runTicks, sw.runTicks * 21 / 20)
            << workloadName(kind);
    }

  private:
    WorkloadKind kind;
};

[[maybe_unused]] const bool directionalSanityRegistered = [] {
    for (WorkloadKind kind : allWorkloads) {
        const Cell cell{kind, HwDesign::StrandWeaver};
        ::testing::RegisterTest(
            "AllCells/DesignMatrix",
            ("DirectionalSanity/" + cellName(cell)).c_str(), nullptr,
            ::testing::PrintToString(cell).c_str(), __FILE__, __LINE__,
            [kind]() -> DesignMatrix * {
                return new DirectionalSanity(kind);
            });
    }
    return true;
}();

} // namespace
} // namespace strand
