/**
 * @file
 * Figure 9 — sensitivity to the strand buffer unit configuration,
 * denoted (number of strand buffers, entries per buffer), under the
 * SFR implementation. The paper's finding: fewer than four entries
 * per buffer wastes strand concurrency; (4,4) captures nearly all of
 * it and (8,8) adds nothing, which is why StrandWeaver ships 4x4.
 *
 * Each (workload, geometry) pair is one StrandWeaver sweep cell with
 * a per-cell EngineConfig override, normalized to the workload's
 * Intel cell; JSON lands in bench/out/fig9_sensitivity.json.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace strand;

int
main(int argc, char **argv)
{
    int rc = 0;
    if (bench::handleArgs(argc, argv, "Figure 9 strand-buffer-unit sensitivity sweep", &rc))
        return rc;
    unsigned threads = benchThreads();
    unsigned ops = benchOpsPerThread(60);
    auto recorded = bench::recordAll(threads, ops);

    struct Config
    {
        unsigned buffers;
        unsigned entries;
    };
    constexpr Config configs[] = {{1, 2}, {2, 2}, {2, 4},
                                  {4, 4}, {8, 8}};

    SweepSpec spec;
    spec.name = "fig9_sensitivity";
    for (const auto &workload : recorded) {
        std::string intel = spec.addTiming(workload,
                                           HwDesign::IntelX86,
                                           PersistencyModel::Sfr)
                                .key();
        for (const Config &config : configs) {
            SweepCell &cell = spec.addTiming(
                workload, HwDesign::StrandWeaver,
                PersistencyModel::Sfr, intel);
            cell.config.engine.strandBuffers = config.buffers;
            cell.config.engine.entriesPerBuffer = config.entries;
            cell.variant =
                sformat("({},{})", config.buffers, config.entries);
        }
    }
    SweepResult result = runSweep(spec);

    std::printf("Figure 9: StrandWeaver speedup over Intel x86 vs "
                "(buffers, entries/buffer), SFR model\n");
    std::printf("threads=%u ops/thread=%u\n", threads, ops);

    PivotOptions table;
    // Baseline cells carry no variant; only the geometry cells show.
    table.include = [](const CellResult &cell) {
        return !cell.variant.empty();
    };
    table.column = [](const CellResult &cell) { return cell.variant; };
    table.value = [](const CellResult &cell) { return cell.speedup; };
    printPivot(result, table);

    std::printf("\nPaper: (2,4) already reaches 1.36x; (4,4) adds "
                "~7.7%%; (8,8) adds nothing beyond (4,4).\n");
    return bench::finish(result);
}
