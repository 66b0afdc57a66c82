/**
 * Sweep orchestration tests: spec-order determinism across worker
 * counts, baseline-speedup wiring, the schema-1 JSON golden, and the
 * failure-isolation contract (a panicking cell reports its label
 * without wedging the pool).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/result_sink.hh"
#include "core/sweep.hh"

namespace strand
{
namespace
{

std::shared_ptr<const RecordedWorkload>
smallWorkload(WorkloadKind kind = WorkloadKind::Queue)
{
    WorkloadParams params;
    params.numThreads = 1;
    params.opsPerThread = 10;
    return recordShared(kind, params);
}

/** A 4-cell design column under TXN with an Intel baseline. */
SweepSpec
smallSpec(const std::shared_ptr<const RecordedWorkload> &recorded)
{
    SweepSpec spec;
    spec.name = "sweep_test";
    SweepCell &intel = spec.addTiming(recorded, HwDesign::IntelX86,
                                      PersistencyModel::Txn);
    // Copy the key: later add*() calls may reallocate spec.cells.
    const std::string base = intel.key();
    intel.baseline = base;
    for (HwDesign design :
         {HwDesign::Hops, HwDesign::StrandWeaver,
          HwDesign::NonAtomic}) {
        spec.addTiming(recorded, design, PersistencyModel::Txn, base);
    }
    return spec;
}

TEST(Sweep, SerialAndParallelRunsAreByteIdentical)
{
    // The acceptance bar of the whole layer: the JSON document (and
    // everything else derived from the result) must not depend on
    // the worker count.
    auto recorded = smallWorkload();
    SweepSpec spec = smallSpec(recorded);

    spec.jobs = 1;
    SweepResult serial = runSweep(spec);
    ASSERT_TRUE(serial.allOk()) << serial.failedKeys().front();
    EXPECT_EQ(serial.jobs, 1u);

    spec.jobs = 4;
    SweepResult parallel = runSweep(spec);
    ASSERT_TRUE(parallel.allOk());
    EXPECT_EQ(parallel.jobs, 4u);

    // The deterministic document (everything but the measured host
    // wall-clock) must not depend on the worker count...
    EXPECT_EQ(sweepJson(serial, /*includeHost=*/false),
              sweepJson(parallel, /*includeHost=*/false));
    // ...and neither must the simulation-side host counters.
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].host.events,
                  parallel.cells[i].host.events);
        EXPECT_EQ(serial.cells[i].host.simOps,
                  parallel.cells[i].host.simOps);
        EXPECT_GT(serial.cells[i].host.wallMs, 0.0);
    }
}

TEST(Sweep, ElapsedTimeSpansEveryCell)
{
    // host.elapsed_ms is the sweep's end-to-end wall time: serial
    // cells run one after another inside it, and parallel cells all
    // start and end inside it.
    auto recorded = smallWorkload();
    SweepSpec spec = smallSpec(recorded);
    for (unsigned jobs : {1u, 4u}) {
        spec.jobs = jobs;
        SweepResult result = runSweep(spec);
        double summed = 0;
        double longest = 0;
        for (const CellResult &cell : result.cells) {
            summed += cell.host.wallMs;
            longest = std::max(longest, cell.host.wallMs);
        }
        EXPECT_GE(result.elapsedMs, jobs == 1 ? summed : longest)
            << "jobs=" << jobs;
        EXPECT_NE(sweepJson(result).find("\"elapsed_ms\": "),
                  std::string::npos);
    }
}

TEST(Sweep, JobsClampToCellCount)
{
    auto recorded = smallWorkload();
    SweepSpec spec;
    spec.name = "clamp";
    spec.addTiming(recorded, HwDesign::IntelX86,
                   PersistencyModel::Txn);
    spec.jobs = 16;
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.jobs, 1u);
}

TEST(Sweep, BaselineSpeedupsResolveAfterThePool)
{
    auto recorded = smallWorkload();
    SweepSpec spec = smallSpec(recorded);
    spec.jobs = 2;
    SweepResult result = runSweep(spec);
    ASSERT_TRUE(result.allOk());

    // The baseline cell names itself: exactly 1.0 by construction.
    const CellResult *intel = result.find("queue/intel-x86/txn");
    ASSERT_NE(intel, nullptr);
    EXPECT_DOUBLE_EQ(intel->speedup, 1.0);

    // Other cells normalize to the baseline's runTicks.
    const CellResult *sw = result.find("queue/strandweaver/txn");
    ASSERT_NE(sw, nullptr);
    ASSERT_GT(sw->metrics.runTicks, 0u);
    EXPECT_DOUBLE_EQ(
        sw->speedup,
        static_cast<double>(intel->metrics.runTicks) /
            static_cast<double>(sw->metrics.runTicks));
}

TEST(Sweep, CrashCellsRunThroughTheSamePool)
{
    auto recorded = smallWorkload();
    SweepSpec spec;
    spec.name = "crash";
    spec.addCrash(recorded, HwDesign::StrandWeaver,
                  PersistencyModel::Txn, 6);
    SweepCell &torn = spec.addCrash(recorded, HwDesign::StrandWeaver,
                                    PersistencyModel::Txn, 6);
    torn.variant = "torn";
    torn.tornWords = 1;
    spec.jobs = 2;
    SweepResult result = runSweep(spec);
    ASSERT_TRUE(result.allOk()) << result.failedKeys().front();
    for (const CellResult &cell : result.cells) {
        EXPECT_EQ(cell.kind, CellKind::Crash);
        EXPECT_GT(cell.crash.pointsTested, 0u);
        EXPECT_TRUE(cell.crash.allPassed());
    }
    EXPECT_EQ(result.cells.at(1).tornWords, 1u);
}

TEST(Sweep, PanickingCellReportsItsLabelWithoutWedgingThePool)
{
    auto recorded = smallWorkload();
    SweepSpec spec;
    spec.name = "panic";
    spec.addTiming(recorded, HwDesign::IntelX86,
                   PersistencyModel::Txn);
    // A cell without a recorded workload panics inside the worker.
    SweepCell ghost;
    ghost.workloadLabel = "ghost";
    spec.add(std::move(ghost));
    spec.addTiming(recorded, HwDesign::StrandWeaver,
                   PersistencyModel::Txn);
    // And a cell whose baseline is the panicking cell fails too,
    // with a distinct error.
    spec.addTiming(recorded, HwDesign::Hops, PersistencyModel::Txn,
                   "ghost/strandweaver/sfr");
    spec.jobs = 2;

    SweepResult result = runSweep(spec);
    EXPECT_FALSE(result.allOk());

    const CellResult &bad = result.cells.at(1);
    EXPECT_FALSE(bad.ok);
    // The panic message carries the cell's coordinates.
    EXPECT_NE(bad.error.find(bad.key), std::string::npos)
        << bad.error;

    // Healthy cells still completed.
    EXPECT_TRUE(result.cells.at(0).ok);
    EXPECT_TRUE(result.cells.at(2).ok);

    const CellResult &dependent = result.cells.at(3);
    EXPECT_FALSE(dependent.ok);
    EXPECT_NE(dependent.error.find("failed"), std::string::npos)
        << dependent.error;

    EXPECT_EQ(result.failedKeys(),
              (std::vector<std::string>{bad.key, dependent.key}));
}

TEST(Sweep, MissingBaselineMarksTheCellFailed)
{
    auto recorded = smallWorkload();
    SweepSpec spec;
    spec.name = "missing";
    spec.addTiming(recorded, HwDesign::StrandWeaver,
                   PersistencyModel::Txn, "no/such/cell");
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.cells.front().ok);
    EXPECT_NE(result.cells.front().error.find("not found"),
              std::string::npos);
}

TEST(ResultSink, SchemaThreeGolden)
{
    // Hand-built result, exact bytes: any change to the document
    // layout or the number rendering must be deliberate (bump the
    // schema field when it is).
    SweepResult result;
    result.name = "golden";
    result.jobs = 8; // not part of the document

    CellResult timing;
    timing.kind = CellKind::Timing;
    timing.workload = "queue";
    timing.design = HwDesign::IntelX86;
    timing.model = PersistencyModel::Txn;
    timing.logStyle = LogStyle::Undo;
    timing.key = "queue/intel-x86/txn";
    timing.baseline = "queue/intel-x86/txn";
    timing.ok = true;
    timing.speedup = 1.0;
    timing.metrics.runTicks = 1234;
    timing.metrics.totalCycles = 5000;
    timing.metrics.clwbs = 42;
    timing.metrics.persistStalls = 7;
    timing.metrics.allStalls = 9;
    timing.metrics.snoopStalls = 0;
    timing.metrics.ckc = 8.5;
    timing.metrics.lowering.clwbs = 42;
    timing.metrics.lowering.stores = 100;
    timing.metrics.lowering.loads = 50;
    timing.metrics.lowering.barriers = 12;
    timing.metrics.lowering.drains = 3;
    timing.metrics.lowering.logEntries = 40;
    timing.metrics.lowering.commits = 10;
    timing.host.wallMs = 250;
    timing.host.events = 100000;
    timing.host.simOps = 5000;
    result.cells.push_back(timing);

    CellResult crash;
    crash.kind = CellKind::Crash;
    crash.workload = "hashmap";
    crash.design = HwDesign::NonAtomic;
    crash.model = PersistencyModel::Sfr;
    crash.key = "hashmap/non-atomic/sfr";
    crash.ok = true;
    crash.tornWords = 1;
    crash.crash.pointsTested = 5;
    crash.crash.pointsPassed = 4;
    crash.crash.pointsRequested = 6;
    crash.crash.pointsInjected = 5;
    crash.crash.totalRolledBack = 2;
    crash.crash.totalReplayed = 0;
    crash.crash.totalTornSkipped = 3;
    crash.crash.totalCorruptQuarantined = 1;
    crash.crash.totalPoisonedQuarantined = 0;
    crash.crash.totalQuarantinedAddrs = 0;
    crash.crash.verdictFull = 4;
    crash.crash.verdictDegraded = 1;
    crash.crash.verdictFailed = 0;
    crash.media.bitFlips = 1;
    crash.media.dropAdmissions = 2;
    crash.media.seed = 7;
    CrashPointResult failure;
    failure.when = 77;
    failure.violation = "lost \"x\"";
    crash.crash.failures.push_back(failure);
    crash.host.wallMs = 750;
    crash.host.events = 400000;
    crash.host.simOps = 20000;
    result.cells.push_back(crash);
    result.elapsedMs = 600;

    const std::string expected = R"({
  "bench": "golden",
  "schema": 3,
  "cells": [
    {
      "kind": "timing",
      "workload": "queue",
      "design": "intel-x86",
      "model": "txn",
      "log_style": "undo",
      "variant": "",
      "baseline": "queue/intel-x86/txn",
      "ok": true,
      "error": "",
      "speedup": 1,
      "metrics": {
        "run_ticks": 1234,
        "total_cycles": 5000,
        "clwbs": 42,
        "persist_stalls": 7,
        "all_stalls": 9,
        "snoop_stalls": 0,
        "ckc": 8.5,
        "lowering": {
          "clwbs": 42,
          "stores": 100,
          "loads": 50,
          "barriers": 12,
          "drains": 3,
          "log_entries": 40,
          "commits": 10
        }
      }
    },
    {
      "kind": "crash",
      "workload": "hashmap",
      "design": "non-atomic",
      "model": "sfr",
      "log_style": "undo",
      "variant": "",
      "baseline": "",
      "ok": true,
      "error": "",
      "crash": {
        "torn_words": 1,
        "points_tested": 5,
        "points_passed": 4,
        "points_requested": 6,
        "points_injected": 5,
        "rolled_back": 2,
        "replayed": 0,
        "torn_entries_skipped": 3,
        "corrupt_quarantined": 1,
        "poisoned_quarantined": 0,
        "quarantined_addrs": 0,
        "verdicts": {
          "full": 4,
          "degraded": 1,
          "failed": 0
        },
        "media": {
          "poison_lines": 0,
          "bit_flips": 1,
          "drop_admissions": 2,
          "seed": 7
        },
        "failures": [
          {
            "tick": 77,
            "violation": "lost \"x\""
          }
        ]
      }
    }
  ],
  "host": {
    "wall_ms": 1000,
    "elapsed_ms": 600,
    "events": 500000,
    "sim_ops": 25000,
    "events_per_sec": 500000,
    "sim_ops_per_sec": 25000,
    "cells": [
      {
        "key": "queue/intel-x86/txn",
        "wall_ms": 250,
        "events": 100000,
        "sim_ops": 5000
      },
      {
        "key": "hashmap/non-atomic/sfr",
        "wall_ms": 750,
        "events": 400000,
        "sim_ops": 20000
      }
    ]
  }
}
)";
    EXPECT_EQ(sweepJson(result), expected);

    // Schema-1 compatibility: the deterministic rendering drops the
    // host block but keeps the cells bytes unchanged.
    std::string bare = sweepJson(result, /*includeHost=*/false);
    EXPECT_EQ(bare.find("\"host\""), std::string::npos);
    EXPECT_NE(expected.find(bare.substr(
                  bare.find("\"cells\""),
                  bare.rfind(']') - bare.find("\"cells\"") + 1)),
              std::string::npos);
}

TEST(ResultSink, EmptySweepStillRendersADocument)
{
    SweepResult result;
    result.name = "empty";
    EXPECT_EQ(sweepJson(result),
              "{\n  \"bench\": \"empty\",\n  \"schema\": 3,\n"
              "  \"cells\": [],\n"
              "  \"host\": {\n"
              "    \"wall_ms\": 0,\n"
              "    \"elapsed_ms\": 0,\n"
              "    \"events\": 0,\n"
              "    \"sim_ops\": 0,\n"
              "    \"events_per_sec\": 0,\n"
              "    \"sim_ops_per_sec\": 0,\n"
              "    \"cells\": []\n"
              "  }\n}\n");
}

} // namespace
} // namespace strand
