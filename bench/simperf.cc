/**
 * @file
 * Simulator-throughput microbench: how fast the *host* executes the
 * simulation, independent of what the simulation computes. Fixed-seed
 * sections cover the kernel hot paths this repo leans on:
 *
 *   event_churn     64 self-rescheduling one-shot chains plus a
 *                   cancel-heavy wake pattern — the shape of
 *                   Core::tick interleaved with wake() churn.
 *   recurring_churn the same chains on the EventQueue::Recurring
 *                   fast path (one pooled record re-armed in place).
 *   image_clone     MemoryImage::clonePersisted / clonePersistedTorn,
 *                   the crash- and fuzz-harness inner loop.
 *   fork_setup      the forked crash harness's per-campaign setup: one
 *                   image copy plus the full newest-first
 *                   undoAdmission rewind walk. Like image_clone it is
 *                   page-copy/page-write bound, so the CI guard
 *                   compares the two sections' RATIO against the
 *                   baseline ratio (host speed cancels out).
 *   fig7_cell       one fig7-shaped timing cell end to end, the
 *                   integrated number the sweeps are made of.
 *   midrun_fork     full-machine mid-run snapshot forking: one warm
 *                   run captured at its 64th ADR admission, then
 *                   repeated System::restore() + tail re-execution.
 *                   Simulation-bound like fig7_cell, so the CI guard
 *                   compares the two sections' RATIO against the
 *                   recorded reference (host speed cancels out).
 *   port_roundtrip  the MemPort mailbox itself: chained send →
 *                   handleRequest → respond round trips against a
 *                   minimal responder. Each trip costs two scheduled
 *                   events and 2*portLegLatency simulated ticks; the
 *                   section reports trips and events per second.
 *
 * Everything is seeded and sized by constants, so the *work* is
 * identical run to run; only the wall-clock varies. Results land in
 * <SW_OUT_DIR>/BENCH_simperf.json for trajectory tooling; compare
 * against bench/baseline/simperf_seed.json (the pre-pooling kernel)
 * for speedups.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "mem/memory_image.hh"
#include "mem/port.hh"
#include "runtime/instrumentor.hh"
#include "sim/event_queue.hh"

using namespace strand;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One measured section, as printed and as written to JSON. */
struct Section
{
    std::string name;
    std::uint64_t units = 0; ///< events / clones / runs
    double wallMs = 0;
    double unitsPerSec = 0;
};

constexpr unsigned churnChains = 64;
constexpr std::uint64_t churnFires = 4'000'000;

/**
 * The one-shot churn pattern: every fire cancels the chain's pending
 * wake, schedules a fresh one, and reschedules itself — exercising
 * allocation, cancellation, and carcass compaction at once.
 */
Section
runEventChurn()
{
    EventQueue eq;
    std::uint64_t fires = 0;
    std::vector<EventQueue::Handle> wakes(churnChains);
    std::vector<std::function<void()>> tickFns(churnChains);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < churnChains; ++c) {
        tickFns[c] = [&eq, &fires, &wakes, &tickFns, c] {
            ++fires;
            eq.deschedule(wakes[c]);
            wakes[c] =
                eq.scheduleIn(700, [] {}, EventPriority::Default);
            if (fires < churnFires)
                eq.scheduleIn(500, tickFns[c],
                              EventPriority::CpuTick);
        };
        eq.schedule(c, tickFns[c], EventPriority::CpuTick);
    }
    eq.run();
    Section s{"event_churn", eq.serviced(), msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("event_churn:     events=%llu wall_ms=%.1f "
                "events_per_sec=%.3g (arena %zu records, "
                "%llu compactions)\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec, eq.arenaRecords(),
                static_cast<unsigned long long>(eq.compactions()));
    return s;
}

/** The same chains on the Recurring fast path: zero allocation and
 * zero cancellation in steady state. */
Section
runRecurringChurn()
{
    EventQueue eq;
    std::uint64_t fires = 0;
    std::vector<EventQueue::Recurring> ticks(churnChains);
    std::vector<EventQueue::Recurring> wakes(churnChains);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < churnChains; ++c) {
        wakes[c].init(eq, [] {}, EventPriority::Default);
        ticks[c].init(eq, [&eq, &fires, &ticks, &wakes, c] {
            ++fires;
            if (wakes[c].scheduled())
                wakes[c].deschedule();
            wakes[c].scheduleIn(700);
            if (fires < churnFires)
                ticks[c].reschedule(500);
        }, EventPriority::CpuTick);
        ticks[c].schedule(c);
    }
    eq.run();
    Section s{"recurring_churn", eq.serviced(), msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("recurring_churn: events=%llu wall_ms=%.1f "
                "events_per_sec=%.3g (arena %zu records)\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec, eq.arenaRecords());
    return s;
}

Section
runImageClone()
{
    MemoryImage img;
    constexpr unsigned lines = 1024;
    for (unsigned l = 0; l < lines; ++l) {
        Addr la = pmBase + static_cast<Addr>(l) * lineBytes;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            img.writeArch(la + w * wordBytes, l * 8 + w + 1);
        img.persistLine(img.snapshotLine(la));
    }
    constexpr unsigned iters = 2000;
    std::uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        MemoryImage a = img.clonePersisted();
        MemoryImage b = img.clonePersistedTorn(0x3);
        sink += a.persistedWords() + b.persistedWords();
    }
    Section s{"image_clone", 2 * iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("image_clone:     clones=%llu words=%zu wall_ms=%.1f "
                "clones_per_sec=%.3g (sink %llu)\n",
                static_cast<unsigned long long>(s.units),
                img.persistedWords(), s.wallMs, s.unitsPerSec,
                static_cast<unsigned long long>(sink));
    return s;
}

Section
runForkSetup()
{
    // A run-shaped admission history: every line admitted twice, so
    // each rewind step has a pre-image to restore (the expensive
    // branch of undoAdmission).
    MemoryImage img;
    constexpr unsigned lines = 1024;
    std::vector<MemoryImage::AdmissionUndo> undos;
    undos.reserve(2 * lines);
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned l = 0; l < lines; ++l) {
            Addr la = pmBase + static_cast<Addr>(l) * lineBytes;
            for (unsigned w = 0; w < wordsPerLine; ++w)
                img.writeArch(la + w * wordBytes,
                              pass * 100'000 + l * 8 + w + 1);
            img.persistLine(img.snapshotLine(la));
            undos.push_back(img.lastAdmissionUndo());
        }
    }
    constexpr unsigned iters = 400;
    std::uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        MemoryImage machine = img;
        for (auto it = undos.rbegin(); it != undos.rend(); ++it)
            machine.undoAdmission(*it);
        sink += machine.persistedWords();
    }
    Section s{"fork_setup", iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("fork_setup:      forks=%llu rewinds=%zu wall_ms=%.1f "
                "forks_per_sec=%.3g (sink %llu)\n",
                static_cast<unsigned long long>(s.units),
                iters * undos.size(), s.wallMs, s.unitsPerSec,
                static_cast<unsigned long long>(sink));
    return s;
}

Section
runFig7Cell()
{
    WorkloadParams params;
    params.numThreads = 4;
    params.opsPerThread = 80;
    params.seed = 1;
    RecordedWorkload rec = recordWorkload(WorkloadKind::Queue, params);
    constexpr unsigned runs = 3;
    auto t0 = std::chrono::steady_clock::now();
    RunMetrics m;
    for (unsigned i = 0; i < runs; ++i)
        m = runExperiment(rec, HwDesign::StrandWeaver,
                          PersistencyModel::Sfr);
    Section s{"fig7_cell", runs, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("fig7_cell:       runs=%u run_ticks=%llu wall_ms=%.1f "
                "host_events=%llu events_per_sec=%.3g\n",
                runs, static_cast<unsigned long long>(m.runTicks),
                s.wallMs,
                static_cast<unsigned long long>(runs * m.hostEvents),
                1e3 * static_cast<double>(runs * m.hostEvents) /
                    s.wallMs);
    return s;
}

Section
runMidrunFork()
{
    // A fig7-shaped machine, captured whole at its 64th admission;
    // each measured unit is one System::restore() plus the tail
    // re-execution to completion — the cost a mid-run fork consumer
    // (crash harness, branching fuzzer) pays per explored branch.
    WorkloadParams params;
    params.numThreads = 4;
    params.opsPerThread = 80;
    params.seed = 1;
    RecordedWorkload rec = recordWorkload(WorkloadKind::Queue, params);
    InstrumentorParams ip;
    ip.design = HwDesign::StrandWeaver;
    ip.model = PersistencyModel::Sfr;
    Instrumentor instr(ip);
    std::vector<OpStream> streams = instr.lower(rec.trace);
    SystemConfig cfg;
    cfg.numCores = static_cast<unsigned>(streams.size());
    cfg.design = HwDesign::StrandWeaver;
    cfg.layout = ip.layout;
    System sys(cfg);
    sys.seedImage(rec.preload);
    sys.loadStreams(std::move(streams));

    SimSnapshot snap;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &r) {
        if (++admissions != 64)
            return;
        sys.eventQueue().schedule(
            r.when, [&] { snap = sys.snapshot(); },
            EventPriority::Stat);
    });
    sys.addObserver(&capturer);
    const Tick finish = sys.run();
    sys.removeObserver(&capturer);
    fatalIf(snap.size() == 0,
            "midrun_fork: warm run admitted fewer than 64 lines");

    constexpr unsigned iters = 60;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        sys.restore(snap);
        Tick again = sys.run();
        fatalIf(again != finish,
                "midrun_fork: restored run diverged ({} != {})",
                again, finish);
    }
    Section s{"midrun_fork", iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("midrun_fork:     forks=%u keys=%zu wall_ms=%.1f "
                "forks_per_sec=%.3g\n",
                iters, snap.size(), s.wallMs, s.unitsPerSec);
    return s;
}

/**
 * The port mailbox hot path in isolation: one requester chains
 * round trips against a responder that answers every request
 * immediately. Two event-queue schedules per trip (request leg +
 * response leg), 2*portLegLatency simulated ticks each.
 */
Section
runPortRoundtrip()
{
    struct Echo : MemResponder
    {
        void
        handleRequest(MemPort &port, const MemRequest &req) override
        {
            port.respond(
                {req.kind, MemResponseKind::Done, req.token});
        }
    };
    constexpr std::uint64_t trips = 400'000;
    EventQueue eq;
    Echo echo;
    MemPort port;
    port.init(eq, "bench.port");
    port.bind(echo);
    std::uint64_t completed = 0;
    auto t0 = std::chrono::steady_clock::now();
    port.setResponseHandler([&](const MemResponse &) {
        if (++completed < trips) {
            MemRequest next;
            next.kind = MemRequestKind::Kick;
            next.token = completed;
            port.send(std::move(next));
        }
    });
    MemRequest first;
    first.kind = MemRequestKind::Kick;
    port.send(std::move(first));
    eq.run();
    fatalIf(completed != trips,
            "port_roundtrip: {} of {} trips completed", completed,
            trips);
    fatalIf(eq.curTick() != trips * 2 * portLegLatency,
            "port_roundtrip: {} ticks for {} trips (expected {} per "
            "trip)",
            eq.curTick(), trips, 2 * portLegLatency);
    Section s{"port_roundtrip", trips, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("port_roundtrip:  trips=%llu events=%llu "
                "ticks_per_trip=%llu wall_ms=%.1f trips_per_sec=%.3g\n",
                static_cast<unsigned long long>(trips),
                static_cast<unsigned long long>(eq.serviced()),
                static_cast<unsigned long long>(2 * portLegLatency),
                s.wallMs, s.unitsPerSec);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    int rc = 0;
    if (bench::handleArgs(argc, argv, "simulator host-throughput microbench", &rc))
        return rc;
    std::printf("Simulator throughput microbench (fixed seeds; only "
                "wall-clock varies)\n\n");
    std::vector<Section> sections;
    sections.push_back(runEventChurn());
    sections.push_back(runRecurringChurn());
    sections.push_back(runImageClone());
    sections.push_back(runForkSetup());
    sections.push_back(runFig7Cell());
    sections.push_back(runMidrunFork());
    sections.push_back(runPortRoundtrip());

    namespace fs = std::filesystem;
    fs::path dir(envConfig().outDir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec),
            "cannot create result directory {}: {}", dir.string(),
            ec.message());
    fs::path path = dir / "BENCH_simperf.json";
    std::ofstream out(path);
    fatalIf(!out, "cannot open {} for writing", path.string());
    out << "{\n  \"bench\": \"simperf\",\n  \"schema\": 1,\n"
        << "  \"sections\": {\n";
    for (std::size_t i = 0; i < sections.size(); ++i) {
        const Section &s = sections[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\"units\": %llu, "
                      "\"wall_ms\": %.3f, \"units_per_sec\": %.6g}%s\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.units),
                      s.wallMs, s.unitsPerSec,
                      i + 1 < sections.size() ? "," : "");
        out << buf;
    }
    out << "  }\n}\n";
    out.close();
    fatalIf(!out, "failed writing {}", path.string());
    std::printf("\nwrote %s\n", path.string().c_str());
    return 0;
}
