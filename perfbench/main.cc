/**
 * @file
 * perfbench — run one benchmark workload and report it.
 *
 *   perfbench --workload <design-sweep|crash-fork|fuzz-campaign>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
 *
 * --trace 0: run untraced passes over the cell set until the next pass
 * would overrun --seconds by more than half a pass (at least one
 * pass), each after a batch of set-ups (at least 5, for about 2 s;
 * setup_s is the median of all of them), and print the end-to-end
 * metrics. Their times are process CPU times normalised to the
 * reference host's speed by runs of a fixed reference kernel between
 * the timed items (SpeedTimeline), so that a shared host's changing
 * load does not move them; raw elapsed and CPU times are printed
 * beside them and reported as per-layer metrics.
 * --trace 1: one untraced reference pass, then one traced pass; print
 * the per-layer metrics, the unattributed time and the tracing
 * overhead, and require both passes to agree on sim_digest.
 *
 * Human-readable lines go first; the last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hh"

using namespace perfbench;

namespace
{

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct HostTimes
{
    double userS = 0;
    double sysS = 0;
};

HostTimes
hostTimes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

/** The paper's StrandWeaver-over-Intel geomean (Section VI-B). */
constexpr double paperSpeedup = 1.45;

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Self time and inclusive durations per span kind. */
struct SpanTotals
{
    std::int64_t selfNs[static_cast<int>(SpanKind::Count)] = {};
    std::vector<double> durUs[static_cast<int>(SpanKind::Count)];
    /** Sum of root-span durations (time attributed to some span). */
    std::int64_t rootNs = 0;

    void
    add(const Tracer &tracer)
    {
        std::vector<std::int64_t> childNs(tracer.spans.size(), 0);
        for (const Span &span : tracer.spans) {
            const std::int64_t dur = span.end - span.start;
            if (span.parent >= 0)
                childNs[span.parent] += dur;
            else
                rootNs += dur;
        }
        for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
            const Span &span = tracer.spans[i];
            const std::int64_t dur = span.end - span.start;
            const int k = static_cast<int>(span.kind);
            selfNs[k] += dur - childNs[i];
            durUs[k].push_back(static_cast<double>(dur) / 1e3);
        }
    }

    double
    selfMs(SpanKind kind) const
    {
        return static_cast<double>(selfNs[static_cast<int>(kind)]) / 1e6;
    }

    double
    pctUs(SpanKind kind, double q) const
    {
        const auto &d = durUs[static_cast<int>(kind)];
        return quantile(d, q == 0.5 ? 0.5 : tailQuantile(d.size(), q));
    }
};

void
writeSpans(const std::string &path, const Tracer *setup,
           const Tracer &pass)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    // One JSON object per line; "phase" separates the traced setup
    // from the traced pass (their clocks start at their own origin).
    auto dump = [&out](const char *phase, const Tracer &tracer) {
        for (const Span &s : tracer.spans) {
            out << "{\"phase\": \"" << phase << "\", \"name\": \""
                << spanName(s.kind) << "\", \"start_ns\": " << s.start
                << ", \"end_ns\": " << s.end << ", \"parent\": "
                << s.parent << ", \"cell\": " << s.cell << "}\n";
        }
    };
    if (setup)
        dump("setup", *setup);
    dump("pass", pass);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\nworkloads:",
                 argv0);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/**
 * Set-ups per batch: at least minSetups, then more while the batch so
 * far (set-ups and reference probes) took under setupBudgetMs, up to
 * maxSetups. A batch runs before every untraced pass and setup_s is
 * the median over all batches, so the samples cover several seconds
 * of the run and a burst of host noise moves few of them. Cheap
 * set-ups get hundreds of samples, costly ones stay at minSetups.
 */
constexpr std::size_t minSetups = 5, maxSetups = 1000;
constexpr double setupBudgetMs = 2000;

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName, spansPath;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *value = nullptr;
        if (std::strcmp(argv[i], "--workload") == 0 && (value = next()))
            workloadName = value;
        else if (std::strcmp(argv[i], "--seed") == 0 && (value = next()))
            seed = std::strtoull(value, nullptr, 0);
        else if (std::strcmp(argv[i], "--seconds") == 0 && (value = next()))
            seconds = std::strtod(value, nullptr);
        else if (std::strcmp(argv[i], "--trace") == 0 && (value = next()))
            trace = std::atoi(value);
        else if (std::strcmp(argv[i], "--spans") == 0 && (value = next()))
            spansPath = value;
        else
            return usage(argv[0]);
    }
    auto workload = makeWorkload(workloadName, seed);
    if (!workload || seconds <= 0 || (trace != 0 && trace != 1))
        return usage(argv[0]);

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d cells=%zu\n",
                workloadName.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, workload->numCells());

    std::vector<double> setupMs, setupCpuMs;
    auto setupBatch = [&]() {
        SpeedTimeline speed;
        speed.probe();
        double batchMs = speed.probesMs().back();
        for (std::size_t n = 0;
             n < minSetups || (n < maxSetups && batchMs < setupBudgetMs);
             ++n) {
            const std::int64_t t0 = cpuNs();
            workload->setup(nullptr);
            const double ms = static_cast<double>(cpuNs() - t0) / 1e6;
            speed.work(ms);
            speed.probe();
            batchMs += ms + speed.probesMs().back();
        }
        const std::vector<double> normal = speed.normalised();
        setupMs.insert(setupMs.end(), normal.begin(), normal.end());
        setupCpuMs.insert(setupCpuMs.end(), speed.workMs().begin(),
                          speed.workMs().end());
    };
    setupBatch();
    std::unique_ptr<Tracer> setupTracer;
    if (trace) {
        setupTracer = std::make_unique<Tracer>(nowNs());
        workload->setup(setupTracer.get());
    }

    // Untraced passes: the end-to-end measurement. In trace mode one
    // pass is the reference for the digest and the tracing overhead.
    // Host CPU times and the --seconds budget count the passes only.
    std::vector<PassResult> passes;
    HostTimes host;
    double passesMs = 0;
    for (;;) {
        if (!passes.empty())
            setupBatch();
        const HostTimes host0 = hostTimes();
        passes.push_back(runPass(*workload, false));
        const HostTimes host1 = hostTimes();
        host.userS += host1.userS - host0.userS;
        host.sysS += host1.sysS - host0.sysS;
        if (trace)
            break;
        passesMs += passes.back().wallMs;
        // Stop once another pass would overrun by more than half.
        if (passesMs + passes.back().wallMs / 2 > seconds * 1e3)
            break;
    }
    const double peakMb = peakRssMb();

    std::uint64_t attempted = 0, failed = 0, tolerated = 0;
    std::vector<std::string> misses;
    auto fold = [&](const PassResult &pass) {
        attempted += pass.attempted;
        failed += pass.failed;
        tolerated += pass.tolerated;
        for (const std::string &m : pass.misses)
            if (misses.size() < 8)
                misses.push_back(m);
    };
    for (const PassResult &pass : passes)
        fold(pass);
    // Every pass repeats the same simulations: the digests must agree.
    for (std::size_t i = 1; i < passes.size(); ++i) {
        ++attempted;
        if (passes[i].digest.value() != passes[0].digest.value()) {
            ++failed;
            misses.push_back("pass " + std::to_string(i) +
                             " digest differs from pass 0");
        }
    }

    PassResult traced;
    if (trace) {
        traced = runPass(*workload, true);
        ++attempted;
        if (traced.digest.value() != passes[0].digest.value()) {
            ++failed;
            misses.push_back("traced digest " + traced.digest.hex() +
                             " differs from untraced " +
                             passes[0].digest.hex());
        }
    }

    unsigned checks = 0;
    for (std::string &problem : workload->selfCheck(checks)) {
        ++failed;
        misses.push_back(std::move(problem));
    }
    attempted += checks;

    // End-to-end figures, always from the untraced passes.
    std::vector<double> passWall, passCpu, passNorm, cellMs, probeMs;
    double wallTotalMs = 0, normTotalMs = 0;
    std::uint64_t simOps = 0, crashPoints = 0;
    for (const PassResult &pass : passes) {
        passWall.push_back(pass.wallMs);
        passCpu.push_back(pass.cpuMs);
        passNorm.push_back(
            std::accumulate(pass.cellMs.begin(), pass.cellMs.end(), 0.0));
        wallTotalMs += pass.wallMs;
        normTotalMs += passNorm.back();
        simOps += pass.simOps;
        crashPoints += pass.crashPoints;
        cellMs.insert(cellMs.end(), pass.cellMs.begin(), pass.cellMs.end());
        probeMs.insert(probeMs.end(), pass.probeMs.begin(),
                       pass.probeMs.end());
    }
    // How much slower than the reference host this run's host was.
    const double slowdown = median(probeMs) / referenceNominalMs;
    const double tailQ = tailQuantile(cellMs.size(), 0.9);
    const double swGm = geomean(passes[0].swSpeedups);
    const double paperErrPct =
        swGm > 0 ? 100.0 * std::fabs(swGm - paperSpeedup) / paperSpeedup
                 : 0.0;
    const double errorRate = ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted));
    const double crashPointsPerS = ratio(static_cast<double>(crashPoints),
                                         wallTotalMs / 1e3);

    std::printf("sim_digest %s\n", passes[0].digest.hex().c_str());
    auto printPasses = [](const char *what,
                          const std::vector<double> &values) {
        std::printf("pass %s ms:", what);
        for (double ms : values)
            std::printf(" %.1f", ms);
        std::printf("\n");
    };
    printPasses("elapsed", passWall);
    printPasses("cpu", passCpu);
    printPasses("normalised", passNorm);
    std::printf("host slowdown %.4f (median of %zu reference probes, "
                "%.4f ms each at reference speed)\n",
                slowdown, probeMs.size(), referenceNominalMs);
    std::printf("%zu setups, cpu ms median %.3f, normalised ms min %.3f "
                "median %.3f max %.3f\n",
                setupMs.size(), median(setupCpuMs),
                *std::min_element(setupMs.begin(), setupMs.end()),
                median(setupMs),
                *std::max_element(setupMs.begin(), setupMs.end()));
    std::printf("passes %zu, cells per pass %zu, cell samples %zu, "
                "cell tail percentile p%.4g\n",
                passes.size(), workload->numCells(), cellMs.size(),
                100 * tailQ);
    std::printf("outcomes attempted %llu, missed %llu (error_rate %.6g), "
                "tolerated modeling-gap failures %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), errorRate,
                static_cast<unsigned long long>(tolerated));
    for (const std::string &m : misses)
        std::printf("  MISS %s\n", m.c_str());
    std::printf("host user %.3f s, sys %.3f s, peak RSS %.1f MB\n",
                host.userS, host.sysS, peakMb);
    if (swGm > 0)
        std::printf("sw_speedup_gm %.4f (paper %.2f), paper_err_pct %.4f "
                    "(checked against the paper only)\n",
                    swGm, paperSpeedup, paperErrPct);
    if (crashPoints > 0)
        std::printf("crash_points_per_s %.6g (%llu points per pass)\n",
                    crashPointsPerS,
                    static_cast<unsigned long long>(passes[0].crashPoints));

    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {
            {"setup_s", median(setupMs) / 1e3, "s"},
            {"pass_s", median(passNorm) / 1e3, "s"},
            {"sim_ops_per_s",
             ratio(static_cast<double>(simOps), normTotalMs / 1e3), "1/s"},
            {"cell_p50_ms", quantile(cellMs, 0.5), "ms"},
            {"cell_p90_ms", quantile(cellMs, tailQ), "ms"},
            {"peak_rss_mb", peakMb, "MB"},
        };
    } else {
        SpanTotals spans;
        spans.add(*setupTracer);
        spans.add(*traced.tracer);
        SpanTotals passSpans;
        passSpans.add(*traced.tracer);
        const SimCounters &sim = traced.sim;
        const double events =
            static_cast<double>(traced.eventsIntel + traced.eventsStrand);
        const double cycles = sim.get("cpu.cycles");
        const double committed = sim.get("cpu.committed");
        const double accesses =
            sim.get("caches.loadHits") + sim.get("caches.loadMisses") +
            sim.get("caches.storeHits") + sim.get("caches.storeMisses");
        const double pmRequests = sim.get("pm.reads") + sim.get("pm.writes");
        auto histMean = [&sim](std::initializer_list<const char *> keys) {
            double n = 0, total = 0;
            for (const char *key : keys) {
                n += sim.get(std::string(key) + ".n");
                total += sim.get(std::string(key) + ".total");
            }
            return ratio(total, n);
        };
        const double sanitizerMs =
            static_cast<double>(traced.tracer->sanitizerNs) / 1e6;
        const double unattributedMs =
            traced.wallMs -
            static_cast<double>(passSpans.rootNs) / 1e6;

        metrics = {
            {"workloads.record_ms", spans.selfMs(SpanKind::Record), "ms"},
            {"workloads.check_ms", spans.selfMs(SpanKind::Check), "ms"},
            {"runtime.lower_ms", spans.selfMs(SpanKind::Lower), "ms"},
            {"runtime.recover_ms", spans.selfMs(SpanKind::Recover), "ms"},
            {"runtime.recover_us_p50", spans.pctUs(SpanKind::Recover, 0.5),
             "us"},
            {"runtime.recover_us_p90", spans.pctUs(SpanKind::Recover, 0.9),
             "us"},
            {"runtime.rolled_back", static_cast<double>(traced.rolledBack),
             "count"},
            {"core.build_ms", spans.selfMs(SpanKind::Build), "ms"},
            {"core.builds", static_cast<double>(traced.builds), "count"},
            // The sanitizer runs inside System::run; its forwarded
            // callbacks are reported under sanitizer.* instead.
            {"sim.run_ms", spans.selfMs(SpanKind::Run) - sanitizerMs, "ms"},
            {"sim.snapshot_ms", spans.selfMs(SpanKind::Snapshot), "ms"},
            {"sim.events", events, "count"},
            {"sim.ns_per_event",
             ratio(static_cast<double>(traced.runNsIntel +
                                       traced.runNsStrand),
                   events),
             "ns"},
            {"sim.ns_per_event.intel",
             ratio(static_cast<double>(traced.runNsIntel),
                   static_cast<double>(traced.eventsIntel)),
             "ns"},
            {"sim.ns_per_event.strand",
             ratio(static_cast<double>(traced.runNsStrand),
                   static_cast<double>(traced.eventsStrand)),
             "ns"},
            {"cpu.cycles", cycles, "count"},
            {"cpu.ops_committed", committed, "count"},
            {"cpu.ipc", ratio(committed, cycles), "ops/cycle"},
            {"cpu.persist_stall_frac",
             ratio(sim.get("cpu.persistStalls"), cycles), "frac"},
            {"cache.accesses_per_op", ratio(accesses, committed), "ratio"},
            {"cache.miss_ratio",
             ratio(sim.get("caches.loadMisses") +
                       sim.get("caches.storeMisses"),
                   accesses),
             "ratio"},
            {"cache.flushes",
             sim.get("caches.flushesDirty") + sim.get("caches.flushesClean"),
             "count"},
            {"cache.writeback_stalls", sim.get("caches.writebackStalls"),
             "count"},
            {"cache.snoop_stalls", sim.get("caches.snoopStalls"), "count"},
            {"persist.clwbs", sim.get("cpu.engine.clwbs"), "count"},
            {"persist.barriers",
             sim.get("cpu.engine.barriers") + sim.get("cpu.engine.sfences"),
             "count"},
            {"persist.strands", sim.get("cpu.engine.newStrands"), "count"},
            {"persist.join_strands", sim.get("cpu.engine.joinStrands"),
             "count"},
            {"persist.pq_occupancy_mean",
             histMean({"cpu.engine.pqOccupancy"}), "entries"},
            {"persist.flush_latency_mean",
             histMean({"cpu.engine.flushLatency",
                       "cpu.engine.sbu.flushLatency"}),
             "ticks"},
            {"mem.pm_reads", sim.get("pm.reads"), "count"},
            {"mem.pm_writes", sim.get("pm.writes"), "count"},
            {"mem.row_hit_ratio",
             ratio(sim.get("pm.rowHits"),
                   sim.get("pm.rowHits") + sim.get("pm.rowMisses")),
             "ratio"},
            {"mem.retry_ratio", ratio(sim.get("pm.retries"), pmRequests),
             "ratio"},
            {"mem.read_latency_mean", histMean({"pm.readLatency"}), "ticks"},
            {"mem.clone_ms", spans.selfMs(SpanKind::Clone), "ms"},
            {"mem.clone_us_p50", spans.pctUs(SpanKind::Clone, 0.5), "us"},
            {"crash.cell_ms", spans.selfMs(SpanKind::CellCrash), "ms"},
            {"crash.oracle_ms",
             spans.selfMs(SpanKind::Classify) + spans.selfMs(SpanKind::Oracle),
             "ms"},
            {"crash.oracle_us_p50", spans.pctUs(SpanKind::Oracle, 0.5), "us"},
            {"crash.points_injected",
             static_cast<double>(traced.crashPoints), "count"},
            {"crash.verdict_full", static_cast<double>(traced.verdictFull),
             "count"},
            {"crash.verdict_degraded",
             static_cast<double>(traced.verdictDegraded), "count"},
            {"crash.verdict_failed",
             static_cast<double>(traced.verdictFailed), "count"},
            {"fuzz.cell_ms", spans.selfMs(SpanKind::CellFuzz), "ms"},
            {"fuzz.trial_ms", spans.selfMs(SpanKind::FuzzTrial), "ms"},
            {"fuzz.shrink_ms", spans.selfMs(SpanKind::FuzzShrink), "ms"},
            {"fuzz.shrink_replays",
             static_cast<double>(traced.shrinkReplays), "count"},
            {"fuzz.shrink_ratio",
             ratio(static_cast<double>(traced.shrunkDecisions),
                   static_cast<double>(traced.rawDecisions)),
             "ratio"},
            {"fuzz.queries", static_cast<double>(traced.queries), "count"},
            {"fuzz.holds", static_cast<double>(traced.holds), "count"},
            {"sanitizer.ms", sanitizerMs, "ms"},
            {"sanitizer.checked",
             static_cast<double>(traced.sanitizerChecked), "count"},
            {"sanitizer.ns_per_check",
             ratio(static_cast<double>(traced.tracer->sanitizerNs),
                   static_cast<double>(traced.sanitizerChecked)),
             "ns"},
            {"bench.cell_ms", spans.selfMs(SpanKind::CellTiming), "ms"},
            {"host.user_s", host.userS, "s"},
            {"host.sys_s", host.sysS, "s"},
            {"trace.wall_ms", traced.wallMs, "ms"},
            {"trace.unattributed_ms", unattributedMs, "ms"},
            {"trace.overhead_frac",
             ratio(traced.cpuMs - passes[0].cpuMs, passes[0].cpuMs),
             "frac"},
            {"host.wall_s", passes[0].wallMs / 1e3, "s"},
            {"host.cpu_s", passes[0].cpuMs / 1e3, "s"},
            {"host.slowdown", slowdown, "x"},
            {"e2e.crash_points_per_s", crashPointsPerS, "1/s"},
            {"e2e.sw_speedup_gm", swGm, "x"},
            {"e2e.paper_err_pct", paperErrPct, "%"},
            {"e2e.error_rate", errorRate, "frac"},
        };
        std::printf("traced pass %.1f ms vs untraced %.1f ms elapsed "
                    "(cpu %.1f vs %.1f ms), unattributed %.3f ms, "
                    "%zu spans\n",
                    traced.wallMs, passes[0].wallMs, traced.cpuMs,
                    passes[0].cpuMs, unattributedMs,
                    traced.tracer->spans.size());
        if (!spansPath.empty())
            writeSpans(spansPath, setupTracer.get(), *traced.tracer);
    }
    for (const Metric &m : metrics) {
        if (!validMetricName(m.name)) {
            std::fprintf(stderr, "perfbench: bad metric name '%s'\n",
                         m.name.c_str());
            return 3;
        }
    }
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printJson(failed == 0, attempted, failed, metrics);
    return 0;
}
