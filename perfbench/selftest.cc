/**
 * @file
 * Tests for the benchmark's own helpers: the tail-percentile rule and
 * its sample count, the metric-name charset, the host-speed
 * normalisation, and the stability of
 * sim_digest across repeated passes (and traced vs untraced passes)
 * in one process. Exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testPercentileRule()
{
    // 120 cells: p90's nearest rank (108) leaves 12 beyond it.
    expect(near(tailQuantile(120, 0.9), 0.9), "p90 kept at 120 samples");
    expect(near(tailQuantile(100, 0.9), 0.9), "p90 kept at 100 samples");
    // 50 cells: only rank 40 leaves 10 beyond -> p80.
    expect(near(tailQuantile(50, 0.9), 0.8), "p80 at 50 samples");
    // Too few samples for any tail: fall back to the median.
    expect(near(tailQuantile(12, 0.9), 0.5), "median at 12 samples");
    expect(near(tailQuantile(0, 0.9), 0.5), "median at 0 samples");

    for (std::size_t n : {20u, 37u, 50u, 100u, 120u, 133u, 1000u}) {
        const double q = tailQuantile(n, 0.9);
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        expect(n - rank >= 10, "at least 10 samples beyond the tail rank");
    }

    std::vector<double> values;
    for (int i = 1; i <= 50; ++i)
        values.push_back(i);
    expect(near(quantile(values, 0.5), 25), "nearest-rank median of 1..50");
    expect(near(quantile(values, tailQuantile(values.size(), 0.9)), 40),
           "tail value of 1..50 is 40");
    expect(near(quantile({3, 1, 2}, 1.0), 3), "q=1 is the maximum");
    expect(near(quantile({}, 0.5), 0), "empty quantile is 0");
    expect(near(median({4, 1, 3, 2}), 2.5), "even median averages");
    expect(near(median({5, 1, 3}), 3), "odd median");
}

void
testMetricNames()
{
    expect(validMetricName("setup_s"), "setup_s");
    expect(validMetricName("sim.ns_per_event.intel"), "dotted name");
    expect(validMetricName("e2e.error-rate"), "dash allowed");
    expect(validMetricName("9lives"), "leading digit");
    expect(!validMetricName(""), "empty rejected");
    expect(!validMetricName("_x"), "leading underscore rejected");
    expect(!validMetricName(".x"), "leading dot rejected");
    expect(!validMetricName("a b"), "space rejected");
    expect(!validMetricName("a/b"), "slash rejected");
    expect(!validMetricName("p90%"), "percent rejected");
    expect(validMetricName(std::string(64, 'a')), "64 characters");
    expect(!validMetricName(std::string(65, 'a')), "65 characters rejected");
}

void
testSpeedTimeline()
{
    SpeedTimeline empty;
    expect(near(empty.slowdown(), 1.0), "no probes: slowdown 1");

    SpeedTimeline speed;
    speed.probe();
    speed.work(10.0);
    speed.probe();
    speed.work(30.0);
    speed.probe();
    expect(speed.probesMs().size() == 3, "one probe per probe() call");
    expect(speed.probesMs()[1] > 0, "probe takes measurable CPU time");
    const double slowdown = speed.slowdown();
    expect(near(slowdown, median(speed.probesMs()) / referenceNominalMs),
           "slowdown is the median probe over the nominal time");
    const std::vector<double> normal = speed.normalised();
    expect(normal.size() == 2 && near(normal[0] * slowdown, 10.0) &&
               near(normal[1] * slowdown, 30.0),
           "normalised work is CPU time over the slowdown");
}

void
testDigestStability()
{
    // Tiny cell sets: enough to exercise every driver, small enough to
    // run in seconds.
    WorkloadSize tiny;
    tiny.threads = 2;
    tiny.ops = 6;
    tiny.kinds = 1;
    tiny.crashPoints = 4;
    for (const std::string &name : workloadNames()) {
        auto workload = makeWorkload(name, 3, tiny);
        workload->setup(nullptr);
        PassResult first = runPass(*workload, false);
        workload->setup(nullptr);
        PassResult second = runPass(*workload, false);
        PassResult traced = runPass(*workload, true);
        std::printf("     %s: %zu cells, digest %s\n", name.c_str(),
                    workload->numCells(), first.digest.hex().c_str());
        expect(first.digest.value() == second.digest.value(),
               "digest stable across two in-process passes");
        expect(first.digest.value() == traced.digest.value(),
               "traced pass digest equals untraced");
        expect(!traced.tracer->spans.empty(), "traced pass recorded spans");
        expect(first.failed == 0, "no missed expectations");

        auto reseeded = makeWorkload(name, 4, tiny);
        reseeded->setup(nullptr);
        PassResult other = runPass(*reseeded, false);
        expect(other.digest.value() != first.digest.value(),
               "another seed gives another digest");
    }
    Digest a, b;
    a.add(std::string_view("ab"));
    a.add(std::string_view("c"));
    b.add(std::string_view("a"));
    b.add(std::string_view("bc"));
    expect(a.value() != b.value(), "digest separates string boundaries");
}

} // namespace

int
main()
{
    testPercentileRule();
    testMetricNames();
    testSpeedTimeline();
    testDigestStability();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
