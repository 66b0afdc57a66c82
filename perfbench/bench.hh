/**
 * @file
 * The StrandWeaver end-to-end benchmark: workloads, the span tracer
 * and the small helpers the report is built from.
 *
 * One benchmark process runs one workload on one measuring thread.
 * Every cell is driven through the simulator's public calls
 * (Instrumentor::lower, System construction and run,
 * RecoveryManager::recover, CrashOracle::checkRecovered,
 * runFuzzTrial, shrinkDecisions, ...). In an untraced pass only whole
 * cells are timed; in a traced pass the same calls are wrapped in
 * spans, from which the per-layer numbers are derived. Both passes
 * execute identical simulator work, so they must produce the same
 * sim_digest.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/observer.hh"

namespace strand
{
class System;
} // namespace strand

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the whole process (user + sys, all threads) in
 * nanoseconds. Unlike nowNs() it does not advance while the process
 * waits for a processor: the kernel leaves out time other processes
 * ran and, with paravirtual steal-time accounting, time the
 * hypervisor gave the vCPU to another guest. That
 * makes it the timer of the bounded metrics on a shared host, where
 * elapsed time swings with the neighbours' load.
 */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** @name Host-speed normalisation @{ */

/**
 * The reference kernel's CPU time on the host the benchmark's first
 * baseline was taken on (perfbench/README.md), rounded. Normalised
 * times are CPU times rescaled to that host's speed.
 */
constexpr double referenceNominalMs = 0.9;

/**
 * Run the benchmark's fixed reference kernel once and return its CPU
 * time in ms (about 1 ms). The kernel is the benchmark's own code, not
 * the simulator's, so a change to the simulator cannot move it. It is
 * a register-only loop of dependent integer operations and
 * unpredictable branches: of the kernels tried (pointer chases through
 * 16 KiB, 1 MiB and 32 MiB, heap operations, malloc churn, this loop)
 * its time tracked the simulator's CPU time most closely as a busy
 * host slowed both (correlation 0.99 over ten design-sweep passes
 * whose CPU time varied by 1.4x).
 */
double referenceKernelMs();

/**
 * CPU times of work items interleaved with runs of the reference
 * kernel: probe(), work(), probe(), work(), ..., probe().
 *
 * On a shared host the same work takes more CPU time while the
 * neighbours load the machine (a busy sibling hyperthread, a lower
 * clock), and such phases last seconds to minutes. The probes run
 * under the same conditions as the work between them, so dividing by
 * them cancels most of the host's speed: normalised() gives each work
 * item's CPU time over slowdown(), the median probe over
 * referenceNominalMs. One median over the whole timeline is steadier
 * than a running one: a single probe is noisier than the host's drift
 * within one pass.
 */
class SpeedTimeline
{
  public:
    /** Run the reference kernel and record its time. */
    void probe();
    /** Record a work item of @p cpuMs. */
    void work(double cpuMs);

    /** Median probe over referenceNominalMs (1 without probes). */
    double slowdown() const;
    /** The work items in host-speed-normalised ms. */
    std::vector<double> normalised() const;

    const std::vector<double> &probesMs() const { return probes; }
    const std::vector<double> &workMs() const { return works; }

  private:
    std::vector<double> probes;
    std::vector<double> works;
};

/** @} */

/** @name Report helpers (unit-tested by perfbench_selftest) @{ */

/**
 * The tail quantile actually reported for a wanted quantile @p q over
 * @p n samples: q itself when at least @p minTail samples lie beyond
 * its nearest rank, otherwise the highest quantile that still leaves
 * minTail samples beyond it, and never below the median.
 */
double tailQuantile(std::size_t n, double q, std::size_t minTail = 10);

/**
 * Nearest-rank quantile of @p values (copied and sorted): the value
 * at rank ceil(q * n). 0 for an empty vector.
 */
double quantile(std::vector<double> values, double q);

/** Median (average of the two middle values for even counts). */
double median(std::vector<double> values);

/** True when @p name is a legal metric name: [A-Za-z0-9_.-], at
 * most 64 characters, starting with a letter or digit. */
bool validMetricName(std::string_view name);

/** Incremental FNV-1a over the simulated results of a pass. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::string_view s);
    std::uint64_t value() const { return hash; }
    std::string hex() const;

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

/** @} */

/** @name Span tracing @{ */

/** The public calls a traced pass wraps; one layer each. */
enum class SpanKind : std::uint8_t
{
    CellTiming,   ///< bench: one design-sweep cell (glue only)
    CellCrash,    ///< crash: one forked crash cell (rewind, plan, fold)
    CellFuzz,     ///< fuzz: one campaign cell (trial loop)
    Record,       ///< workloads: recordWorkload / makeTrialContext
    Check,        ///< workloads: Workload::checkInvariants
    Lower,        ///< runtime: Instrumentor::lower
    Recover,      ///< runtime: RecoveryManager::recover
    Build,        ///< core: System ctor + seedImage + loadStreams
    Run,          ///< sim: System::run (cpu/cache/persist/mem inside)
    Snapshot,     ///< sim: System::snapshot / restore
    Clone,        ///< mem: MemoryImage::clonePersisted
    Classify,     ///< crash: CrashOracle::committedRegions
    Oracle,       ///< crash: CrashOracle::checkRecovered
    FuzzTrial,    ///< fuzz: runFuzzTrial
    FuzzShrink,   ///< fuzz: shrinkDecisions
    Count
};

/** Dotted span name ("runtime.recover") of @p kind. */
const char *spanName(SpanKind kind);

/** One recorded span; times are nanoseconds since the pass start. */
struct Span
{
    SpanKind kind;
    std::int32_t parent; ///< index into Tracer::spans, -1 at the root
    std::int32_t cell;   ///< cell index within the pass
    std::int64_t start;
    std::int64_t end;
};

/** In-memory span recorder for one traced pass. */
class Tracer
{
  public:
    explicit Tracer(std::int64_t origin) : origin(origin) {}

    std::int32_t open(SpanKind kind);
    void close(std::int32_t index);

    /** Cell index stamped on spans opened from now on. */
    std::int32_t cell = -1;
    std::vector<Span> spans;

    /**
     * Time spent inside PmoSanitizer callbacks (all inside sim.run
     * spans); the forwarding observer adds to it.
     */
    std::int64_t sanitizerNs = 0;

  private:
    std::int64_t origin;
    std::vector<std::int32_t> stack;
};

/** RAII span; a no-op when @p tracer is null (untraced pass). */
class Scope
{
  public:
    Scope(Tracer *tracer, SpanKind kind)
        : tracer(tracer), index(tracer ? tracer->open(kind) : -1)
    {}
    ~Scope()
    {
        if (tracer)
            tracer->close(index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    std::int32_t index;
};

/**
 * Forwards every persist event to a PmoSanitizer, timing each call
 * into Tracer::sanitizerNs. Attached instead of the sanitizer itself
 * in traced passes, so the sanitizer's cost can be separated from the
 * System::run span it executes in.
 */
class TimedObserver final : public strand::PersistObserver
{
  public:
    TimedObserver(strand::PersistObserver &target, Tracer &tracer)
        : target(target), tracer(tracer)
    {}

    void onPersistAdmitted(const strand::PersistRecord &rec) override;
    void onPrimitiveDispatched(const strand::PrimitiveEvent &ev) override;
    void onPrimitiveRetired(const strand::PrimitiveEvent &ev) override;
    void onConflictEdge(const strand::ConflictEdgeEvent &ev) override;

  private:
    strand::PersistObserver &target;
    Tracer &tracer;
};

/** @} */

/**
 * Simulated-time statistics summed over every System a traced pass
 * owns, read through StatGroup::visitStats after each run.
 */
struct SimCounters
{
    std::map<std::string, double> sum;
    void accumulate(const strand::System &sys);
    double get(const std::string &key) const;
};

/** Everything one pass over a workload's cells produced. */
struct PassResult
{
    /** Elapsed time of the whole pass, reference probes included. */
    double wallMs = 0;
    /** CPU time (cpuNs) of the cells, summed. */
    double cpuMs = 0;
    /**
     * Untraced passes: each cell's CPU time normalised to the
     * reference host's speed (SpeedTimeline), and the probe times.
     */
    std::vector<double> cellMs;
    std::vector<double> probeMs;
    std::uint64_t simOps = 0;
    std::uint64_t events = 0;
    /** Crash points injected (crash cells and fuzz recovery checks). */
    std::uint64_t crashPoints = 0;
    /** Outcomes checked against their expectation, and the misses. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failures of known, documented modeling gaps (not misses). */
    std::uint64_t tolerated = 0;
    /** First few miss descriptions, for the report. */
    std::vector<std::string> misses;
    Digest digest;

    /** design-sweep: StrandWeaver-over-Intel speedups per pair. */
    std::vector<double> swSpeedups;

    /** @name Traced passes only @{ */
    std::unique_ptr<Tracer> tracer;
    SimCounters sim;
    /** sim.run self time and events, by engine family. */
    std::int64_t runNsIntel = 0, runNsStrand = 0;
    std::uint64_t eventsIntel = 0, eventsStrand = 0;
    std::uint64_t builds = 0;
    std::uint64_t rolledBack = 0;
    std::uint64_t sanitizerChecked = 0;
    std::uint64_t verdictFull = 0, verdictDegraded = 0,
                  verdictFailed = 0;
    std::uint64_t shrinkReplays = 0;
    std::uint64_t rawDecisions = 0, shrunkDecisions = 0;
    std::uint64_t queries = 0, holds = 0;
    /** @} */

    void miss(std::string what);
};

/** A named benchmark workload: a fixed cell set built from a seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the pass inputs (workload recordings, trial contexts).
     * Called several times; each call replaces the previous inputs.
     * Recording calls are traced into @p tracer when it is non-null.
     */
    virtual void setup(Tracer *tracer) = 0;

    virtual std::size_t numCells() const = 0;

    /** Run cell @p index into @p pass (traced when pass.tracer). */
    virtual void runCell(std::size_t index, PassResult &pass) = 0;

    /**
     * Re-check the benchmark's own driving code against the
     * simulator's library entry points on a few cells.
     * @return one line per failed check (empty when all agree);
     * @p checks counts the checks made.
     */
    virtual std::vector<std::string> selfCheck(unsigned &checks) = 0;
};

/** Sizes of a workload's cell set; 0 selects the workload's default. */
struct WorkloadSize
{
    /** Simulated threads per recorded workload. */
    unsigned threads = 0;
    /** Simulated ops per thread. */
    unsigned ops = 0;
    /** crash-fork: crash-point budget per cell. */
    unsigned crashPoints = 0;
    /** Use only the first N of the workload's Table II workloads. */
    unsigned kinds = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Make workload @p name for @p seed. Sizes left at 0 take the
 * workload's defaults (the repository benches' default sizes).
 * @return null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       WorkloadSize size = {});

/**
 * Run every cell of @p workload once into a fresh PassResult. An
 * untraced pass runs the reference kernel before each cell and after
 * the last; a traced pass does not, and leaves cellMs empty.
 */
PassResult runPass(Workload &workload, bool traced);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
