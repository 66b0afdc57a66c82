#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hh"
#include "core/system.hh"

namespace perfbench
{

double
tailQuantile(std::size_t n, double q, std::size_t minTail)
{
    if (n == 0)
        return 0.5;
    // Nearest rank r = ceil(q * n) leaves n - r samples beyond it;
    // the highest quantile with minTail beyond sits at rank n - minTail.
    const double limit =
        n > minTail ? static_cast<double>(n - minTail) /
                          static_cast<double>(n)
                    : 0.0;
    return std::max(0.5, std::min(q, limit));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

double
referenceKernelMs()
{
    static volatile std::uint64_t sink = 0;
    const std::int64_t t0 = cpuNs();
    // xorshift64 with a branch on a pseudo-random bit: dependent
    // integer work and unpredictable branches, all in registers.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (unsigned i = 0; i < 150000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 1)
            acc += x >> 3;
        else
            acc ^= x * 3;
    }
    sink = sink + acc;
    return static_cast<double>(cpuNs() - t0) / 1e6;
}

void
SpeedTimeline::probe()
{
    probes.push_back(referenceKernelMs());
}

void
SpeedTimeline::work(double cpuMs)
{
    works.push_back(cpuMs);
}

double
SpeedTimeline::slowdown() const
{
    return probes.empty() ? 1.0 : median(probes) / referenceNominalMs;
}

std::vector<double>
SpeedTimeline::normalised() const
{
    std::vector<double> out;
    out.reserve(works.size());
    const double factor = slowdown();
    for (double ms : works)
        out.push_back(ms / factor);
    return out;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
                                                static_cast<unsigned char>(
                                                    name.front())))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

void
Digest::add(std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(std::string_view s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::CellTiming:
        return "bench.cell";
      case SpanKind::CellCrash:
        return "crash.cell";
      case SpanKind::CellFuzz:
        return "fuzz.cell";
      case SpanKind::Record:
        return "workloads.record";
      case SpanKind::Check:
        return "workloads.check";
      case SpanKind::Lower:
        return "runtime.lower";
      case SpanKind::Recover:
        return "runtime.recover";
      case SpanKind::Build:
        return "core.build";
      case SpanKind::Run:
        return "sim.run";
      case SpanKind::Snapshot:
        return "sim.snapshot";
      case SpanKind::Clone:
        return "mem.clone";
      case SpanKind::Classify:
        return "crash.classify";
      case SpanKind::Oracle:
        return "crash.oracle";
      case SpanKind::FuzzTrial:
        return "fuzz.trial";
      case SpanKind::FuzzShrink:
        return "fuzz.shrink";
      case SpanKind::Count:
        break;
    }
    return "?";
}

std::int32_t
Tracer::open(SpanKind kind)
{
    const auto index = static_cast<std::int32_t>(spans.size());
    spans.push_back({kind, stack.empty() ? -1 : stack.back(), cell,
                     nowNs() - origin, 0});
    stack.push_back(index);
    return index;
}

void
Tracer::close(std::int32_t index)
{
    spans[index].end = nowNs() - origin;
    stack.pop_back();
}

void
TimedObserver::onPersistAdmitted(const strand::PersistRecord &rec)
{
    const std::int64_t t0 = nowNs();
    target.onPersistAdmitted(rec);
    tracer.sanitizerNs += nowNs() - t0;
}

void
TimedObserver::onPrimitiveDispatched(const strand::PrimitiveEvent &ev)
{
    const std::int64_t t0 = nowNs();
    target.onPrimitiveDispatched(ev);
    tracer.sanitizerNs += nowNs() - t0;
}

void
TimedObserver::onPrimitiveRetired(const strand::PrimitiveEvent &ev)
{
    const std::int64_t t0 = nowNs();
    target.onPrimitiveRetired(ev);
    tracer.sanitizerNs += nowNs() - t0;
}

void
TimedObserver::onConflictEdge(const strand::ConflictEdgeEvent &ev)
{
    const std::int64_t t0 = nowNs();
    target.onConflictEdge(ev);
    tracer.sanitizerNs += nowNs() - t0;
}

void
SimCounters::accumulate(const strand::System &sys)
{
    // Stat paths are "system.<component>[.<sub>...].<stat>"; cores
    // are summed by dropping their index ("system.cpu3.cycles" ->
    // "cpu.cycles"). Histograms contribute a count and a total so
    // means can be formed over the whole pass.
    sys.visitStats([this](const std::string &name,
                          const strand::stats::StatBase &stat) {
        std::string key = name.rfind("system.", 0) == 0
                              ? name.substr(7)
                              : name;
        if (key.rfind("cpu", 0) == 0) {
            std::size_t dot = key.find('.');
            key = "cpu" + key.substr(dot);
        }
        if (auto *scalar =
                dynamic_cast<const strand::stats::Scalar *>(&stat)) {
            sum[key] += scalar->value();
        } else if (auto *vec = dynamic_cast<
                       const strand::stats::Vector *>(&stat)) {
            sum[key] += vec->sum();
        } else if (auto *hist = dynamic_cast<
                       const strand::stats::Histogram *>(&stat)) {
            const double n = static_cast<double>(hist->samples());
            sum[key + ".n"] += n;
            sum[key + ".total"] += hist->mean() * n;
        }
    });
    sum["cpu.persistStalls"] += sys.totalPersistStalls();
}

double
SimCounters::get(const std::string &key) const
{
    auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
}

void
PassResult::miss(std::string what)
{
    ++failed;
    if (misses.size() < 8)
        misses.push_back(std::move(what));
}

PassResult
runPass(Workload &workload, bool traced)
{
    PassResult pass;
    const std::int64_t start = nowNs();
    if (traced)
        pass.tracer = std::make_unique<Tracer>(start);
    SpeedTimeline speed;
    if (!traced)
        speed.probe();
    for (std::size_t i = 0; i < workload.numCells(); ++i) {
        if (pass.tracer)
            pass.tracer->cell = static_cast<std::int32_t>(i);
        const std::int64_t t0 = cpuNs();
        workload.runCell(i, pass);
        const double ms = static_cast<double>(cpuNs() - t0) / 1e6;
        pass.cpuMs += ms;
        if (!traced) {
            speed.work(ms);
            speed.probe();
        }
    }
    pass.wallMs = static_cast<double>(nowNs() - start) / 1e6;
    if (!traced) {
        pass.cellMs = speed.normalised();
        pass.probeMs = speed.probesMs();
    }
    return pass;
}

} // namespace perfbench
