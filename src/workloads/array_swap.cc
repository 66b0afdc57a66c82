#include "workloads/array_swap.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{
/** Per-element lock space (lock order: lower index first). */
constexpr std::uint32_t elementLockBase = 3000;
constexpr std::uint64_t numElements = 4096;
} // namespace

void
ArraySwapWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                          const WorkloadParams &params)
{
    Rng rng(params.seed);
    elements = numElements;
    arrayBase = heap.alloc(0, numElements * lineBytes);

    expectedSum = 0;
    for (std::uint64_t i = 0; i < numElements; ++i) {
        rec.preload(arrayBase + i * lineBytes, i + 1);
        expectedSum += i + 1;
    }

    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            std::uint64_t i = rng.nextBounded(numElements);
            std::uint64_t j = rng.nextBounded(numElements);
            while (j == i)
                j = rng.nextBounded(numElements);
            if (j < i)
                std::swap(i, j); // lock ordering discipline
            auto lockI =
                static_cast<std::uint32_t>(elementLockBase + i);
            auto lockJ =
                static_cast<std::uint32_t>(elementLockBase + j);
            rec.lockAcquire(t, lockI);
            rec.lockAcquire(t, lockJ);
            rec.regionBegin(t);
            std::uint64_t vi = rec.read(t, arrayBase + i * lineBytes);
            std::uint64_t vj = rec.read(t, arrayBase + j * lineBytes);
            rec.compute(t, 15);
            rec.write(t, arrayBase + i * lineBytes, vj);
            rec.write(t, arrayBase + j * lineBytes, vi);
            rec.regionEnd(t);
            rec.lockRelease(t, lockJ);
            rec.lockRelease(t, lockI);
            rec.compute(t, 50);
        }
    }
}

std::string
ArraySwapWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    (void)unit; // one unit: the whole structure
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < elements; ++i) {
        std::uint64_t v = read(arrayBase + i * lineBytes);
        if (v == 0 || v > elements)
            return "array element out of range";
        sum += v;
    }
    if (sum != expectedSum)
        return "array sum changed: a swap was torn";
    return {};
}

} // namespace strand
