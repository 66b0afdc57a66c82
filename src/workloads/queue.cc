#include "workloads/queue.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{
constexpr std::uint32_t queueLock = 1;
constexpr Addr valueField = 0;
constexpr Addr nextField = 8;
} // namespace

void
QueueWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                      const WorkloadParams &params)
{
    Rng rng(params.seed);

    // Meta line and sentinel node, preloaded as durable setup state.
    Addr meta = heap.alloc(0, 2 * lineBytes);
    headPtr = meta;
    tailPtr = meta + lineBytes;
    Addr sentinel = heap.alloc(0, lineBytes);
    rec.preload(sentinel + valueField, 0);
    rec.preload(sentinel + nextField, 0);
    rec.preload(headPtr, sentinel);
    rec.preload(tailPtr, sentinel);

    maxNodes = 1 + static_cast<std::uint64_t>(params.numThreads) *
                       params.opsPerThread;

    std::uint64_t nextValue = 1;
    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            bool push = rng.chance(0.5);
            rec.lockAcquire(t, queueLock);
            rec.regionBegin(t);
            if (push) {
                Addr node = heap.alloc(t, lineBytes);
                rec.compute(t, 30); // allocation bookkeeping
                rec.write(t, node + valueField, nextValue++);
                rec.write(t, node + nextField, 0);
                Addr tail = rec.read(t, tailPtr);
                rec.write(t, tail + nextField, node);
                rec.write(t, tailPtr, node);
            } else {
                Addr head = rec.read(t, headPtr);
                Addr first = rec.read(t, head + nextField);
                if (first != 0) {
                    rec.read(t, first + valueField);
                    rec.write(t, headPtr, first);
                    // The dequeued sentinel slot is garbage; real PM
                    // allocators defer reuse, so we simply drop it.
                }
                rec.compute(t, 10);
            }
            rec.regionEnd(t);
            rec.lockRelease(t, queueLock);
            rec.compute(t, 120); // inter-operation application work
        }
    }
}

std::string
QueueWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    (void)unit; // one unit: the whole structure
    Addr head = read(headPtr);
    Addr tail = read(tailPtr);
    if (head == 0 || tail == 0)
        return "queue pointers are null";

    // Walk from the (sentinel) head; the walk must terminate, reach
    // the tail, and end with a null next pointer. Values must be
    // strictly increasing (FIFO order of a monotonic counter).
    Addr node = head;
    std::uint64_t lastValue = 0;
    bool sawTail = (node == tail);
    for (std::uint64_t steps = 0;; ++steps) {
        if (steps > maxNodes)
            return "queue walk did not terminate (cycle?)";
        Addr next = read(node + nextField);
        if (node == tail)
            sawTail = true;
        if (next == 0)
            break;
        std::uint64_t value = read(next + valueField);
        if (value <= lastValue)
            return "queue values not strictly increasing";
        lastValue = value;
        node = next;
    }
    if (!sawTail)
        return "tail not reachable from head";
    return {};
}

} // namespace strand
