#include "workloads/hashmap.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{
constexpr std::uint32_t bucketLockBase = 1000;
constexpr std::uint64_t buckets = 1024;
constexpr std::uint64_t keys = 4096;
constexpr Addr keyField = 0;
constexpr Addr valueField = 8;
constexpr Addr nextField = 16;

std::uint64_t
hashKey(std::uint64_t key)
{
    // Fibonacci hashing; cheap and well-spread.
    return (key * 11400714819323198485ULL) >> 54; // 1024 buckets
}
} // namespace

Addr
HashmapWorkload::bucketAddr(std::uint64_t b) const
{
    return bucketsBase + b * lineBytes;
}

void
HashmapWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                        const WorkloadParams &params)
{
    Rng rng(params.seed);
    numBuckets = buckets;
    keySpace = keys;
    bucketsBase = heap.alloc(0, buckets * lineBytes);
    for (std::uint64_t b = 0; b < buckets; ++b)
        rec.preload(bucketAddr(b), 0);

    // Preload half the key space.
    for (std::uint64_t key = 1; key <= keys; key += 2) {
        std::uint64_t b = hashKey(key) % buckets;
        Addr node = heap.alloc(0, lineBytes);
        rec.preload(node + keyField, key);
        rec.preload(node + valueField, key * 10);
        rec.preload(node + nextField, rec.peek(bucketAddr(b)));
        rec.preload(bucketAddr(b), node);
    }
    maxNodes = keys + 16;

    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            std::uint64_t key = 1 + rng.nextBounded(keys);
            std::uint64_t b = hashKey(key) % buckets;
            std::uint32_t lock =
                bucketLockBase + static_cast<std::uint32_t>(b);
            rec.compute(t, 15); // hashing
            bool update = rng.chance(0.5);

            rec.lockAcquire(t, lock);
            if (!update) {
                // Lookup: chain walk, no region needed.
                Addr node = rec.read(t, bucketAddr(b));
                while (node != 0) {
                    if (rec.read(t, node + keyField) == key) {
                        rec.read(t, node + valueField);
                        break;
                    }
                    node = rec.read(t, node + nextField);
                }
            } else {
                rec.regionBegin(t);
                Addr node = rec.read(t, bucketAddr(b));
                Addr found = 0;
                while (node != 0) {
                    if (rec.read(t, node + keyField) == key) {
                        found = node;
                        break;
                    }
                    node = rec.read(t, node + nextField);
                }
                if (found != 0) {
                    rec.write(t, found + valueField,
                              rec.peek(found + valueField) + 1);
                } else {
                    Addr fresh = heap.alloc(t, lineBytes);
                    rec.compute(t, 30);
                    rec.write(t, fresh + keyField, key);
                    rec.write(t, fresh + valueField, key * 10);
                    rec.write(t, fresh + nextField,
                              rec.peek(bucketAddr(b)));
                    rec.write(t, bucketAddr(b), fresh);
                }
                rec.regionEnd(t);
            }
            rec.lockRelease(t, lock);
            rec.compute(t, 60);
        }
    }
}

std::string
HashmapWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    // One unit per bucket chain.
    const std::uint64_t b = unit;
    Addr node = read(bucketAddr(b));
    std::uint64_t steps = 0;
    while (node != 0) {
        if (++steps > maxNodes)
            return "hashmap chain does not terminate";
        std::uint64_t key = read(node + keyField);
        if (key == 0 || key > keySpace)
            return "hashmap key out of range";
        if (hashKey(key) % numBuckets != b)
            return "hashmap node in wrong bucket";
        if (read(node + valueField) == 0)
            return "hashmap value missing";
        node = read(node + nextField);
    }
    return {};
}

} // namespace strand
