#include "workloads/nstore.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{

constexpr std::uint32_t bucketLockBase = 2000;
constexpr std::uint64_t buckets = 4096;
constexpr std::uint64_t keys = 16384;
/** Value payload: 6 words (a 64-byte tuple with key + next). */
constexpr unsigned valueWords = 6;

constexpr Addr keyField = 0;
constexpr Addr nextField = 8;
constexpr Addr valueField = 16; // 6 words: 16..63

std::uint64_t
hashKey(std::uint64_t key)
{
    return (key * 11400714819323198485ULL) >> 52; // 4096 buckets
}

} // namespace

Addr
NStoreWorkload::bucketAddr(std::uint64_t b) const
{
    return bucketsBase + b * lineBytes;
}

void
NStoreWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                       const WorkloadParams &params)
{
    Rng rng(params.seed);
    ZipfianGenerator zipf(keys, 0.99);
    numBuckets = buckets;
    keySpace = keys;
    maxNodes = keys + 16;

    bucketsBase = heap.alloc(0, buckets * lineBytes);
    for (std::uint64_t b = 0; b < buckets; ++b)
        rec.preload(bucketAddr(b), 0);

    // Preload the whole key space (the YCSB load phase).
    for (std::uint64_t key = 1; key <= keys; ++key) {
        std::uint64_t b = hashKey(key) % buckets;
        Addr tuple = heap.alloc(0, lineBytes);
        rec.preload(tuple + keyField, key);
        rec.preload(tuple + nextField, rec.peek(bucketAddr(b)));
        for (unsigned w = 0; w < valueWords; ++w)
            rec.preload(tuple + valueField + w * wordBytes, key + w);
        rec.preload(bucketAddr(b), tuple);
    }

    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            std::uint64_t key = 1 + zipf.next(rng);
            std::uint64_t b = hashKey(key) % buckets;
            std::uint32_t lock =
                bucketLockBase + static_cast<std::uint32_t>(b);
            rec.compute(t, 12); // YCSB request handling + hash
            bool isRead = rng.chance(readFraction);

            rec.lockAcquire(t, lock);
            // Index probe (both reads and updates traverse it).
            Addr tuple = rec.read(t, bucketAddr(b));
            while (tuple != 0 &&
                   rec.read(t, tuple + keyField) != key) {
                tuple = rec.read(t, tuple + nextField);
            }

            if (isRead) {
                if (tuple != 0) {
                    for (unsigned w = 0; w < valueWords; ++w)
                        rec.read(t, tuple + valueField + w * wordBytes);
                }
            } else {
                rec.regionBegin(t);
                if (tuple != 0) {
                    // Update the whole tuple payload in place.
                    for (unsigned w = 0; w < valueWords; ++w) {
                        Addr fieldAddr =
                            tuple + valueField + w * wordBytes;
                        rec.write(t, fieldAddr,
                                  rec.peek(fieldAddr) + 1);
                    }
                } else {
                    Addr fresh = heap.alloc(t, lineBytes);
                    rec.compute(t, 30);
                    rec.write(t, fresh + keyField, key);
                    for (unsigned w = 0; w < valueWords; ++w)
                        rec.write(t,
                                  fresh + valueField + w * wordBytes,
                                  key + w);
                    rec.write(t, fresh + nextField,
                              rec.peek(bucketAddr(b)));
                    rec.write(t, bucketAddr(b), fresh);
                }
                rec.regionEnd(t);
            }
            rec.lockRelease(t, lock);
            rec.compute(t, 8);
        }
    }
}

std::string
NStoreWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    // One unit per bucket chain.
    const std::uint64_t b = unit;
    Addr tuple = read(bucketAddr(b));
    std::uint64_t steps = 0;
    while (tuple != 0) {
        if (++steps > maxNodes)
            return "nstore chain does not terminate";
        std::uint64_t key = read(tuple + keyField);
        if (key == 0 || key > keySpace)
            return "nstore key out of range";
        if (hashKey(key) % numBuckets != b)
            return "nstore tuple in wrong bucket";
        // Tuple payload words move in lock step (all updated
        // atomically): w-th word minus w must be constant.
        std::uint64_t base = read(tuple + valueField);
        for (unsigned w = 1; w < valueWords; ++w) {
            std::uint64_t v = read(tuple + valueField + w * wordBytes);
            if (v - w != base)
                return "nstore tuple payload torn";
        }
        tuple = read(tuple + nextField);
    }
    return {};
}

} // namespace strand
