/**
 * @file
 * N-Store key-value workload (Table II, from [60]): a persistent
 * hash-indexed KV store driven by a YCSB-style zipfian load at three
 * read/write mixes (90/10, 50/50, 10/90). Values span several words,
 * so updates produce multiple undo-logged stores per operation —
 * this is the paper's most write-intensive benchmark at the 10/90
 * mix.
 */

#ifndef WORKLOADS_NSTORE_HH
#define WORKLOADS_NSTORE_HH

#include "workloads/workload.hh"

namespace strand
{

/** N-Store with a configurable read fraction. */
class NStoreWorkload : public Workload
{
  public:
    /**
     * @param readFraction Fraction of operations that are reads.
     * @param mixName Static display name for the mix.
     */
    NStoreWorkload(double readFraction, const char *mixName)
        : readFraction(readFraction), mixName(mixName)
    {
    }

    const char *name() const override { return mixName; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    /** One unit per bucket chain. */
    std::size_t invariantUnits() const override { return numBuckets; }

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    Addr bucketAddr(std::uint64_t b) const;

    double readFraction;
    const char *mixName;
    Addr bucketsBase = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t keySpace = 0;
    std::uint64_t maxNodes = 0;
};

} // namespace strand

#endif // WORKLOADS_NSTORE_HH
