/**
 * @file
 * Persistent hashmap microbenchmark (Table II, from [26, 17]):
 * chained buckets with per-bucket locks; reads and updates in a
 * configurable mix.
 */

#ifndef WORKLOADS_HASHMAP_HH
#define WORKLOADS_HASHMAP_HH

#include "workloads/workload.hh"

namespace strand
{

/** Read/update on a persistent chained hashmap. */
class HashmapWorkload : public Workload
{
  public:
    const char *name() const override { return "hashmap"; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    /** One unit per bucket chain. */
    std::size_t invariantUnits() const override { return numBuckets; }

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    Addr bucketAddr(std::uint64_t b) const;

    Addr bucketsBase = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t keySpace = 0;
    std::uint64_t maxNodes = 0;
};

} // namespace strand

#endif // WORKLOADS_HASHMAP_HH
