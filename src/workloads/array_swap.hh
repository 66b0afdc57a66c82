/**
 * @file
 * Array-swap microbenchmark (Table II, from [26, 17]): swap two
 * random 64-byte array elements inside a failure-atomic region under
 * a global lock. The multiset of element values — and hence their
 * sum — is invariant, which makes crash states easy to audit.
 */

#ifndef WORKLOADS_ARRAY_SWAP_HH
#define WORKLOADS_ARRAY_SWAP_HH

#include "workloads/workload.hh"

namespace strand
{

/** Swap of array elements. */
class ArraySwapWorkload : public Workload
{
  public:
    const char *name() const override { return "array-swap"; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    Addr arrayBase = 0;
    std::uint64_t elements = 0;
    std::uint64_t expectedSum = 0;
};

} // namespace strand

#endif // WORKLOADS_ARRAY_SWAP_HH
