/**
 * @file
 * Persistent red-black tree microbenchmark (Table II, from [26,
 * 18]): full CLRS insert/delete with rebalancing, every node access
 * through the recorder so the trace reflects real pointer chasing
 * and every mutation is undo-logged.
 */

#ifndef WORKLOADS_RBTREE_HH
#define WORKLOADS_RBTREE_HH

#include "workloads/workload.hh"

namespace strand
{

/** Insert/delete on a persistent red-black tree. */
class RbTreeWorkload : public Workload
{
  public:
    const char *name() const override { return "rbtree"; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    Addr rootPtr = 0;
    std::uint64_t keySpace = 0;
    std::uint64_t maxNodes = 0;
};

} // namespace strand

#endif // WORKLOADS_RBTREE_HH
