/**
 * @file
 * Persistent queue microbenchmark (Table II, from [16, 18]).
 *
 * A singly linked queue with a sentinel head, protected by one
 * global lock — all threads contend on it, which is why the paper
 * observes the lowest write intensity but still large speedups: the
 * CLWBs sit on the critical path of every push/pop.
 */

#ifndef WORKLOADS_QUEUE_HH
#define WORKLOADS_QUEUE_HH

#include "workloads/workload.hh"

namespace strand
{

/** Insert/delete on a persistent linked queue. */
class QueueWorkload : public Workload
{
  public:
    const char *name() const override { return "queue"; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    /** Meta line: head pointer word and tail pointer word. */
    Addr headPtr = 0;
    Addr tailPtr = 0;
    std::uint64_t maxNodes = 0;
};

} // namespace strand

#endif // WORKLOADS_QUEUE_HH
