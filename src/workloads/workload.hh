/**
 * @file
 * Workload interface and registry for the benchmarks of Table II.
 *
 * A workload executes functionally against a TraceRecorder (so the
 * data structures really work and undo-log old values are exact),
 * producing a region trace that is lowered per hardware design and
 * language-level persistency model and replayed on the timing model.
 * One recorded trace is reused across every design — the same
 * apples-to-apples methodology the paper uses.
 */

#ifndef WORKLOADS_WORKLOAD_HH
#define WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/heap.hh"
#include "runtime/recorder.hh"

namespace strand
{

/** Workload sizing knobs. */
struct WorkloadParams
{
    unsigned numThreads = 8;
    /** Operations performed per thread. */
    unsigned opsPerThread = 6250; // 50K total on 8 threads
    std::uint64_t seed = 1;
};

/** The benchmarks of Table II. */
enum class WorkloadKind
{
    Queue,
    Hashmap,
    ArraySwap,
    RbTree,
    Tpcc,
    NStoreRdHeavy,
    NStoreBalanced,
    NStoreWrHeavy,
};

/** All workloads in the paper's presentation order. */
inline constexpr WorkloadKind allWorkloads[] = {
    WorkloadKind::Queue,         WorkloadKind::Hashmap,
    WorkloadKind::ArraySwap,     WorkloadKind::RbTree,
    WorkloadKind::Tpcc,          WorkloadKind::NStoreRdHeavy,
    WorkloadKind::NStoreBalanced, WorkloadKind::NStoreWrHeavy,
};

const char *workloadName(WorkloadKind kind);

/**
 * Base class: a workload records its execution, then can validate
 * structural invariants against a (persisted) memory view.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /**
     * Execute functionally and record the trace. Threads' operations
     * are interleaved round-robin; each lock-protected operation
     * executes atomically, which yields a valid sequentially
     * consistent interleaving and a deterministic ticket order.
     */
    virtual void record(TraceRecorder &rec, PersistentHeap &heap,
                        const WorkloadParams &params) = 0;

    /**
     * Check structural invariants (e.g. list integrity, tree
     * balance) against a value reader. Used both on the functional
     * state and on the recovered persisted state.
     * @param read Function returning the 64-bit word at an address.
     * @return empty string if consistent, else the description of
     * the first failing unit (see checkUnit()), in unit order.
     */
    std::string
    checkInvariants(const std::function<std::uint64_t(Addr)> &read) const;

    /**
     * Number of independent invariant units: one per bucket chain
     * for the hashed stores, one for the whole structure elsewhere.
     */
    virtual std::size_t invariantUnits() const { return 1; }

    /**
     * Check one invariant unit. A unit's verdict must be a pure
     * function of the words it reads through @p read (and of the
     * recorded workload): an incremental checker re-checks a unit
     * only when a line it read last time has changed.
     * @return empty string if consistent, else a description.
     */
    virtual std::string
    checkUnit(std::size_t unit,
              const std::function<std::uint64_t(Addr)> &read) const
    {
        (void)unit;
        (void)read;
        return {};
    }
};

/** Instantiate a workload implementation. */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind);

} // namespace strand

#endif // WORKLOADS_WORKLOAD_HH
