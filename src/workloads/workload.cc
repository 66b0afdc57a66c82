#include "workloads/workload.hh"

#include "workloads/array_swap.hh"
#include "workloads/hashmap.hh"
#include "workloads/nstore.hh"
#include "workloads/queue.hh"
#include "workloads/rbtree.hh"
#include "workloads/tpcc.hh"

namespace strand
{

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Queue:
        return "queue";
      case WorkloadKind::Hashmap:
        return "hashmap";
      case WorkloadKind::ArraySwap:
        return "array-swap";
      case WorkloadKind::RbTree:
        return "rbtree";
      case WorkloadKind::Tpcc:
        return "tpcc";
      case WorkloadKind::NStoreRdHeavy:
        return "nstore-rd";
      case WorkloadKind::NStoreBalanced:
        return "nstore-bal";
      case WorkloadKind::NStoreWrHeavy:
        return "nstore-wr";
    }
    return "?";
}

std::string
Workload::checkInvariants(
    const std::function<std::uint64_t(Addr)> &read) const
{
    for (std::size_t unit = 0; unit < invariantUnits(); ++unit) {
        std::string problem = checkUnit(unit, read);
        if (!problem.empty())
            return problem;
    }
    return {};
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Queue:
        return std::make_unique<QueueWorkload>();
      case WorkloadKind::Hashmap:
        return std::make_unique<HashmapWorkload>();
      case WorkloadKind::ArraySwap:
        return std::make_unique<ArraySwapWorkload>();
      case WorkloadKind::RbTree:
        return std::make_unique<RbTreeWorkload>();
      case WorkloadKind::Tpcc:
        return std::make_unique<TpccWorkload>();
      case WorkloadKind::NStoreRdHeavy:
        return std::make_unique<NStoreWorkload>(0.9, "nstore-rd");
      case WorkloadKind::NStoreBalanced:
        return std::make_unique<NStoreWorkload>(0.5, "nstore-bal");
      case WorkloadKind::NStoreWrHeavy:
        return std::make_unique<NStoreWorkload>(0.1, "nstore-wr");
    }
    panic("unknown workload kind");
}

} // namespace strand
