/**
 * @file
 * TPC-C New-Order benchmark (Table II, from [61, 17]): the order
 * processing transaction against persistent district, item, stock,
 * order, and order-line tables. Each transaction takes a district
 * lock plus one lock per touched stock partition — the
 * multiple-locks-per-region behaviour the paper calls out as the
 * reason TPCC sees the smallest speedup.
 */

#ifndef WORKLOADS_TPCC_HH
#define WORKLOADS_TPCC_HH

#include "workloads/workload.hh"

namespace strand
{

/** New-Order transactions from TPC-C. */
class TpccWorkload : public Workload
{
  public:
    const char *name() const override { return "tpcc"; }

    void record(TraceRecorder &rec, PersistentHeap &heap,
                const WorkloadParams &params) override;

    std::string checkUnit(
        std::size_t unit,
        const std::function<std::uint64_t(Addr)> &read) const override;

  private:
    Addr districtBase = 0;
    Addr itemBase = 0;
    Addr stockBase = 0;
    /** Per-district array of order-record pointers. */
    Addr orderDirBase = 0;
    std::uint64_t ordersPerDistrict = 0;
};

} // namespace strand

#endif // WORKLOADS_TPCC_HH
