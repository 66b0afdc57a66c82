#include "workloads/tpcc.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{

constexpr std::uint32_t districtLockBase = 100;
constexpr std::uint32_t stockLockBase = 200;
constexpr unsigned numDistricts = 10;
constexpr unsigned numItems = 4096;
constexpr unsigned stockPartitions = 64;

// District row fields.
constexpr Addr dNextOid = 0;
constexpr Addr dYtd = 8;

// Item row fields.
constexpr Addr iPrice = 0;

// Stock row fields.
constexpr Addr sQuantity = 0;
constexpr Addr sYtd = 8;
constexpr Addr sOrderCount = 16;

// Order record fields (one line) followed by up to 15 order lines.
constexpr Addr oId = 0;
constexpr Addr oCustomer = 8;
constexpr Addr oLineCount = 16;
constexpr Addr olItem = 0;
constexpr Addr olQuantity = 8;
constexpr Addr olAmount = 16;

} // namespace

void
TpccWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                     const WorkloadParams &params)
{
    Rng rng(params.seed);

    districtBase = heap.alloc(0, numDistricts * lineBytes);
    itemBase = heap.alloc(0, numItems * lineBytes);
    stockBase = heap.alloc(0, numItems * lineBytes);
    ordersPerDistrict =
        1 + static_cast<std::uint64_t>(params.numThreads) *
                params.opsPerThread;
    orderDirBase =
        heap.alloc(0, numDistricts * ordersPerDistrict * wordBytes);

    for (unsigned d = 0; d < numDistricts; ++d) {
        rec.preload(districtBase + d * lineBytes + dNextOid, 1);
        rec.preload(districtBase + d * lineBytes + dYtd, 0);
    }
    for (unsigned i = 0; i < numItems; ++i) {
        rec.preload(itemBase + i * lineBytes + iPrice, 100 + i % 900);
        rec.preload(stockBase + i * lineBytes + sQuantity, 10000);
        rec.preload(stockBase + i * lineBytes + sYtd, 0);
        rec.preload(stockBase + i * lineBytes + sOrderCount, 0);
    }

    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            unsigned d = rng.nextBounded(numDistricts);
            unsigned lines = 5 + rng.nextBounded(11); // 5..15
            std::uint32_t dLock =
                districtLockBase + static_cast<std::uint32_t>(d);

            // Choose distinct stock partitions up front and lock in
            // ascending order (the classic deadlock-free discipline).
            std::vector<unsigned> items;
            std::vector<std::uint32_t> partitions;
            for (unsigned l = 0; l < lines; ++l)
                items.push_back(rng.nextBounded(numItems));
            for (unsigned item : items) {
                std::uint32_t p = stockLockBase + item % stockPartitions;
                bool dup = false;
                for (std::uint32_t existing : partitions)
                    dup |= existing == p;
                if (!dup)
                    partitions.push_back(p);
            }
            std::sort(partitions.begin(), partitions.end());

            // The paper attributes TPCC's low speedup to the high
            // lock-acquisition overhead per failure-atomic region:
            // every acquired lock pays lock-manager work inside the
            // transaction.
            rec.lockAcquire(t, dLock);
            rec.compute(t, 180);
            for (std::uint32_t p : partitions) {
                rec.lockAcquire(t, p);
                rec.compute(t, 180);
            }

            rec.regionBegin(t);
            rec.compute(t, 220); // txn setup, customer/warehouse reads

            // District: allocate the order id.
            Addr dRow = districtBase + d * lineBytes;
            std::uint64_t orderId = rec.read(t, dRow + dNextOid);
            rec.write(t, dRow + dNextOid, orderId + 1);

            // Order record plus order lines.
            Addr order =
                heap.alloc(t, (1 + lines) * lineBytes);
            rec.write(t, order + oId, orderId);
            rec.write(t, order + oCustomer, 1 + rng.nextBounded(3000));
            rec.write(t, order + oLineCount, lines);

            std::uint64_t total = 0;
            for (unsigned l = 0; l < lines; ++l) {
                unsigned item = items[l];
                std::uint64_t price =
                    rec.read(t, itemBase + item * lineBytes + iPrice);
                Addr sRow = stockBase + item * lineBytes;
                std::uint64_t qty = rec.read(t, sRow + sQuantity);
                std::uint64_t take = 1 + rng.nextBounded(10);
                rec.compute(t, 60);
                rec.write(t, sRow + sQuantity,
                          qty > take ? qty - take : qty + 91 - take);
                rec.write(t, sRow + sYtd,
                          rec.peek(sRow + sYtd) + take);
                rec.write(t, sRow + sOrderCount,
                          rec.peek(sRow + sOrderCount) + 1);

                Addr ol = order + (1 + l) * lineBytes;
                rec.write(t, ol + olItem, item);
                rec.write(t, ol + olQuantity, take);
                rec.write(t, ol + olAmount, price * take);
                total += price * take;
            }

            // District year-to-date revenue and the order directory.
            rec.write(t, dRow + dYtd, rec.peek(dRow + dYtd) + total);
            rec.write(t,
                      orderDirBase +
                          (d * ordersPerDistrict + orderId) * wordBytes,
                      order);

            rec.regionEnd(t);
            for (auto it = partitions.rbegin(); it != partitions.rend();
                 ++it)
                rec.lockRelease(t, *it);
            rec.lockRelease(t, dLock);
            rec.compute(t, 250);
        }
    }
}

std::string
TpccWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    (void)unit; // one unit: the whole structure
    for (unsigned d = 0; d < numDistricts; ++d) {
        Addr dRow = districtBase + d * lineBytes;
        std::uint64_t nextOid = read(dRow + dNextOid);
        if (nextOid == 0)
            return "district next order id lost";
        // Every allocated order id below next_o_id must have a
        // complete, consistent order record.
        for (std::uint64_t o = 1; o < nextOid; ++o) {
            Addr order = read(orderDirBase +
                              (d * ordersPerDistrict + o) * wordBytes);
            if (order == 0)
                return "order id allocated but order record missing";
            if (read(order + oId) != o)
                return "order record id mismatch";
            std::uint64_t lines = read(order + oLineCount);
            if (lines < 5 || lines > 15)
                return "order line count out of range";
            std::uint64_t sum = 0;
            for (std::uint64_t l = 0; l < lines; ++l) {
                Addr ol = order + (1 + l) * lineBytes;
                std::uint64_t qty = read(ol + olQuantity);
                if (qty == 0 || qty > 10)
                    return "order line quantity out of range";
                sum += read(ol + olAmount);
            }
            if (sum == 0)
                return "order total is zero";
        }
    }
    return {};
}

} // namespace strand
