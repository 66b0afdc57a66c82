/**
 * @file
 * The coherent cache hierarchy: per-core L1 data caches, a shared
 * inclusive L2, MESI snooping between the L1s, MSHRs, write-back
 * buffers with persist interlocks, and routing to the PM and DRAM
 * controllers.
 *
 * Geometry and latencies default to Table I of the paper: 32 KiB
 * 2-way L1 (2 ns hit, 6 MSHRs), 28 MiB 16-way shared L2 (16 ns hit,
 * 16 MSHRs).
 *
 * The hierarchy is tag-only: functional data lives in the global
 * MemoryImage; a line's content is snapshotted from the image at the
 * moment it departs toward a memory controller (CLWB flush or dirty
 * eviction), which matches the content of the unique dirty copy.
 *
 * Persistency hooks (§IV of the paper):
 *  - Departing dirty L1 lines record a drain point in the owning
 *    core's persist engine and wait for it in the write-back buffer.
 *  - Read-exclusive snoops that hit a dirty remote L1 line stall
 *    until that core's persist engine drains past the point recorded
 *    when the snoop arrived.
 */

#ifndef CACHE_HIERARCHY_HH
#define CACHE_HIERARCHY_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/writeback_buffer.hh"
#include "core/observer.hh"
#include "mem/mem_controller.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"

namespace strand
{

class DrainAdversary;

/** Cache hierarchy parameters (Table I defaults). */
struct HierarchyParams
{
    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Ways = 2;
    unsigned l1Mshrs = 6;
    Tick l1Latency = nsToTicks(2);

    std::uint64_t l2Size = 28 * 1024 * 1024;
    unsigned l2Ways = 16;
    unsigned l2Mshrs = 16;
    Tick l2Latency = nsToTicks(16);

    /** Snoop/arbitration overhead for bus transactions. */
    Tick snoopLatency = nsToTicks(4);

    unsigned writebackEntries = 8;
    /** Pending dirty L2 evictions allowed before fills stall. */
    unsigned l2EvictEntries = 16;
    /**
     * Enable the §IV persist interlocks (write-back drain points and
     * read-exclusive snoop stalls). Disabling them is an ablation:
     * faster coherence, but inter-thread persist order (Fig. 2 i,j)
     * is no longer guaranteed.
     */
    bool persistInterlocks = true;
    /**
     * Fuzzing hook (non-owning): when set, the write-back drain path
     * consults the adversary before draining an eligible entry, so a
     * fuzz trial can delay write-backs within what the interlocks
     * already permit. Null leaves the drain path untouched.
     */
    DrainAdversary *adversary = nullptr;
};

/**
 * The complete coherent cache subsystem for one simulated machine.
 *
 * CPU-side access is exclusively through MemPorts: cores and persist
 * engines mail Load/Store/Flush/Kick requests and receive
 * Ack/Nack/FlushStarted/Done responses one port leg later. The
 * hierarchy in turn owns one port per memory controller for its own
 * fills and persists, so every admission decision in the machine is
 * an explicit asynchronous response, never a same-tick return value.
 */
class Hierarchy : public SimObject, public MemResponder
{
  public:
    /**
     * Re-arms when a persist engine makes progress; evaluated lazily
     * by blocked write-backs and snoops. An empty function means no
     * constraint.
     */
    using Clearance = std::function<bool()>;

    /**
     * Per-core recorder installed by the persist engine: invoked when
     * a dirty line departs or is stolen, it captures the current
     * strand-buffer tail indices and returns the clearance predicate.
     */
    using DrainPointRecorder = std::function<Clearance()>;

    Hierarchy(std::string name, EventQueue &eq, MemoryImage &image,
              unsigned numCores, const HierarchyParams &params,
              MemController &pmCtrl, MemController &dramCtrl,
              stats::StatGroup *parent = nullptr);

    /** Install the persist-interlock recorder for @p core. */
    void
    setDrainPointRecorder(CoreId core, DrainPointRecorder recorder)
    {
        cores.at(core).recorder = std::move(recorder);
    }

    /** Attach the system's observer hub (VMO conflict edges). */
    void setObserverHub(ObserverHub *hub) { obsHub = hub; }

    /**
     * Install the lines covering [start, end) into the L2 as clean
     * copies. Models steady-state cache residency of long-lived
     * structures (log buffers, preloaded tables) without simulating
     * a warm-up phase.
     */
    void prewarmL2(Addr start, Addr end);

    /**
     * Service one mailed request, from its own delivery event:
     *  - Load: Nack if no MSHR is available (requester retries);
     *    otherwise Done(token) when data is available.
     *  - Store: Nack if no MSHR (retry), else Ack(token) at
     *    admission and Done(token) when the store is written into
     *    the (exclusively owned) L1 line; the architectural image is
     *    updated at that point.
     *  - Flush: always absorbed (internal queuing hides controller
     *    back-pressure); FlushStarted(token) when the cache read
     *    happens, then Done(token, wrotePm) — wrotePm true at the
     *    ADR ack of a dirty line, false after a clean lookup.
     *  - Kick: response-less doorbell; re-evaluates parked work.
     */
    void handleRequest(MemPort &port, const MemRequest &req) override;

    /**
     * Re-evaluate parked work (blocked write-backs, stalled snoops,
     * deferred fills). Persist engines call this when their buffers
     * drain; controllers call it when queue space frees.
     */
    void kick();

    /** @return true when no transactions are in flight. */
    bool
    idle() const
    {
        return activeTransactions == 0 && parked.empty() &&
               pendingL2Evicts.empty() && writebacksPending() == 0;
    }

    /**
     * Capture / restore the tag arrays, write-back buffers, MSHRs,
     * parked transactions, and in-flight packet queues. The captured
     * closures (MSHR waiters, clearances, parked attempts) reference
     * only `this` and immutable values, so restore targets the same
     * component graph the capture was taken from.
     */
    void saveState(SimSnapshot &snap) const override;
    void restoreState(const SimSnapshot &snap) override;

    /** @name Introspection for tests @{ */
    CoherenceState l1State(CoreId core, Addr addr) const;
    bool l1Dirty(CoreId core, Addr addr) const;
    CoherenceState l2State(Addr addr) const;
    bool l2Dirty(Addr addr) const;
    std::size_t writebacksPending() const;
    /** @} */

    /** @name Statistics @{ */
    stats::Scalar loadHits;
    stats::Scalar loadMisses;
    stats::Scalar storeHits;
    stats::Scalar storeMisses;
    stats::Scalar upgrades;
    stats::Scalar cacheToCache;
    stats::Scalar l1Writebacks;
    stats::Scalar l2Evictions;
    stats::Scalar flushesDirty;
    stats::Scalar flushesClean;
    stats::Scalar snoopStalls;
    stats::Scalar writebackStalls;
    /** @} */

  private:
    /** A coherence transaction parked on a busy resource. */
    struct Parked
    {
        std::function<bool()> attempt; ///< true = made progress, unpark
    };

    struct L1
    {
        explicit L1(const HierarchyParams &p)
            : array(p.l1Size, p.l1Ways), writebacks(p.writebackEntries)
        {
        }

        CacheArray array;
        WritebackBuffer writebacks;
        DrainPointRecorder recorder;
        /** Adversarial hold on the write-back drain (fuzzing). */
        Tick wbHeldUntil = 0;
        /** Outstanding misses keyed by line address. */
        struct Mshr
        {
            bool exclusive = false;
            std::vector<std::function<void()>> waiters;
        };
        std::unordered_map<Addr, Mshr> mshrs;
        unsigned mshrLimit = 0;
    };

    /** @name Port request servicing (one per MemRequestKind) @{ */

    /** @return false if no MSHR is available (the caller Nacks). */
    bool startLoad(CoreId core, Addr addr, std::function<void()> onDone);

    /** @return false if no MSHR is available (the caller Nacks). */
    bool startStore(CoreId core, Addr addr, std::uint64_t value,
                    std::function<void()> onDone);

    /** Always accepted; see handleRequest() for the response shape. */
    void startFlush(CoreId core, Addr addr,
                    std::function<void(bool)> onDone,
                    std::function<void()> onStarted);

    /** @} */

    /** Begin a miss transaction; assumes MSHR already allocated. */
    void startMiss(CoreId core, Addr lineAddr, bool exclusive);

    /** Snoop remote L1s and the L2, fill, and complete the MSHR. */
    void serviceMiss(CoreId core, Addr lineAddr, bool exclusive);

    /** Complete an MSHR: install the line and run waiters. */
    void finishFill(CoreId core, Addr lineAddr, bool exclusive,
                    CoherenceState fillState);

    /** Install @p lineAddr into @p core's L1, evicting as needed.
     * @return false if the eviction is blocked (write-back full). */
    bool installLine(CoreId core, Addr lineAddr,
                     CoherenceState state);

    /** Move a dirty departing L1 line into its write-back buffer. */
    void pushWriteback(CoreId core, Addr lineAddr);

    /** Ensure the line exists in L2 (inclusive fill from memory). */
    bool installLineL2(Addr lineAddr);

    /** Evict a dirty L2 line toward the right controller. */
    void queueL2Evict(Addr lineAddr, Clearance clearance = {});

    /** Try to send pending L2 evictions to the controllers. */
    void drainL2Evicts();

    /** Drain eligible write-backs from every L1 into the L2. */
    void drainWritebacks();

    /** Record a drain point with @p core's persist engine. */
    Clearance recordDrainPoint(CoreId core);

    /** The port toward the controller that owns @p addr. */
    MemPort &portFor(Addr addr);

    /** Mail @p pkt to its controller as a Packet request. */
    void sendToController(PacketPtr pkt);

    /** Route a controller Ack/Nack by the packet it carries. */
    void onControllerResponse(const MemResponse &resp);

    void park(std::function<bool()> attempt);
    void scheduleKick();

    MemoryImage &image;
    HierarchyParams params;
    MemController &pmCtrl;
    MemController &dramCtrl;

    /** Mailboxes toward the two memory controllers. */
    MemPort pmPort;
    MemPort dramPort;

    std::vector<L1> cores;
    CacheArray l2;
    unsigned l2MissesInFlight = 0;

    /** Lines with an active coherence transaction. */
    std::unordered_set<Addr> busyLines;

    /** Send one line's PM writes in snapshot order even across
     * controller back-pressure retries (strong persist atomicity:
     * a stale snapshot must never overwrite a fresher one). */
    void sendLineWrite(Addr lineAddr, PacketPtr pkt);
    void drainLineWrites(Addr lineAddr);
    /** Pump every line queue; kick() calls this on controller retry. */
    void drainAllLineWrites();

    /**
     * Per-line FIFO of flush writes awaiting controller admission.
     * At most one write per line is in the mail at a time (inFlight);
     * the next departs when its predecessor's Ack returns, a Nack
     * leaves the head queued for the next kick.
     */
    struct LineSendQueue
    {
        std::deque<PacketPtr> queue;
        bool inFlight = false;
    };
    std::unordered_map<Addr, LineSendQueue> lineSendQueues;

    struct PendingEvict
    {
        Addr lineAddr;
        LineData data;
        /** Persist interlock; empty means unconstrained. */
        Clearance clearance;
    };
    std::deque<PendingEvict> pendingL2Evicts;
    /** Head of pendingL2Evicts is in the mail, awaiting Ack/Nack. */
    bool evictInFlight = false;

    /** Volatile machine state captured by saveState(). */
    struct L1State
    {
        CacheArray::State array;
        std::deque<WritebackBuffer::Entry> writebacks;
        std::unordered_map<Addr, L1::Mshr> mshrs;
        Tick wbHeldUntil = 0;
    };
    struct Snapshot
    {
        std::vector<L1State> cores;
        CacheArray::State l2;
        unsigned l2MissesInFlight = 0;
        std::unordered_set<Addr> busyLines;
        std::unordered_map<Addr, LineSendQueue> lineSendQueues;
        std::deque<PendingEvict> pendingL2Evicts;
        bool evictInFlight = false;
        std::deque<Parked> parked;
        unsigned activeTransactions = 0;
        std::uint64_t nextPacketId = 1;
    };

    std::deque<Parked> parked;
    ObserverHub *obsHub = nullptr;
    /** Retry/drain pump; armed at most once per tick. */
    EventQueue::Recurring kickEvent;
    /** Prebuilt adversary-hold retry; built once, borrowed per query. */
    EventQueue::Callback retryKick;
    unsigned activeTransactions = 0;
    std::uint64_t nextPacketId = 1;
};

} // namespace strand

#endif // CACHE_HIERARCHY_HH
