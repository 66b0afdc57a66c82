/**
 * @file
 * The core timing model.
 *
 * Approximates the evaluated out-of-order core (Table I: 2 GHz,
 * 6-wide dispatch, 8-wide commit, 224-entry ROB, 72/64-entry
 * load/store queues) at the level the persistency mechanisms
 * exercise: bounded queues, in-order commit, TSO store drain, and a
 * persist engine that cross-gates store issue. Register renaming and
 * branch prediction are not modeled — replayed traces have no
 * control or data misspeculation — so dispatch stalls only on
 * structural back-pressure, which is exactly the effect the paper
 * measures (Figure 8).
 *
 * Stall accounting distinguishes persist-induced stalls (persist
 * queue full, or store queue full while its head is gated by the
 * persist engine) from cache-induced and lock-induced stalls.
 */

#ifndef CPU_CORE_HH
#define CPU_CORE_HH

#include <deque>
#include <memory>
#include <set>

#include "cache/hierarchy.hh"
#include "cpu/lock_table.hh"
#include "cpu/op.hh"
#include "mem/port.hh"
#include "persist/persist_engine.hh"
#include "sim/sim_object.hh"

namespace strand
{

/** Core configuration (Table I defaults). */
struct CoreParams
{
    Tick clockPeriod = 500; ///< 2 GHz.
    unsigned dispatchWidth = 6;
    unsigned commitWidth = 8;
    unsigned robEntries = 224;
    unsigned lqEntries = 72;
    unsigned sqEntries = 64;
    /** Cycles charged for acquiring / releasing a lock. */
    unsigned lockAcquireCycles = 40;
    unsigned lockReleaseCycles = 10;
};

/** Why dispatch could not proceed in a given cycle. */
enum class StallCause : unsigned
{
    None = 0,
    RobFull,
    LqFull,
    SqFullPersist, ///< SQ full, head gated by the persist engine.
    SqFullMemory,  ///< SQ full, head waiting on the cache.
    PersistQueueFull,
    Lock,
    /** Nothing dispatchable; waiting for in-flight completions. */
    Idle,
    NumCauses,
};

/**
 * One simulated core executing a fixed operation stream.
 */
class Core : public ClockedObject
{
  public:
    Core(std::string name, EventQueue &eq, CoreId id, Hierarchy &hier,
         std::unique_ptr<PersistEngine> engine, LockTable &locks,
         const CoreParams &params,
         stats::StatGroup *parent = nullptr);

    /** Supply the stream to execute; resets progress. */
    void setStream(OpStream stream);

    /** Begin self-scheduled execution. */
    void start();

    /**
     * Re-arm the clock if the core went to sleep after a cycle with
     * no progress. Invoked by completion callbacks, the persist
     * engine, the lock table, and the cache hierarchy.
     */
    void wake();

    /** @return true once the whole stream has drained. */
    bool finished() const { return isFinished; }

    /** Invoked once when the core finishes. */
    void setFinishedCallback(std::function<void()> cb)
    {
        finishedCallback = std::move(cb);
    }

    CoreId id() const { return coreId; }
    PersistEngine &persistEngine() { return *engine; }

    /** Attach the system's observer hub (dispatch events). */
    void setObserverHub(ObserverHub *hub) { obsHub = hub; }

    /** Total persist-induced stall cycles (Figure 8 metric). */
    double persistStallCycles() const;

    /**
     * Capture / restore the pipeline (op-stream cursor, ROB, store
     * and load queues, pending releases, sleep state) and recurse
     * into the persist engine. The op stream itself is fixed input
     * and is not captured; restore targets the same loaded system.
     */
    void saveState(SimSnapshot &snap) const override;
    void restoreState(const SimSnapshot &snap) override;

    /** @name Statistics @{ */
    stats::Scalar numCycles;
    stats::Scalar opsDispatched;
    stats::Scalar opsCommitted;
    stats::Scalar storesIssued;
    stats::Scalar loadsIssued;
    stats::Vector stallCycles;
    stats::Histogram sqOccupancy;
    /** @} */

  private:
    struct RobEntry
    {
        SeqNum seq;
        bool done;
    };

    struct SqEntry
    {
        SeqNum seq = 0;
        Addr addr = 0;
        std::uint64_t value = 0;
        /** Accepted by the L1 (the hierarchy Acked the request). */
        bool issued = false;
        bool completed = false;
        /** In the mail, awaiting the hierarchy's Ack/Nack decision. */
        bool sent = false;
    };

    struct LqEntry
    {
        SeqNum seq = 0;
        Addr addr = 0;
        bool issued = false;
        bool completed = false;
    };

    void tick();
    /** Route one port response (load/store Ack/Nack/Done). */
    void onMemResponse(const MemResponse &resp);
    void dispatchOps();
    /** Free completed store-queue slots (in order; in the shared
     * NO-PERSIST-QUEUE design a slot waits for older persist ops). */
    void drainStoreQueue();
    void issueStores();
    void issueLoads();
    void commitOps();
    void markRobDone(SeqNum seq);
    void recordStall(StallCause cause);

    /** @return seq of the youngest incomplete elder store to the
     * same line, or 0. */
    SeqNum elderStoreTo(Addr addr) const;

    /** Attempt to dispatch the op at the stream head.
     * @return true on success; sets stallReason otherwise. */
    bool dispatchOne(const Op &op);

    /**
     * Publish a primitive-dispatched event for @p op (just
     * dispatched as @p seq). Only successful dispatches are
     * announced — a stalled op retries next cycle and must not be
     * observed twice. CLWBs and any op carrying ordering intents are
     * interesting; plain data ops are not.
     */
    void notifyDispatch(const Op &op, SeqNum seq);

    CoreId coreId;
    Hierarchy &hier;
    std::unique_ptr<PersistEngine> engine;
    LockTable &locks;
    CoreParams params;

    /** Mailbox to the hierarchy; all loads and stores travel here. */
    MemPort port;
    /**
     * A store request is in the mail and its Ack/Nack has not come
     * back. At most one store awaits its admission decision at a
     * time, so acceptance stays in program order (a Nacked elder
     * store can never be overtaken by a younger one).
     */
    bool storeDecisionPending = false;

    OpStream stream;
    std::size_t pc = 0;
    SeqNum nextSeq = 1;

    std::deque<RobEntry> rob;
    std::deque<SqEntry> storeQueue;
    std::deque<LqEntry> loadQueue;

    /** Seqs of stores dispatched but not yet issued / completed. */
    std::set<SeqNum> unissuedStores;
    std::set<SeqNum> incompleteStores;

    /**
     * Releases that have retired from the pipeline but whose lock
     * handoff waits for prior stores to drain and for any preceding
     * drain primitive to complete (release-store semantics).
     */
    struct PendingRelease
    {
        std::uint32_t lockId;
        SeqNum seq;
    };
    std::deque<PendingRelease> pendingReleases;

    /** Volatile machine state captured by saveState(). */
    struct Snapshot
    {
        std::size_t pc = 0;
        SeqNum nextSeq = 1;
        std::deque<RobEntry> rob;
        std::deque<SqEntry> storeQueue;
        std::deque<LqEntry> loadQueue;
        std::set<SeqNum> unissuedStores;
        std::set<SeqNum> incompleteStores;
        std::deque<PendingRelease> pendingReleases;
        bool storeDecisionPending = false;
        Tick computeBusyUntil = 0;
        StallCause stallReason = StallCause::None;
        bool isFinished = false;
        bool started = false;
        bool sleeping = false;
        Tick sleptSince = 0;
        StallCause sleepCause = StallCause::Idle;
        std::uint64_t workDone = 0;
    };

    /** Perform any pending releases whose ordering has resolved. */
    void serviceReleases();

    /** Dispatch is busy executing serial application work. */
    Tick computeBusyUntil = 0;

    /** The single per-cycle evaluation event, re-armed in place. */
    EventQueue::Recurring tickEvent;

    StallCause stallReason = StallCause::None;
    bool isFinished = false;
    bool started = false;
    /** True while no tick event is scheduled (idle core). */
    bool sleeping = false;
    /** Tick at which the core went to sleep (0 = not sleeping). */
    Tick sleptSince = 0;
    /** Stall cause attributed to the current sleep period. */
    StallCause sleepCause = StallCause::Idle;
    /** Bumped by completion callbacks; progress marker. */
    std::uint64_t workDone = 0;
    std::function<void()> finishedCallback;
    ObserverHub *obsHub = nullptr;
};

} // namespace strand

#endif // CPU_CORE_HH
