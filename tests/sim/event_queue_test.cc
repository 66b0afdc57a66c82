/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * cancellation, time-limited execution, inline callback storage and
 * the allocation-free port round trip.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/port.hh"
#include "sim/event_queue.hh"

namespace
{

/** Every global operator new in this binary bumps this counter. */
std::atomic<std::uint64_t> heapAllocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with
// an inlined operator new at a call site and warn about a mismatch.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace strand
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.serviceOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(2); }, EventPriority::CpuTick);
    eq.schedule(50, [&] { order.push_back(0); },
                EventPriority::MemoryResponse);
    eq.schedule(50, [&] { order.push_back(3); }, EventPriority::CpuTick);
    eq.schedule(50, [&] { order.push_back(1); },
                EventPriority::MemoryResponse);
    eq.schedule(50, [&] { order.push_back(4); }, EventPriority::Stat);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(25, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    auto handle = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(handle.scheduled());
    eq.deschedule(handle);
    EXPECT_FALSE(handle.scheduled());
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    int count = 0;
    auto keep = eq.schedule(10, [&] { ++count; });
    auto cancel = eq.schedule(20, [&] { ++count; });
    eq.deschedule(cancel);
    eq.deschedule(cancel);
    eq.run();
    EXPECT_EQ(count, 1);
    EXPECT_FALSE(keep.scheduled());
}

TEST(EventQueue, EventsScheduledFromCallbacksRun)
{
    EventQueue eq;
    std::vector<Tick> fires;
    // A self-rescheduling event, the pattern used by clocked
    // components.
    std::function<void()> tick = [&] {
        fires.push_back(eq.curTick());
        if (fires.size() < 5)
            eq.scheduleIn(500, tick);
    };
    eq.schedule(0, tick);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{0, 500, 1000, 1500, 2000}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.schedule(300, [&] { order.push_back(3); });
    eq.runUntil(200);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(12345);
    EXPECT_EQ(eq.curTick(), 12345u);
}

TEST(EventQueue, PendingAndServicedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(10 * (i + 1), [] {});
    EXPECT_EQ(eq.pending(), 10u);
    eq.serviceOne();
    eq.serviceOne();
    EXPECT_EQ(eq.pending(), 8u);
    EXPECT_EQ(eq.serviced(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.serviced(), 10u);
}

TEST(EventQueue, RecurringMatchesOneShotOrdering)
{
    // The same clocked pattern expressed twice — as a Recurring
    // rescheduling itself in place and as chained one-shots — must
    // interleave identically with competing same-tick events.
    auto runPattern = [](bool recurring) {
        EventQueue eq;
        std::vector<int> order;
        for (Tick t = 0; t < 5; ++t) {
            eq.schedule(t * 100, [&order] { order.push_back(-1); },
                        EventPriority::MemoryResponse);
            eq.schedule(t * 100, [&order] { order.push_back(+1); },
                        EventPriority::Stat);
        }
        EventQueue::Recurring ev;
        int fires = 0;
        std::function<void()> chained;
        if (recurring) {
            ev.init(eq, [&] {
                order.push_back(0);
                if (++fires < 5)
                    ev.reschedule(100);
            }, EventPriority::CpuTick);
            ev.schedule(0);
        } else {
            chained = [&] {
                order.push_back(0);
                if (++fires < 5)
                    eq.scheduleIn(100, chained,
                                  EventPriority::CpuTick);
            };
            eq.schedule(0, chained, EventPriority::CpuTick);
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(runPattern(true), runPattern(false));
}

TEST(EventQueue, RecurringDescheduleAndRearm)
{
    EventQueue eq;
    int fires = 0;
    EventQueue::Recurring ev;
    ev.init(eq, [&] { ++fires; });
    ev.schedule(100);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 100u);
    ev.deschedule();
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_EQ(fires, 0);
    // The same record re-arms after cancellation.
    ev.schedule(200);
    eq.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(ev.scheduled());
}

TEST(EventQueue, SchedulingRecurringWhilePendingPanics)
{
    EventQueue eq;
    EventQueue::Recurring ev;
    ev.init(eq, [] {});
    ev.schedule(10);
    EXPECT_THROW(ev.schedule(20), std::logic_error);
    ev.deschedule();
}

TEST(EventQueue, PoolReusesRecordsAcrossDrainAndRefill)
{
    EventQueue eq;
    for (int i = 0; i < 64; ++i)
        eq.schedule(i + 1, [] {});
    eq.run();
    const std::size_t arena = eq.arenaRecords();
    EXPECT_EQ(eq.freeRecords(), arena);
    // A second wave of the same size must come entirely from the
    // free list: the arena does not grow.
    for (int i = 0; i < 64; ++i)
        eq.scheduleIn(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.arenaRecords(), arena);
    EXPECT_EQ(eq.freeRecords(), arena);
}

TEST(EventQueue, RecurringSteadyStateAllocatesNoRecords)
{
    // The zero-allocation acceptance bar for the tick path: after
    // warm-up, N recurring fires grow the record arena by exactly
    // zero records.
    EventQueue eq;
    EventQueue::Recurring ev;
    int fires = 0;
    ev.init(eq, [&] {
        if (++fires < 10000)
            ev.reschedule(500);
    }, EventPriority::CpuTick);
    ev.schedule(0);
    // Warm-up: let the pool reach steady state.
    for (int i = 0; i < 16; ++i)
        eq.serviceOne();
    const std::size_t arena = eq.arenaRecords();
    eq.run();
    EXPECT_EQ(fires, 10000);
    EXPECT_EQ(eq.arenaRecords(), arena);
}

TEST(EventQueue, CancelledCarcassesAreCompactedAndBounded)
{
    EventQueue eq;
    std::vector<EventQueue::Handle> handles;
    // Far-future events cancelled in bulk: the heap must not retain
    // an unbounded carcass population.
    for (int round = 0; round < 8; ++round) {
        handles.clear();
        for (int i = 0; i < 256; ++i)
            handles.push_back(eq.schedule(1000000 + i, [] {}));
        for (auto &handle : handles)
            eq.deschedule(handle);
    }
    EXPECT_GT(eq.compactions(), 0u);
    // Lazy compaction bound: carcasses may linger only while they
    // are outnumbered by live events (plus the 64-entry floor).
    EXPECT_LE(eq.cancelledPending(), 64u);
    EXPECT_LE(eq.heapEntries(), 64u);
    bool fired = false;
    eq.schedule(2000000, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SnapshotRestoreReplaysIdenticalDrain)
{
    // Capture mid-run, drain to completion, rewind, drain again: the
    // second drain must reproduce the first event-for-event,
    // including same-tick priority/insertion ordering and events
    // scheduled from inside callbacks.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> trace;
    auto emit = [&](int id) {
        trace.push_back({eq.curTick(), id});
    };
    eq.schedule(100, [&] {
        emit(1);
        eq.scheduleIn(50, [&] { emit(4); });
    });
    eq.schedule(200, [&] { emit(2); }, EventPriority::Stat);
    eq.schedule(200, [&] { emit(3); },
                EventPriority::MemoryResponse);
    eq.schedule(300, [&] { emit(5); });

    eq.serviceOne(); // fire the tick-100 event only
    EventQueue::Snapshot snap = eq.snapshot();
    const std::uint64_t servicedAtSnap = eq.serviced();

    eq.run();
    std::vector<std::pair<Tick, int>> first(
        trace.begin() + 1, trace.end());

    eq.restore(snap);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_EQ(eq.serviced(), servicedAtSnap);
    EXPECT_EQ(eq.pending(), 4u);
    trace.clear();
    eq.run();
    EXPECT_EQ(trace, first);
    EXPECT_EQ(trace, (std::vector<std::pair<Tick, int>>{
                         {150, 4}, {200, 3}, {200, 2}, {300, 5}}));
}

TEST(EventQueue, SnapshotRestoreRewindsRecurringEvents)
{
    // A Recurring's record is owned by the component and survives
    // restore in place: rewinding re-arms it at the captured tick
    // and the re-drain fires it the captured number of times.
    EventQueue eq;
    EventQueue::Recurring ev;
    int fires = 0;
    // The stop condition reads the simulated clock, which restore
    // rewinds (a host-side counter would not be).
    ev.init(eq, [&] {
        ++fires;
        if (eq.curTick() < 700)
            ev.reschedule(100);
    }, EventPriority::CpuTick);
    ev.schedule(0);
    for (int i = 0; i < 3; ++i)
        eq.serviceOne();
    EventQueue::Snapshot snap = eq.snapshot();
    ASSERT_EQ(fires, 3);

    eq.run();
    EXPECT_EQ(fires, 8);

    eq.restore(snap);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 300u);
    eq.run();
    EXPECT_EQ(fires, 13); // five more fires, exactly as before
}

TEST(EventQueue, RestoreRecyclesPostSnapshotRecords)
{
    // Events scheduled after the capture are unknown to the
    // snapshot: restore must cancel them and recycle their records
    // into the pool without growing the arena.
    EventQueue eq;
    int late = 0;
    eq.schedule(10, [] {});
    EventQueue::Snapshot snap = eq.snapshot();
    for (int i = 0; i < 32; ++i)
        eq.schedule(20 + i, [&] { ++late; });
    const std::size_t arena = eq.arenaRecords();

    eq.restore(snap);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.arenaRecords(), arena);
    EXPECT_EQ(eq.freeRecords(), arena - 1);
    eq.run();
    EXPECT_EQ(late, 0);

    // The recycled records are reusable for a fresh wave.
    for (int i = 0; i < 32; ++i)
        eq.scheduleIn(1 + i, [&] { ++late; });
    EXPECT_EQ(eq.arenaRecords(), arena);
    eq.run();
    EXPECT_EQ(late, 32);
}

TEST(EventQueue, RestoreAfterPostSnapshotRecurringBindPanics)
{
    // A Recurring bound after the capture owns a record the snapshot
    // cannot rewind — restoring into a mutated component graph is a
    // hard error, not silent corruption.
    EventQueue eq;
    eq.schedule(10, [] {});
    EventQueue::Snapshot snap = eq.snapshot();
    EventQueue::Recurring ev;
    ev.init(eq, [] {});
    EXPECT_THROW(eq.restore(snap), std::logic_error);
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    // Insert ticks in a scrambled deterministic pattern.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        Tick when = (i * 7919) % 10007;
        eq.schedule(when, [&, when] {
            if (eq.curTick() < last)
                monotonic = false;
            last = eq.curTick();
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, OversizedCallableFiresAndSurvivesRestore)
{
    // A capture larger than the inline buffer takes the heap
    // fallback; it must fire, and a snapshot must deep-copy it.
    EventQueue eq;
    std::vector<std::uint64_t> sums;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i + 1;
    auto big = [&sums, payload] {
        std::uint64_t sum = 0;
        for (std::uint64_t v : payload)
            sum += v;
        sums.push_back(sum);
    };
    static_assert(sizeof(big) > EventQueue::Callback::inlineBytes);

    eq.schedule(10, big);
    EventQueue::Snapshot snap = eq.snapshot();
    eq.run();
    eq.restore(snap);
    eq.run();
    EXPECT_EQ(sums, (std::vector<std::uint64_t>{136, 136}));
}

TEST(EventQueue, CallbackCopiesAreIndependent)
{
    int fired = 0;
    EventQueue::Callback a = [&fired] { ++fired; };
    EventQueue::Callback b = a;
    EventQueue::Callback c = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    c();
    EXPECT_EQ(fired, 2);
    c = nullptr;
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_FALSE(static_cast<bool>(
        EventQueue::Callback(std::function<void()>())));
}

TEST(EventQueue, RandomizedOpsMatchSortedReference)
{
    // Drive the heap with random schedules, cancellations (enough to
    // force compactions), snapshot/restore round trips and pops, and
    // check every pop against a sorted (when, priority, seq)
    // reference.
    using Key = std::tuple<Tick, int, std::uint64_t>;
    const EventPriority prios[] = {
        EventPriority::MemoryResponse, EventPriority::Default,
        EventPriority::CpuTick, EventPriority::Stat};

    EventQueue eq;
    std::mt19937_64 rng(12345);
    std::vector<std::uint64_t> fired;
    std::map<Key, EventQueue::Handle> ref;
    std::uint64_t nextId = 0;

    bool haveSnap = false;
    EventQueue::Snapshot snap;
    std::map<Key, EventQueue::Handle> refAtSnap;
    std::uint64_t idAtSnap = 0;

    auto popAndCheck = [&] {
        ASSERT_FALSE(ref.empty());
        const auto expected = ref.begin()->first;
        fired.clear();
        ASSERT_TRUE(eq.serviceOne());
        ASSERT_EQ(fired.size(), 1u);
        EXPECT_EQ(fired[0], std::get<2>(expected));
        EXPECT_EQ(eq.curTick(), std::get<0>(expected));
        ref.erase(ref.begin());
    };

    auto scheduleOne = [&] {
        const Tick when = eq.curTick() + rng() % 64;
        const EventPriority prio = prios[rng() % 4];
        const std::uint64_t id = nextId++;
        EventQueue::Handle h = eq.schedule(
            when, [&fired, id] { fired.push_back(id); }, prio);
        ref.emplace(Key{when, static_cast<int>(prio), id}, h);
    };
    auto cancelOne = [&] {
        auto it = ref.begin();
        std::advance(it, rng() % ref.size());
        eq.deschedule(it->second);
        ref.erase(it);
    };

    for (int step = 0; step < 20000; ++step) {
        const unsigned op = rng() % 100;
        if (op < 45 || ref.empty()) {
            scheduleOne();
        } else if (op < 79) {
            cancelOne();
        } else if (op < 80) {
            // Cancel storm: carcasses outnumber live entries, which
            // triggers lazy compaction.
            for (int i = 0; i < 200; ++i)
                scheduleOne();
            while (ref.size() > 20)
                cancelOne();
        } else if (op < 97) {
            popAndCheck();
        } else if (op < 98 || !haveSnap) {
            snap = eq.snapshot();
            refAtSnap = ref;
            idAtSnap = nextId;
            haveSnap = true;
        } else {
            eq.restore(snap);
            ref = refAtSnap;
            nextId = idAtSnap;
        }
        ASSERT_EQ(eq.pending(), ref.size());
    }
    while (!ref.empty())
        popAndCheck();
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_GT(eq.compactions(), 0u);
}

TEST(EventQueue, SequencePastKeyFieldPanics)
{
    // seq shares a 64-bit key with the priority; the queue refuses
    // to issue a seq that would spill into the priority bits.
    EventQueue eq;
    EventQueue::Snapshot snap = eq.snapshot();
    snap.nextSeq = (std::uint64_t(1) << 56) - 1;
    eq.restore(snap);
    eq.schedule(1, [] {});
    EXPECT_THROW(eq.schedule(2, [] {}), std::logic_error);
    EXPECT_EQ(eq.pending(), 1u);
}

/** Answers every request with a Done on the same port. */
struct DoneResponder : MemResponder
{
    void
    handleRequest(MemPort &port, const MemRequest &req) override
    {
        port.respond({req.kind, MemResponseKind::Done, req.token});
    }
};

TEST(EventQueue, PortRoundTripAllocatesNothingAfterWarmUp)
{
    // Both port legs are closures of (port pointer, message); they
    // must fit the inline callback buffer, so a warmed-up queue
    // serves a send/respond round trip without touching the heap.
    EventQueue eq;
    DoneResponder responder;
    MemPort port;
    port.init(eq, "p");
    port.bind(responder);
    std::uint64_t done = 0;
    port.setResponseHandler([&done](const MemResponse &resp) {
        done += resp.token;
    });

    auto roundTrip = [&](std::uint64_t token) {
        MemRequest req;
        req.kind = MemRequestKind::Store;
        req.addr = 0x40;
        req.token = token;
        port.send(std::move(req));
        eq.run();
    };
    for (std::uint64_t i = 1; i <= 4; ++i)
        roundTrip(i);

    const std::uint64_t before = heapAllocations.load();
    roundTrip(100);
    EXPECT_EQ(heapAllocations.load() - before, 0u);
    EXPECT_EQ(done, 110u);
}

} // namespace
} // namespace strand
