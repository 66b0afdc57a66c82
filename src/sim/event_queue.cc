#include "sim/event_queue.hh"

#include <algorithm>
#include <unordered_map>

namespace strand
{

namespace
{

/** Children per heap node; shallower than binary, same pop order. */
constexpr std::size_t heapArity = 4;

} // namespace

EventQueue::Record *
EventQueue::allocRecord()
{
    if (!freeList.empty()) {
        Record *rec = freeList.back();
        freeList.pop_back();
        return rec;
    }
    arena.emplace_back();
    return &arena.back();
}

void
EventQueue::releaseRecord(Record *rec)
{
    rec->callback = nullptr;
    rec->state = State::Free;
    rec->recurring = false;
    freeList.push_back(rec);
}

void
EventQueue::heapPush(const HeapEntry &entry)
{
    std::size_t hole = heap.size();
    heap.push_back(entry);
    while (hole > 0) {
        std::size_t parent = (hole - 1) / heapArity;
        if (!earlier(entry, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

void
EventQueue::heapPop()
{
    HeapEntry last = heap.back();
    heap.pop_back();
    const std::size_t size = heap.size();
    if (size == 0)
        return;
    // Sift the old last entry down from the root, moving the earliest
    // of up to heapArity children into the hole at each level.
    std::size_t hole = 0;
    for (;;) {
        std::size_t first = heapArity * hole + 1;
        if (first >= size)
            break;
        std::size_t best = first;
        std::size_t end = std::min(first + heapArity, size);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (earlier(heap[c], heap[best]))
                best = c;
        }
        if (!earlier(heap[best], last))
            break;
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = last;
}

void
EventQueue::heapify()
{
    // A sorted array is a valid d-ary heap; compaction and restore
    // are rare enough that the simplest rebuild wins.
    std::sort(heap.begin(), heap.end(), earlier);
}

void
EventQueue::armRecord(Record *rec, Tick when)
{
    panicIf(nextSeq > seqMask,
            "event sequence number overflows its {}-bit key field",
            seqBits);
    rec->when = when;
    rec->seq = nextSeq++;
    rec->state = State::Scheduled;
    heapPush(entryOf(*rec));
    ++liveEvents;
}

void
EventQueue::maybeCompact()
{
    std::size_t carcasses =
        heap.size() - static_cast<std::size_t>(liveEvents);
    if (carcasses <= 64 ||
        carcasses <= static_cast<std::size_t>(liveEvents)) {
        return;
    }
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [](const HeapEntry &entry) {
                                  return !live(entry);
                              }),
               heap.end());
    // The key is a strict total order (seq is unique), so rebuilding
    // the heap cannot change the pop sequence.
    heapify();
    ++compactionRuns;
}

EventQueue::Handle
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    panicIf(when < now,
            "event scheduled in the past: when={} now={}", when, now);
    panicIf(!cb, "event scheduled with empty callback");

    Record *rec = allocRecord();
    rec->priority = static_cast<int>(prio);
    rec->callback = std::move(cb);
    armRecord(rec, when);
    return Handle(rec, rec->seq);
}

void
EventQueue::deschedule(Handle &handle)
{
    if (!handle.scheduled())
        return;
    // Handles are only issued for one-shots (Recurring cancels via
    // its own deschedule), so the record goes straight back to the
    // pool; its heap entry stays behind as a carcass.
    releaseRecord(handle.record);
    --liveEvents;
    maybeCompact();
}

Tick
EventQueue::nextLiveTick()
{
    while (!heap.empty() && !live(heap.front()))
        heapPop();
    return heap.empty() ? maxTick : heap.front().when;
}

bool
EventQueue::serviceOne()
{
    while (!heap.empty()) {
        HeapEntry top = heap.front();
        heapPop();
        if (!live(top))
            continue;

        panicIf(top.when < now, "event queue went backwards");
        now = top.when;
        --liveEvents;
        ++servicedEvents;

        Record *rec = top.rec;
        if (rec->recurring) {
            // Park the record so the callback can re-arm it.
            rec->state = State::Idle;
            rec->callback();
        } else {
            // Release before invoking: the callback has been moved
            // out, so the record is immediately reusable by anything
            // the callback schedules.
            Callback cb = std::move(rec->callback);
            releaseRecord(rec);
            cb();
        }
        return true;
    }
    return false;
}

void
EventQueue::run()
{
    while (serviceOne()) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty()) {
        // Skip cancelled carcasses without advancing time.
        if (!live(heap.front())) {
            heapPop();
            continue;
        }
        if (heap.front().when > limit)
            break;
        serviceOne();
    }
    if (now < limit)
        now = limit;
}

EventQueue::Snapshot
EventQueue::snapshot() const
{
    Snapshot snap;
    snap.now = now;
    snap.nextSeq = nextSeq;
    snap.liveEvents = liveEvents;
    snap.servicedEvents = servicedEvents;
    snap.compactionRuns = compactionRuns;

    snap.records.reserve(arena.size());
    std::unordered_map<const Record *, std::size_t> indexOf;
    indexOf.reserve(arena.size());
    std::size_t index = 0;
    for (const Record &rec : arena) {
        indexOf.emplace(&rec, index++);
        Snapshot::RecordState state;
        state.when = rec.when;
        state.priority = rec.priority;
        state.seq = rec.seq;
        state.state = static_cast<std::uint8_t>(rec.state);
        state.recurring = rec.recurring;
        // Recurring callbacks stay with their owning Recurring and
        // are reused on restore; a fired one-shot's callback has
        // already been moved out, so only scheduled one-shots carry
        // one worth copying.
        if (!rec.recurring && rec.state == State::Scheduled)
            state.callback = rec.callback;
        snap.records.push_back(std::move(state));
    }
    snap.freeList.reserve(freeList.size());
    for (const Record *rec : freeList)
        snap.freeList.push_back(indexOf.at(rec));
    return snap;
}

void
EventQueue::restore(const Snapshot &snap)
{
    panicIf(arena.size() < snap.records.size(),
            "event queue arena shrank across a snapshot");
    std::vector<Record *> byIndex;
    byIndex.reserve(arena.size());
    for (Record &rec : arena)
        byIndex.push_back(&rec);

    now = snap.now;
    nextSeq = snap.nextSeq;
    liveEvents = snap.liveEvents;
    servicedEvents = snap.servicedEvents;
    compactionRuns = snap.compactionRuns;

    heap.clear();
    for (std::size_t i = 0; i < snap.records.size(); ++i) {
        const Snapshot::RecordState &state = snap.records[i];
        Record &rec = *byIndex[i];
        // A record whose Recurring owner was created or destroyed
        // after the capture cannot be rewound: the callback lives in
        // (or died with) the owner. Restore only into the component
        // graph the snapshot was taken from.
        panicIf(rec.recurring != state.recurring,
                "cannot restore: record {} changed recurring "
                "ownership across the snapshot", i);
        rec.when = state.when;
        rec.priority = state.priority;
        rec.seq = state.seq;
        rec.state = static_cast<State>(state.state);
        if (!state.recurring)
            rec.callback = state.callback;
        if (rec.state == State::Scheduled)
            heap.push_back(entryOf(rec));
    }
    freeList.clear();
    for (std::size_t index : snap.freeList)
        freeList.push_back(byIndex[index]);
    // Records allocated after the capture are unknown to the
    // snapshot: recycle them. They join the free list after the
    // captured entries, which only changes which pooled record a
    // future schedule() reuses — dispatch order is keyed on (when,
    // priority, seq), never on record identity.
    for (std::size_t i = snap.records.size(); i < byIndex.size();
         ++i) {
        Record &rec = *byIndex[i];
        panicIf(rec.recurring,
                "cannot restore: a recurring event was bound after "
                "the snapshot");
        rec.state = State::Free;
        rec.callback = nullptr;
        freeList.push_back(&rec);
    }
    // The key is a strict total order (seq is unique), so the rebuilt
    // heap pops in exactly the captured dispatch order.
    heapify();
    panicIf(heap.size() != static_cast<std::size_t>(liveEvents),
            "snapshot live-event count does not match its records");
}

EventQueue::Recurring::~Recurring()
{
    if (!owner)
        return;
    deschedule();
    owner->releaseRecord(rec);
}

void
EventQueue::Recurring::init(EventQueue &eq, Callback cb,
                            EventPriority prio)
{
    panicIf(owner, "recurring event initialized twice");
    panicIf(!cb, "recurring event initialized with empty callback");
    owner = &eq;
    rec = eq.allocRecord();
    rec->priority = static_cast<int>(prio);
    rec->recurring = true;
    rec->state = Handle::State::Idle;
    rec->callback = std::move(cb);
}

void
EventQueue::Recurring::schedule(Tick when)
{
    panicIf(!owner, "recurring event scheduled before init");
    panicIf(rec->state == Handle::State::Scheduled,
            "recurring event scheduled while already pending");
    panicIf(when < owner->now,
            "event scheduled in the past: when={} now={}", when,
            owner->now);
    owner->armRecord(rec, when);
}

void
EventQueue::Recurring::scheduleIn(Tick delta)
{
    panicIf(!owner, "recurring event scheduled before init");
    schedule(owner->now + delta);
}

void
EventQueue::Recurring::deschedule()
{
    if (!scheduled())
        return;
    rec->state = Handle::State::Idle;
    --owner->liveEvents;
    owner->maybeCompact();
}

bool
EventQueue::Recurring::scheduled() const
{
    return rec && rec->state == Handle::State::Scheduled;
}

} // namespace strand
