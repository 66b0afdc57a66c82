#include "cache/hierarchy.hh"

#include <algorithm>
#include <utility>

#include "fuzz/adversary.hh"

namespace strand
{

Hierarchy::Hierarchy(std::string name, EventQueue &eq, MemoryImage &image,
                     unsigned numCores, const HierarchyParams &params,
                     MemController &pmCtrl, MemController &dramCtrl,
                     stats::StatGroup *parent)
    : SimObject(std::move(name), eq, parent),
      // The tag-only hierarchy is one monolithic component; cores
      // reach it exclusively through latency-carrying MemPorts, so
      // its MSHR state is only ever mutated from its own events,
      // never on a requester's call stack.
      loadHits(this, "loadHits", "L1 load hits"),
      loadMisses(this, "loadMisses", "L1 load misses"),
      storeHits(this, "storeHits", "L1 store hits (owned line)"),
      storeMisses(this, "storeMisses", "L1 store misses (RFO)"),
      upgrades(this, "upgrades", "S->M upgrade transactions"),
      cacheToCache(this, "cacheToCache", "L1-to-L1 transfers"),
      l1Writebacks(this, "l1Writebacks", "dirty L1 evictions"),
      l2Evictions(this, "l2Evictions", "dirty L2 evictions to memory"),
      flushesDirty(this, "flushesDirty", "CLWB flushes that wrote PM"),
      flushesClean(this, "flushesClean", "CLWB flushes of clean lines"),
      snoopStalls(this, "snoopStalls",
                  "read-exclusive snoops stalled on persist drain"),
      writebackStalls(this, "writebackStalls",
                      "fills stalled on a full write-back buffer"),
      image(image), params(params), pmCtrl(pmCtrl), dramCtrl(dramCtrl),
      l2(params.l2Size, params.l2Ways)
{
    fatalIf(numCores == 0, "hierarchy needs at least one core");
    cores.reserve(numCores);
    for (unsigned i = 0; i < numCores; ++i) {
        cores.emplace_back(params);
        cores.back().mshrLimit = params.l1Mshrs;
    }
    pmCtrl.addRetryCallback([this] { scheduleKick(); });
    dramCtrl.addRetryCallback([this] { scheduleKick(); });
    kickEvent.init(eq, [this] { kick(); }, EventPriority::Default);
    retryKick = [this] { scheduleKick(); };

    pmPort.init(eq, fullName() + ".pmPort");
    pmPort.bind(pmCtrl);
    pmPort.setResponseHandler(
        [this](const MemResponse &resp) { onControllerResponse(resp); });
    dramPort.init(eq, fullName() + ".dramPort");
    dramPort.bind(dramCtrl);
    dramPort.setResponseHandler(
        [this](const MemResponse &resp) { onControllerResponse(resp); });
}

MemPort &
Hierarchy::portFor(Addr addr)
{
    return isPersistentAddr(addr) ? pmPort : dramPort;
}

void
Hierarchy::sendToController(PacketPtr pkt)
{
    MemRequest req;
    req.kind = MemRequestKind::Packet;
    req.core = pkt->requester;
    req.addr = pkt->addr;
    req.pkt = pkt;
    portFor(req.addr).send(std::move(req));
}

Hierarchy::Clearance
Hierarchy::recordDrainPoint(CoreId core)
{
    if (!params.persistInterlocks)
        return {};
    auto &recorder = cores.at(core).recorder;
    return recorder ? recorder() : Clearance{};
}

void
Hierarchy::park(std::function<bool()> attempt)
{
    parked.push_back({std::move(attempt)});
    scheduleKick();
}

void
Hierarchy::scheduleKick()
{
    if (kickEvent.scheduled())
        return;
    kickEvent.schedule(curTick());
}

void
Hierarchy::kick()
{
    drainWritebacks();
    drainL2Evicts();
    drainAllLineWrites();
    // Retry parked transactions in arrival order; anything still
    // blocked goes back on the list.
    std::deque<Parked> work;
    work.swap(parked);
    for (auto &item : work) {
        if (!item.attempt())
            parked.push_back(std::move(item));
    }
}

void
Hierarchy::prewarmL2(Addr start, Addr end)
{
    for (Addr la = lineAlign(start); la < end; la += lineBytes) {
        if (l2.contains(la))
            continue;
        CacheLineInfo &victim = l2.victimFor(la);
        // Warm-up only targets an empty cache; skip on conflict
        // rather than evicting real state.
        if (victim.valid())
            continue;
        l2.install(victim, la, CoherenceState::Shared);
    }
}

// ---------------------------------------------------------------------
// CPU-side interface (port request servicing)
// ---------------------------------------------------------------------

void
Hierarchy::handleRequest(MemPort &port, const MemRequest &req)
{
    // The port outlives every in-flight message (both are owned by
    // permanent components), so capturing its address in completion
    // closures is snapshot-safe.
    MemPort *reply = &port;
    const std::uint64_t token = req.token;
    switch (req.kind) {
    case MemRequestKind::Load: {
        bool accepted = startLoad(req.core, req.addr, [reply, token] {
            reply->respond({MemRequestKind::Load, MemResponseKind::Done,
                            token});
        });
        if (!accepted)
            port.respond({MemRequestKind::Load, MemResponseKind::Nack,
                          token});
        return;
    }
    case MemRequestKind::Store: {
        bool accepted =
            startStore(req.core, req.addr, req.value, [reply, token] {
                reply->respond({MemRequestKind::Store,
                                MemResponseKind::Done, token});
            });
        // The admission decision always goes back explicitly: Ack so
        // the requester may issue its next store, Nack to retry this
        // one. Completion (Done) follows an Ack strictly later —
        // the L1 latency exceeds any port leg.
        port.respond({MemRequestKind::Store,
                      accepted ? MemResponseKind::Ack
                               : MemResponseKind::Nack,
                      token});
        return;
    }
    case MemRequestKind::Flush: {
        startFlush(
            req.core, req.addr,
            [reply, token](bool wrotePm) {
                MemResponse resp{MemRequestKind::Flush,
                                 MemResponseKind::Done, token};
                resp.wrotePm = wrotePm;
                reply->respond(std::move(resp));
            },
            [reply, token] {
                reply->respond({MemRequestKind::Flush,
                                MemResponseKind::FlushStarted, token});
            });
        return;
    }
    case MemRequestKind::Kick:
        // Response-less doorbell: a persist engine's drain point
        // cleared after our own completion kick had already run.
        scheduleKick();
        return;
    case MemRequestKind::Packet:
        break;
    }
    panic("hierarchy cannot service request kind {}",
          static_cast<int>(req.kind));
}

bool
Hierarchy::startLoad(CoreId core, Addr addr, std::function<void()> onDone)
{
    Addr la = lineAlign(addr);
    L1 &l1 = cores.at(core);

    if (CacheLineInfo *line = l1.array.findLine(la)) {
        l1.array.touch(*line);
        ++loadHits;
        eq.scheduleIn(params.l1Latency, std::move(onDone),
                      EventPriority::MemoryResponse);
        return true;
    }

    auto it = l1.mshrs.find(la);
    if (it != l1.mshrs.end()) {
        // Merge with the outstanding miss; any fill satisfies a load.
        it->second.waiters.push_back(std::move(onDone));
        ++loadMisses;
        return true;
    }
    if (l1.mshrs.size() >= l1.mshrLimit)
        return false;

    ++loadMisses;
    auto &mshr = l1.mshrs[la];
    mshr.exclusive = false;
    mshr.waiters.push_back(std::move(onDone));
    ++activeTransactions;
    startMiss(core, la, false);
    return true;
}

bool
Hierarchy::startStore(CoreId core, Addr addr, std::uint64_t value,
                      std::function<void()> onDone)
{
    Addr la = lineAlign(addr);
    L1 &l1 = cores.at(core);
    CacheLineInfo *line = l1.array.findLine(la);

    if (line && (line->state == CoherenceState::Modified ||
                 line->state == CoherenceState::Exclusive)) {
        l1.array.touch(*line);
        ++storeHits;
        eq.scheduleIn(params.l1Latency,
                      [this, core, la, addr, value,
                       onDone = std::move(onDone)] {
            // Re-find: the line cannot have moved (no transaction can
            // run on it without an MSHR/busy entry, and owned lines
            // are only demoted by transactions).
            // The line can only vanish if an L2 replacement
            // back-invalidated it mid-store; treat it as a store that
            // squeaked in before the invalidation.
            if (CacheLineInfo *l = cores.at(core).array.findLine(la))
                l->state = CoherenceState::Modified;
            image.writeArch(addr, value);
            if (onDone)
                onDone();
        }, EventPriority::MemoryResponse);
        return true;
    }

    if (line && line->state == CoherenceState::Shared) {
        // Upgrade. Serialize against other transactions on the line.
        if (busyLines.contains(la))
            return false;
        busyLines.insert(la);
        ++upgrades;
        ++activeTransactions;
        eq.scheduleIn(params.l1Latency + params.snoopLatency,
                      [this, core, la, addr, value,
                       onDone = std::move(onDone)] {
            for (unsigned i = 0; i < cores.size(); ++i) {
                if (i != core)
                    cores[i].array.invalidate(la);
            }
            // Tolerate an L2 back-invalidation racing the upgrade.
            if (CacheLineInfo *l = cores.at(core).array.findLine(la))
                l->state = CoherenceState::Modified;
            image.writeArch(addr, value);
            busyLines.erase(la);
            --activeTransactions;
            if (onDone)
                onDone();
            scheduleKick();
        }, EventPriority::MemoryResponse);
        return true;
    }

    // Miss: RFO.
    auto it = l1.mshrs.find(la);
    if (it != l1.mshrs.end()) {
        if (!it->second.exclusive) {
            // A shared fill is in flight; retry once it lands and
            // take the upgrade path.
            return false;
        }
        it->second.waiters.push_back(
            [this, core, la, addr, value, onDone = std::move(onDone)] {
                if (CacheLineInfo *l = cores.at(core).array.findLine(la))
                    l->state = CoherenceState::Modified;
                image.writeArch(addr, value);
                if (onDone)
                    onDone();
            });
        ++storeMisses;
        return true;
    }
    if (l1.mshrs.size() >= l1.mshrLimit)
        return false;

    ++storeMisses;
    auto &mshr = l1.mshrs[la];
    mshr.exclusive = true;
    mshr.waiters.push_back(
        [this, core, la, addr, value, onDone = std::move(onDone)] {
            if (CacheLineInfo *l = cores.at(core).array.findLine(la))
                l->state = CoherenceState::Modified;
            image.writeArch(addr, value);
            if (onDone)
                onDone();
        });
    ++activeTransactions;
    startMiss(core, la, true);
    return true;
}

// ---------------------------------------------------------------------
// Miss handling
// ---------------------------------------------------------------------

void
Hierarchy::startMiss(CoreId core, Addr lineAddr, bool exclusive)
{
    if (busyLines.contains(lineAddr)) {
        park([this, core, lineAddr, exclusive] {
            if (busyLines.contains(lineAddr))
                return false;
            busyLines.insert(lineAddr);
            eq.scheduleIn(params.l1Latency, [this, core, lineAddr,
                                             exclusive] {
                serviceMiss(core, lineAddr, exclusive);
            }, EventPriority::MemoryResponse);
            return true;
        });
        return;
    }
    busyLines.insert(lineAddr);
    eq.scheduleIn(params.l1Latency, [this, core, lineAddr, exclusive] {
        serviceMiss(core, lineAddr, exclusive);
    }, EventPriority::MemoryResponse);
}

void
Hierarchy::serviceMiss(CoreId core, Addr lineAddr, bool exclusive)
{
    // 1. Snoop remote L1s for a dirty owner.
    for (unsigned i = 0; i < cores.size(); ++i) {
        if (i == core)
            continue;
        const CacheLineInfo *remote =
            std::as_const(cores[i].array).findLine(lineAddr);
        if (!remote || remote->state != CoherenceState::Modified)
            continue;

        // Dirty remote owner. For read-exclusive requests the reply
        // stalls until the owner's persist engine drains past the
        // point recorded now (§IV, inter-thread persist order).
        Clearance clearance;
        if (exclusive)
            clearance = recordDrainPoint(i);

        auto transfer = [this, core, lineAddr, exclusive, i] {
            CacheLineInfo *owner = cores[i].array.findLine(lineAddr);
            ++cacheToCache;
            // A read-exclusive steal of a dirty PM line is a VMO
            // conflict edge: the old owner's earlier stores to the
            // line are ordered before the requester's later ones.
            if (obsHub && obsHub->active() && exclusive &&
                isPersistentAddr(lineAddr)) {
                obsHub->conflictEdge(
                    {lineAddr, i, core, curTick()});
            }
            if (exclusive) {
                if (owner)
                    cores[i].array.invalidate(lineAddr);
                // Ownership moves to the requester; the (inclusive)
                // L2 copy is stale and clean.
                if (CacheLineInfo *l2line = l2.findLine(lineAddr))
                    l2line->state = CoherenceState::Shared;
            } else {
                if (owner)
                    owner->state = CoherenceState::Shared;
                // The L2 absorbs the dirty data.
                if (CacheLineInfo *l2line = l2.findLine(lineAddr)) {
                    l2line->state = CoherenceState::Modified;
                } else {
                    // Inclusion was broken by an L2 eviction racing
                    // this transfer; fall back to a direct memory
                    // write-back of the fresh data.
                    queueL2Evict(lineAddr);
                }
            }
            eq.scheduleIn(params.l2Latency, [this, core, lineAddr,
                                             exclusive] {
                finishFill(core, lineAddr, exclusive,
                           exclusive ? CoherenceState::Exclusive
                                     : CoherenceState::Shared);
            }, EventPriority::MemoryResponse);
        };

        if (clearance && !clearance()) {
            ++snoopStalls;
            park([clearance, transfer] {
                if (!clearance())
                    return false;
                transfer();
                return true;
            });
        } else {
            eq.scheduleIn(params.snoopLatency, transfer,
                          EventPriority::MemoryResponse);
        }
        return;
    }

    // 2. Clean remote copies and the shared L2.
    eq.scheduleIn(params.snoopLatency + params.l2Latency,
                  [this, core, lineAddr, exclusive] {
        bool remoteCopies = false;
        for (unsigned i = 0; i < cores.size(); ++i) {
            if (i == core)
                continue;
            CacheArray &remote = cores[i].array;
            const CacheLineInfo *copy =
                std::as_const(remote).findLine(lineAddr);
            if (!copy)
                continue;
            remoteCopies = true;
            if (exclusive)
                remote.invalidate(lineAddr);
            else if (copy->state == CoherenceState::Exclusive)
                remote.findLine(lineAddr)->state = CoherenceState::Shared;
        }

        if (l2.contains(lineAddr)) {
            CoherenceState fill;
            if (exclusive)
                fill = CoherenceState::Exclusive;
            else
                fill = remoteCopies ? CoherenceState::Shared
                                    : CoherenceState::Exclusive;
            finishFill(core, lineAddr, exclusive, fill);
            return;
        }

        // 3. Fetch from memory. The L2 MSHR is claimed before the
        // packet is mailed; a controller Nack keeps the claim and
        // remails the same packet once the controller signals space.
        auto fetch = [this, core, lineAddr, exclusive]() -> bool {
            if (l2MissesInFlight >= params.l2Mshrs)
                return false;
            auto pkt = makeReadPacket(
                lineAddr, core, exclusive,
                [this, core, lineAddr, exclusive] {
                    --l2MissesInFlight;
                    // Fill L2 (inclusive), then the L1.
                    park([this, core, lineAddr, exclusive] {
                        if (!installLineL2(lineAddr))
                            return false;
                        finishFill(core, lineAddr, exclusive,
                                   CoherenceState::Exclusive);
                        return true;
                    });
                });
            pkt->id = nextPacketId++;
            ++l2MissesInFlight;
            sendToController(std::move(pkt));
            return true;
        };
        if (!fetch())
            park(fetch);
    }, EventPriority::MemoryResponse);
}

void
Hierarchy::finishFill(CoreId core, Addr lineAddr, bool exclusive,
                      CoherenceState fillState)
{
    if (!installLine(core, lineAddr, fillState)) {
        // Victim write-back buffer full; retry when it drains.
        ++writebackStalls;
        park([this, core, lineAddr, exclusive, fillState] {
            if (!installLine(core, lineAddr, fillState))
                return false;
            finishFill(core, lineAddr, exclusive, fillState);
            return true;
        });
        return;
    }

    L1 &l1 = cores.at(core);
    auto it = l1.mshrs.find(lineAddr);
    panicIf(it == l1.mshrs.end(), "fill without MSHR");
    auto waiters = std::move(it->second.waiters);
    l1.mshrs.erase(it);
    busyLines.erase(lineAddr);
    --activeTransactions;
    for (auto &waiter : waiters)
        if (waiter)
            waiter();
    scheduleKick();
}

bool
Hierarchy::installLine(CoreId core, Addr lineAddr, CoherenceState state)
{
    L1 &l1 = cores.at(core);
    if (CacheLineInfo *line = l1.array.findLine(lineAddr)) {
        // Already present (e.g. re-entered finishFill); just set state.
        line->state = state;
        return true;
    }
    CacheLineInfo &victim = l1.array.victimFor(lineAddr);
    if (victim.valid() && victim.dirty()) {
        if (l1.writebacks.full())
            return false;
        pushWriteback(core, victim.lineAddr);
    }
    if (victim.valid())
        victim.state = CoherenceState::Invalid;
    l1.array.install(victim, lineAddr, state);
    // Maintain inclusion: make sure the L2 tracks the line too. A
    // cache-to-cache or L2 fill already has it; memory fills insert
    // it in the fetch path. If it is somehow absent, add it cheaply.
    if (!l2.contains(lineAddr))
        installLineL2(lineAddr);
    return true;
}

void
Hierarchy::pushWriteback(CoreId core, Addr lineAddr)
{
    L1 &l1 = cores.at(core);
    ++l1Writebacks;
    // Record the persist drain point at write-back initiation (§IV).
    Clearance clearance = recordDrainPoint(core);
    l1.writebacks.push(lineAddr, image.snapshotLine(lineAddr),
                       std::move(clearance));
    drainWritebacks();
}

void
Hierarchy::drainWritebacks()
{
    auto drainFn = [this](Addr lineAddr, const LineData &data) {
        if (CacheLineInfo *l2line = l2.findLine(lineAddr)) {
            l2line->state = CoherenceState::Modified;
            l2.touch(*l2line);
        } else {
            // The L2 evicted the line while the write-back sat in
            // the buffer; forward the data to memory directly.
            pendingL2Evicts.push_back({lineAddr, data, {}});
        }
    };
    for (unsigned i = 0; i < cores.size(); ++i) {
        L1 &l1 = cores[i];
        if (!params.adversary) {
            l1.writebacks.drain(drainFn);
            continue;
        }
        // Fuzzing: an eligible (clearance-met) write-back may still
        // be held by the adversary; the retry is a kick, which
        // re-enters this drain once the hold expires.
        auto hold = [this, &l1, i] {
            if (curTick() < l1.wbHeldUntil)
                return true;
            Tick delay = params.adversary->consider(
                eq, FuzzSite::Writeback, i, retryKick);
            if (delay > 0) {
                l1.wbHeldUntil = curTick() + delay;
                return true;
            }
            return false;
        };
        l1.writebacks.drain(drainFn, hold);
    }
    drainL2Evicts();
}

bool
Hierarchy::installLineL2(Addr lineAddr)
{
    if (l2.contains(lineAddr))
        return true;
    if (pendingL2Evicts.size() >= params.l2EvictEntries)
        return false;

    CacheLineInfo &victim = l2.victimFor(lineAddr);
    if (victim.valid()) {
        // Avoid victimizing a line with an in-flight coherence
        // transaction; retry once it settles.
        if (busyLines.contains(victim.lineAddr))
            return false;
        Addr victimAddr = victim.lineAddr;
        // Inclusive hierarchy: force the line out of every L1 first.
        // A dirty L1 copy departs the cache domain here, so record
        // the owning core's persist drain point (same interlock as a
        // voluntary write-back, §IV).
        bool wasDirtyAnywhere = victim.dirty();
        Clearance clearance;
        for (unsigned i = 0; i < cores.size(); ++i) {
            if (CacheLineInfo *line = cores[i].array.findLine(victimAddr)) {
                if (line->dirty()) {
                    wasDirtyAnywhere = true;
                    clearance = recordDrainPoint(i);
                }
                cores[i].array.invalidate(victimAddr);
            }
        }
        if (wasDirtyAnywhere)
            queueL2Evict(victimAddr, std::move(clearance));
        victim.state = CoherenceState::Invalid;
    }
    l2.install(victim, lineAddr, CoherenceState::Shared);
    return true;
}

void
Hierarchy::queueL2Evict(Addr lineAddr, Clearance clearance)
{
    ++l2Evictions;
    pendingL2Evicts.push_back({lineAddr, image.snapshotLine(lineAddr),
                               std::move(clearance)});
    drainL2Evicts();
}

void
Hierarchy::drainL2Evicts()
{
    // One eviction is in the mail at a time; the next departs when
    // the controller's Ack pops the head (a Nack leaves it queued
    // for the retry kick).
    if (evictInFlight || pendingL2Evicts.empty())
        return;
    PendingEvict &head = pendingL2Evicts.front();
    if (head.clearance && !head.clearance())
        return;
    auto pkt = makeWritePacket(head.data, 0, WriteOrigin::WriteBack,
                               nullptr);
    pkt->id = nextPacketId++;
    evictInFlight = true;
    sendToController(std::move(pkt));
}

// ---------------------------------------------------------------------
// CLWB flush path
// ---------------------------------------------------------------------

void
Hierarchy::sendLineWrite(Addr lineAddr, PacketPtr pkt)
{
    lineSendQueues[lineAddr].queue.push_back(std::move(pkt));
    drainLineWrites(lineAddr);
}

void
Hierarchy::drainLineWrites(Addr lineAddr)
{
    auto it = lineSendQueues.find(lineAddr);
    if (it == lineSendQueues.end())
        return;
    LineSendQueue &q = it->second;
    // One write per line in the mail: the successor departs only on
    // the predecessor's Ack, so same-line snapshots enter the
    // controller strictly in content order even across Nack retries.
    if (q.inFlight || q.queue.empty())
        return;
    q.inFlight = true;
    sendToController(q.queue.front());
}

void
Hierarchy::drainAllLineWrites()
{
    for (auto &entry : lineSendQueues)
        drainLineWrites(entry.first);
}

void
Hierarchy::onControllerResponse(const MemResponse &resp)
{
    const PacketPtr &pkt = resp.pkt;
    panicIf(!pkt, "controller response without a packet");
    const bool acked = resp.kind == MemResponseKind::Ack;

    switch (pkt->cmd) {
    case MemCmd::Read:
    case MemCmd::ReadExclusive:
        // Completion arrives separately through pkt->onResponse; the
        // admission decision is all that is routed here. A Nack
        // remails the identical packet when the controller's retry
        // callback kicks us (the L2 MSHR claim is still held).
        if (!acked) {
            park([this, pkt] {
                sendToController(pkt);
                return true;
            });
        }
        return;
    case MemCmd::Write:
        if (pkt->origin == WriteOrigin::WriteBack) {
            panicIf(!evictInFlight,
                    "evict admission reply without an evict in the mail");
            evictInFlight = false;
            if (acked) {
                pendingL2Evicts.pop_front();
                drainL2Evicts();
            }
            return;
        }
        // CLWB flush write: the head of this line's send queue.
        {
            auto it = lineSendQueues.find(pkt->addr);
            panicIf(it == lineSendQueues.end() || !it->second.inFlight ||
                        it->second.queue.front() != pkt,
                    "flush-write admission reply does not match the "
                    "line head");
            it->second.inFlight = false;
            if (acked) {
                it->second.queue.pop_front();
                if (it->second.queue.empty())
                    lineSendQueues.erase(it);
                else
                    drainLineWrites(pkt->addr);
            }
        }
        return;
    }
    panic("controller response with unknown packet command");
}

void
Hierarchy::startFlush(CoreId core, Addr addr,
                      std::function<void(bool)> onDone,
                      std::function<void()> onStarted)
{
    Addr la = lineAlign(addr);
    ++activeTransactions;

    // Flushes deliberately do not serialize on busyLines: a
    // read-exclusive snoop parked on this core's persist drain point
    // must not block the very CLWB it is waiting for (§IV —
    // "CLWBs never stall ... so there is no possibility of circular
    // dependency and deadlock"). Concurrent transactions tolerate
    // the dirty-bit cleaning the flush performs.
    {
        // Fast path: the flushing core's own L1 owns the dirty line.
        L1 &own = cores.at(core);
        const CacheLineInfo *line = std::as_const(own.array).findLine(la);
        bool ownDirty = line && line->dirty();
        Tick lookup = ownDirty
                          ? params.l1Latency
                          : params.l1Latency + params.snoopLatency +
                                params.l2Latency;

        eq.scheduleIn(lookup, [this, core, la, onDone,
                               onStarted = std::move(onStarted)] {
            // The flush performs its cache read here; stores gated
            // behind a persist barrier may drain only after this
            // point (the notification below), so the snapshot can
            // never include post-barrier data.
            if (onStarted)
                onStarted();
            bool dirty = false;
            // Clean every dirty copy in the domain; CLWB retains
            // clean copies (non-invalidating). The const lookup comes
            // first so that a clean hit copies no tag page a
            // snapshot still holds.
            auto clean = [la](CacheArray &array, CoherenceState to) {
                const CacheLineInfo *l = std::as_const(array).findLine(la);
                if (!l || !l->dirty())
                    return false;
                array.findLine(la)->state = to;
                return true;
            };
            for (auto &l1 : cores) {
                if (clean(l1.array, CoherenceState::Exclusive))
                    dirty = true;
                if (l1.writebacks.contains(la))
                    dirty = true;
            }
            if (clean(l2, CoherenceState::Shared))
                dirty = true;

            if (!dirty) {
                ++flushesClean;
                --activeTransactions;
                if (onDone)
                    onDone(false);
                scheduleKick();
                return;
            }

            ++flushesDirty;
            auto pkt = makeWritePacket(
                image.snapshotLine(la), core, WriteOrigin::Clwb,
                [this, onDone] {
                    --activeTransactions;
                    if (onDone)
                        onDone(true);
                    scheduleKick();
                });
            pkt->id = nextPacketId++;
            // Same-line writes enter the controller in snapshot
            // order even if back-pressure forces retries.
            sendLineWrite(la, std::move(pkt));
        }, EventPriority::MemoryResponse);
    }
}

// ---------------------------------------------------------------------
// Snapshot support
// ---------------------------------------------------------------------

void
Hierarchy::saveState(SimSnapshot &snap) const
{
    Snapshot s;
    s.cores.reserve(cores.size());
    for (const L1 &l1 : cores) {
        L1State cs;
        cs.array = l1.array.snapshotState();
        cs.writebacks = l1.writebacks.snapshotEntries();
        cs.mshrs = l1.mshrs;
        cs.wbHeldUntil = l1.wbHeldUntil;
        s.cores.push_back(std::move(cs));
    }
    s.l2 = l2.snapshotState();
    s.l2MissesInFlight = l2MissesInFlight;
    s.busyLines = busyLines;
    // Packets are immutable once submitted, so the snapshot may share
    // them with the live run.
    s.lineSendQueues = lineSendQueues;
    s.pendingL2Evicts = pendingL2Evicts;
    s.evictInFlight = evictInFlight;
    s.parked = parked;
    s.activeTransactions = activeTransactions;
    s.nextPacketId = nextPacketId;
    snap.put(snapshotName(), std::move(s));
}

void
Hierarchy::restoreState(const SimSnapshot &snap)
{
    const Snapshot &s = snap.get<Snapshot>(snapshotName());
    panicIf(s.cores.size() != cores.size(),
            "hierarchy core count changed across a snapshot");
    for (std::size_t i = 0; i < cores.size(); ++i) {
        L1 &l1 = cores[i];
        const L1State &cs = s.cores[i];
        l1.array.restoreState(cs.array);
        l1.writebacks.restoreEntries(cs.writebacks);
        l1.mshrs = cs.mshrs;
        l1.wbHeldUntil = cs.wbHeldUntil;
    }
    l2.restoreState(s.l2);
    l2MissesInFlight = s.l2MissesInFlight;
    busyLines = s.busyLines;
    lineSendQueues = s.lineSendQueues;
    pendingL2Evicts = s.pendingL2Evicts;
    evictInFlight = s.evictInFlight;
    parked = s.parked;
    activeTransactions = s.activeTransactions;
    nextPacketId = s.nextPacketId;
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

CoherenceState
Hierarchy::l1State(CoreId core, Addr addr) const
{
    const CacheLineInfo *line =
        cores.at(core).array.findLine(lineAlign(addr));
    return line ? line->state : CoherenceState::Invalid;
}

bool
Hierarchy::l1Dirty(CoreId core, Addr addr) const
{
    const CacheLineInfo *line =
        cores.at(core).array.findLine(lineAlign(addr));
    return line && line->dirty();
}

CoherenceState
Hierarchy::l2State(Addr addr) const
{
    const CacheLineInfo *line = l2.findLine(lineAlign(addr));
    return line ? line->state : CoherenceState::Invalid;
}

bool
Hierarchy::l2Dirty(Addr addr) const
{
    const CacheLineInfo *line = l2.findLine(lineAlign(addr));
    return line && line->dirty();
}

std::size_t
Hierarchy::writebacksPending() const
{
    std::size_t total = 0;
    for (const auto &l1 : cores)
        total += l1.writebacks.size();
    return total;
}

} // namespace strand
