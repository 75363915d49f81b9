#include "net/link.hh"

#include <algorithm>

#include "net/power_trace.hh"
#include "sim/log.hh"

namespace memnet
{

namespace
{

/** Observer used when none is attached. */
LinkObserver nullObserver;

} // namespace

Link::Link(EventQueue &eq, int id, LinkType type, int module,
           const ModeTable *table, const RooConfig *roo,
           double full_power_w, PacketSink *sink,
           const LinkErrorModel *errors)
    : eq(eq),
      id_(id),
      type_(type),
      module_(module),
      pstate(table, roo),
      fullPowerW(full_power_w),
      sink(sink),
      observer(&nullObserver),
      errors_(errors ? *errors : LinkErrorModel{}),
      errorRng(0x5eed5ULL + static_cast<std::uint64_t>(id),
               0x1234567ULL)
{
    idleStart = eq.now();
    lastAccrue = eq.now();
}

void
Link::setObserver(LinkObserver *obs)
{
    observer = obs ? obs : &nullObserver;
}

void
Link::accrue(Tick now)
{
    memnet_assert(now >= lastAccrue, "link accounting went backwards");
    if (now == lastAccrue)
        return;
    const double dt = toSeconds(now - lastAccrue);
    // State is constant over [lastAccrue, now): every state change calls
    // accrue() first, and a checkpoint event fires at transition ends.
    const double pf = pstate.powerFrac(lastAccrue);
    const double w = fullPowerW * pf;
    stats_.powerFracSeconds += pf * dt;
    if (busy) {
        stats_.txJ += w * dt;
    } else if (retraining_) {
        // Training sequences exercise the lanes at on-state power.
        stats_.retrainJ += w * dt;
        stats_.retrainSeconds += dt;
    } else if (pstate.rooState() == RooState::Off) {
        stats_.sleepJ += w * dt;
    } else if (pstate.rooState() == RooState::Waking) {
        stats_.wakeJ += w * dt;
    } else {
        stats_.idleFloorJ[pstate.modeIndex()] += w * dt;
    }
    if (pstate.degraded())
        stats_.degradedSeconds += dt;
    stats_.modeSeconds[pstate.modeIndex()] += dt;
    if (pstate.rooState() == RooState::Off)
        stats_.offSeconds += dt;
    lastAccrue = now;
}

void
Link::resetStats()
{
    accrue(eq.now());
    stats_ = LinkStats{};
    occupancy_.reset();
}

void
Link::exitIdle(Tick now)
{
    if (!idle)
        return;
    observer->onIdleEnd(*this, idleStart, now);
    idle = false;
    if (sleepEvent.scheduled())
        eq.deschedule(&sleepEvent);
}

void
Link::stampWaitStart(Packet *pkt, Tick now)
{
    pkt->latWaitStart = now;
    pkt->latWakeRef = wakeStallAccum(now);
    pkt->latRetrainRef = retrainStallAccum(now);
}

void
Link::noteQueueDepth(Tick now)
{
    const std::uint64_t depth = queued();
    occupancy_.record(depth);
    if (depth > stats_.queuePeak) {
        stats_.queuePeak = depth;
        if (trace_)
            trace_->linkQueueDepth(*this, now, depth);
    }
}

void
Link::enqueue(Packet *pkt)
{
    const Tick now = eq.now();
    pkt->linkArrival = now;
    stampWaitStart(pkt, now);
    exitIdle(now);
    if (isReadPacket(pkt->type))
        readQ.push_back(pkt);
    else
        writeQ.push_back(pkt);
    noteQueueDepth(now);
    observer->onEnqueue(*this, *pkt, now);
    if (pstate.rooState() == RooState::Off)
        beginWakeInternal(now);
    tryStart();
}

void
Link::tryStart()
{
    if (busy || retraining_)
        return;
    const Tick now = eq.now();
    if (readQ.empty() && writeQ.empty()) {
        if (!idle) {
            idle = true;
            idleStart = now;
            noteSleepOpportunity();
        }
        return;
    }
    if (pstate.rooState() != RooState::On)
        return; // wake in progress; onWakeDone() restarts us
    if (!readQ.empty()) {
        current = readQ.front();
        readQ.pop_front();
    } else {
        current = writeQ.front();
        writeQ.pop_front();
    }
    accrue(now);
    busy = true;

    // Latency observatory: the wait interval [latWaitStart, now) ends
    // here. The monotonic accumulator deltas say how much of it
    // overlapped a wake sequence / retrain window; both are clamped to
    // the wait (a retrain can run concurrently with a wake, and a
    // wake/retrain may predate the arrival), and the remainder is plain
    // queueing — which therefore also absorbs CRC-retry turnarounds and
    // aborted-serialization replays.
    const Tick waited = now - current->latWaitStart;
    Tick retrain_part = retrainStallAccum(now) - current->latRetrainRef;
    if (retrain_part > waited)
        retrain_part = waited;
    Tick wake_part = wakeStallAccum(now) - current->latWakeRef;
    if (wake_part > waited - retrain_part)
        wake_part = waited - retrain_part;
    current->latRetrainStallPs += retrain_part;
    current->latWakeStallPs += wake_part;
    current->latQueuePs += waited - wake_part - retrain_part;
    // Adding +0.0 to these non-negative sums changes nothing; skip it.
    if (wake_part != 0)
        stats_.wakeStallSeconds += toSeconds(wake_part);
    if (retrain_part != 0)
        stats_.retrainStallSeconds += toSeconds(retrain_part);
    // Re-open the wait in case this serialization aborts (CRC retry or
    // retrain replay re-admit the packet without passing enqueue()).
    stampWaitStart(current, now);
    current->latSerStart = now;

    if (trace_)
        txStart_ = now;
    const Tick tx_end = now + current->flits * pstate.flitTime(now);
    eq.schedule(&txDoneEvent, tx_end);
}

void
Link::onTxDone()
{
    const Tick now = eq.now();
    memnet_assert(busy && current, "txDone while idle");
    accrue(now);
    busy = false;

    stats_.flits += static_cast<std::uint64_t>(current->flits);
    if (trace_)
        trace_->linkTx(*this, txStart_, now, current->flits);

    // CRC check at the receiver: a corrupted packet is NAKed and
    // retransmitted from the retry buffer after the turnaround delay.
    const double fer = flitErrorRate();
    if (fer > 0.0) {
        double p_ok = 1.0;
        for (int f = 0; f < current->flits; ++f)
            p_ok *= 1.0 - fer;
        if (!errorRng.chance(p_ok)) {
            ++stats_.retries;
            if (trace_)
                trace_->linkRetry(*this, now);
            Packet *retry = current;
            current = nullptr;
            eq.schedule(now + errors_.retryDelayPs,
                        [this, retry] { admitRetry(retry); });
            return;
        }
    }

    ++stats_.packets;
    if (isReadPacket(current->type))
        ++stats_.readPackets;

    // Last flit still crosses SERDES and the downstream router pipeline.
    Tick deliver_at = now + pstate.serdes(now) + LinkTiming::kRouterPs;
    if (!pipe.empty())
        deliver_at = std::max(deliver_at, pipe.back().second);
    const bool was_empty = pipe.empty();
    pipe.emplace_back(current, deliver_at);
    current = nullptr;
    if (was_empty)
        eq.schedule(&deliverEvent, deliver_at);

    tryStart();
}

void
Link::admitRetry(Packet *retry)
{
    // A retry lands like a (front-of-queue) arrival: the link may have
    // gone idle — or all the way into a sleep transition — during the
    // NAK turnaround, so the idle interval must be closed and an off
    // link must be woken, exactly as enqueue() does. (The observer's
    // onEnqueue is NOT replayed: the packet already counted once.)
    const Tick now = eq.now();
    exitIdle(now);
    if (isReadPacket(retry->type))
        readQ.push_front(retry);
    else
        writeQ.push_front(retry);
    noteQueueDepth(now);
    if (pstate.rooState() == RooState::Off)
        beginWakeInternal(now);
    tryStart();
}

void
Link::onDeliver()
{
    memnet_assert(!pipe.empty(), "delivery with empty pipe");
    auto [pkt, at] = pipe.front();
    pipe.pop_front();
    const Tick now = eq.now();
    // Everything since serialization started — lane time, SERDES, the
    // router pipeline, and any pipe backpressure — is the hop's
    // serialization component.
    pkt->latSerPs += now - pkt->latSerStart;
    observer->onDepart(*this, *pkt, now);
    if (!pipe.empty())
        eq.schedule(&deliverEvent, pipe.front().second);
    sink->accept(pkt, now);
}

void
Link::noteSleepOpportunity()
{
    if (!idle || retraining_ || !pstate.rooEnabled() ||
        pstate.rooState() != RooState::On) {
        return;
    }
    eq.reschedule(&sleepEvent,
                  std::max(eq.now(), idleStart + pstate.idleThreshold()));
}

void
Link::onSleepTimer()
{
    const Tick now = eq.now();
    // Every idle start and threshold change re-arms the timer and every
    // idle end cancels it, so it only fires on an idle, on link whose
    // threshold has passed.
    memnet_assert(idle && !retraining_ &&
                      pstate.rooState() == RooState::On &&
                      now - idleStart >= pstate.idleThreshold(),
                  "stale sleep timer on link ", id_);
    if (!observer->maySleep(*this, now))
        return; // manager will call noteSleepOpportunity() later
    accrue(now);
    pstate.turnOff();
    if (trace_)
        sleepStart_ = now;
    observer->onSleep(*this, now);
}

void
Link::beginWakeInternal(Tick now)
{
    memnet_assert(pstate.rooState() == RooState::Off, "wake while on");
    accrue(now);
    const Tick end = pstate.beginWake(now);
    wakeStart_ = now;
    if (trace_)
        trace_->linkOff(*this, sleepStart_, now);
    observer->onWakeBegin(*this, now);
    eq.schedule(&wakeEvent, end);
}

void
Link::wakeNow()
{
    if (pstate.rooState() == RooState::Off)
        beginWakeInternal(eq.now());
}

void
Link::onWakeDone()
{
    const Tick now = eq.now();
    pstate.finishWake();
    wakePsTotal_ += now - wakeStart_;
    if (trace_) {
        trace_->linkWake(*this, wakeStart_, now);
        trace_->linkStall(*this, now);
    }
    tryStart();
    if (readQ.empty() && writeQ.empty() && idle) {
        // Externally woken with nothing to send: restart the idle clock.
        idleStart = eq.now();
        noteSleepOpportunity();
    }
}

void
Link::applyModes(std::size_t bw_idx, std::size_t roo_idx)
{
    const Tick now = eq.now();
    accrue(now);
    if (trace_ && (bw_idx != lastTraceBw_ || roo_idx != lastTraceRoo_)) {
        trace_->linkModeChange(*this, now, bw_idx, roo_idx);
        lastTraceBw_ = bw_idx;
        lastTraceRoo_ = roo_idx;
    }
    const Tick trans_end = pstate.setMode(now, bw_idx);
    if (trans_end > now)
        eq.reschedule(&checkpointEvent, trans_end);
    if (pstate.rooEnabled()) {
        pstate.setRooMode(roo_idx);
        noteSleepOpportunity();
    }
}

void
Link::forceFullPower()
{
    // Full power is bandwidth mode 0; for ROO links it is the largest
    // idleness threshold (Section V-B). A degraded link's "full power"
    // is its widest surviving mode (setMode clamps).
    applyModes(0, pstate.rooEnabled() ? pstate.rooFullModeIndex() : 0);
}

// ---------------------------------------------------------------------
// Fault handling
// ---------------------------------------------------------------------

void
Link::beginRetrain(Tick window)
{
    memnet_assert(window > 0, "retrain window must be positive");
    const Tick now = eq.now();
    accrue(now);

    // Retraining is lane activity: close any idle interval so the ROO
    // histogram never sees a retrain window as exploitable idleness.
    exitIdle(now);

    // Abort the in-flight serialization; the packet is replayed from
    // the front of its queue once the link is back up. Packets already
    // past the link (SERDES/router pipe) continue to deliver.
    if (busy) {
        memnet_assert(current, "busy without a packet");
        eq.deschedule(&txDoneEvent);
        Packet *p = current;
        current = nullptr;
        busy = false;
        if (isReadPacket(p->type))
            readQ.push_front(p);
        else
            writeQ.push_front(p);
        ++stats_.replays;
        noteQueueDepth(now);
    }

    if (!retraining_) {
        retraining_ = true;
        ++stats_.retrains;
        retrainStart_ = now;
        observer->onRetrainBegin(*this, now);
    }
    retrainEnd_ = std::max(retrainEnd_, now + window);
    eq.reschedule(&retrainEvent, retrainEnd_);

    // An off link trains on the way up: start the wake in parallel.
    if (pstate.rooState() == RooState::Off)
        beginWakeInternal(now);
}

void
Link::onRetrainDone()
{
    const Tick now = eq.now();
    memnet_assert(retraining_, "retrain end without retrain");
    accrue(now);
    retraining_ = false;
    retrainPsTotal_ += now - retrainStart_;
    if (trace_) {
        trace_->linkRetrain(*this, retrainStart_, now);
        trace_->linkStall(*this, now);
    }
    observer->onRetrainEnd(*this, now);
    // Resume service; with empty queues this restarts the idle clock.
    tryStart();
}

void
Link::setLaneLimit(int lanes)
{
    memnet_assert(lanes >= 1 && lanes <= LinkPowerState::kFullLanes,
                  "lane limit out of range: ", lanes);
    if (lanes >= pstate.laneClamp())
        return; // lanes never come back
    const Tick now = eq.now();
    accrue(now);
    pstate.setLaneClamp(lanes);
    if (trace_)
        trace_->linkDegrade(*this, now, lanes);
    observer->onDegrade(*this, lanes, now);
}

} // namespace memnet
