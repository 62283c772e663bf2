/**
 * @file
 * Per-user bookkeeping helpers of the slot loops: the SoftRate/ARQ
 * configuration, frame and delivery recording, the horizon ACK
 * drain, result finishing (trace finalize, end-to-end latency, the
 * user-order aggregate), packet-trace plumbing, UserStats
 * serialization and the scalar interference fade (the readable twin
 * of the sinrAccumBatch kernel). Internal to the sim module; the
 * multi-cell engine (multicell_sim.cc) and the single-cell loop
 * (network_sim.cc) both use it, so each step is written once.
 *
 * Concurrency discipline for everything in this header: all state
 * (TraceCtx, per-user stats, the seq ring) is *barrier-phase
 * owned*, never locked -- between two LockstepTeam::barrier()
 * calls each structure is touched by exactly one worker (the
 * serving cell's owner, or worker 0 inside a mobility epoch with
 * the team parked at the barrier). That ownership is invisible to
 * lock-based static analysis, so it is enforced dynamically: the
 * CI TSan leg runs the threaded suites at 8 workers, where any
 * phase-ownership violation is a hard data-race report (the
 * barrier itself is pure release/acquire atomics, see
 * common/lockstep.hh, so TSan needs no suppressions).
 */

#ifndef WILIS_SIM_MULTICELL_DETAIL_HH
#define WILIS_SIM_MULTICELL_DETAIL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/arq.hh"
#include "mac/packet_trace.hh"
#include "mac/scheduler.hh"
#include "mac/softrate.hh"
#include "mac/traffic.hh"
#include "phy/modulation.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/network_sim.hh"
#include "sim/workers.hh"

namespace wilis {
namespace sim {
namespace detail {

/**
 * Unit-mean exponential deviate (Rayleigh power fading) for one
 * interference link at one slot, keyed so any (user, cell, slot)
 * can be regenerated independently. Interferer identity changes
 * slot to slot, so i.i.d. per-slot fading is the right model --
 * temporal correlation only matters on the serving link, where the
 * rate controller tracks it. The batched twin lives in the
 * sinrAccumBatch kernel (common/kernels_impl.hh).
 */
inline double
interferenceFade(const CounterRng &stream, std::uint64_t counter)
{
    double u = 1.0 - stream.doubleAt(counter);
    if (u < 1e-300)
        u = 1e-300;
    return -std::log(u);
}

/** SoftRate configuration of every user of @p spec. */
inline mac::SoftRateMac::Config
softRateConfig(const NetworkSpec &spec)
{
    mac::SoftRateMac::Config c;
    c.pberLo = spec.pberLo;
    c.pberHi = spec.pberHi;
    c.initialRate = spec.link.rate;
    return c;
}

/** ARQ configuration of every user of @p spec. */
inline mac::Arq::Config
arqConfig(const NetworkSpec &spec)
{
    mac::Arq::Config c;
    c.mode = spec.arqMode;
    c.window = spec.arqWindow;
    c.maxAttempts = spec.arqMaxAttempts;
    c.ackDelaySlots = spec.ackDelaySlots;
    return c;
}

/**
 * Identity of the queued packet an in-flight ARQ sequence number
 * carries: the traffic queue's packet id, its arrival slot and its
 * class -- what Grant/Tx/Ack/Expire trace events are stamped with.
 */
struct PktRef {
    /** Per-user packet sequence number. */
    std::uint64_t pkt = 0;
    /** Arrival slot (end-to-end latency baseline). */
    std::uint64_t arrival = 0;
    /** Traffic class. */
    mac::TrafficClass cls = mac::TrafficClass::Data;
};

/**
 * One user's packet-trace recording context: a null trace disables
 * every hook (the untraced hot path pays a single branch), and the
 * ring maps in-window ARQ sequence numbers back to packet
 * identities (an ARQ seq S is delivered before seq S + window can
 * pop, so window-sized storage suffices).
 */
struct TraceCtx {
    /** Destination trace; null = recording disabled. */
    mac::PacketTrace *trace = nullptr;
    /** Recording shard (the owning cell or user lane). */
    int shard = 0;
    /** Serving cell stamped on events. */
    int cell = 0;
    /** Global user id stamped on events. */
    int user = 0;
    /** ARQ seq -> packet identity, indexed by seq % window. */
    std::vector<PktRef> ring;

    /** Attach to @p t and size the seq ring for @p window. */
    void
    bind(mac::PacketTrace *t, int shard_, int cell_, int user_,
         int window)
    {
        trace = t;
        shard = shard_;
        cell = cell_;
        user = user_;
        ring.assign(static_cast<size_t>(window), PktRef{});
    }

    /**
     * Re-point the recording lane and stamped cell after a
     * serving-cell handover, *preserving* the seq ring -- in-flight
     * ARQ sequence numbers keep their packet identities across the
     * migration (bind() would wipe them).
     */
    void
    rebind(int shard_, int cell_)
    {
        shard = shard_;
        cell = cell_;
    }

    /** The identity slot of ARQ sequence number @p seq. */
    PktRef &
    ref(std::uint64_t seq)
    {
        return ring[static_cast<size_t>(
            seq % static_cast<std::uint64_t>(ring.size()))];
    }

    /**
     * Serialize the recording lane and the seq ring (checkpoint).
     * The trace pointer is not stored -- the engine re-binds it on
     * resume (bind() then loadState(), restoring the lane and the
     * in-flight packet identities bind() wiped). The lane *is*
     * stored because a churned-out user keeps its pre-departure
     * binding until the next join rebinds it, and the resumed run
     * must reproduce that exactly.
     */
    void
    saveState(SnapshotWriter &w) const
    {
        w.i64(shard);
        w.i64(cell);
        w.u64(ring.size());
        for (const PktRef &r : ring) {
            w.u64(r.pkt);
            w.u64(r.arrival);
            w.u8(static_cast<std::uint8_t>(r.cls));
        }
    }

    /** Restore state written by saveState() (after bind()). */
    void
    loadState(SnapshotReader &r)
    {
        shard = static_cast<int>(r.i64());
        cell = static_cast<int>(r.i64());
        const std::uint64_t n = r.u64();
        wilis_assert(n == ring.size(),
                     "snapshot trace ring has %llu slots, bound "
                     "ring has %zu",
                     static_cast<unsigned long long>(n),
                     ring.size());
        for (PktRef &p : ring) {
            p.pkt = r.u64();
            p.arrival = r.u64();
            p.cls = static_cast<mac::TrafficClass>(r.u8());
        }
    }
};

/** Bind ARQ seq @p seq to the popped packet @p p (trace only). */
inline void
notePop(TraceCtx &tc, std::uint64_t seq, const mac::Packet &p)
{
    if (!tc.trace)
        return;
    tc.ref(seq) = PktRef{p.seq, p.arrival, p.cls};
}

/** Record a scheduler grant of ARQ seq @p seq at slot @p t. */
inline void
recordGrant(TraceCtx &tc, std::uint64_t t, std::uint64_t seq,
            int attempts, std::int64_t first_wait)
{
    if (!tc.trace)
        return;
    const PktRef &r = tc.ref(seq);
    tc.trace->record(
        tc.shard,
        mac::PacketTrace::Entry{t, tc.cell, tc.user, r.cls, r.pkt,
                                mac::PacketEvent::Grant, attempts,
                                first_wait});
}

/** Record the transmission outcome of ARQ seq @p seq at @p t. */
inline void
recordTx(TraceCtx &tc, std::uint64_t t, std::uint64_t seq, bool ok,
         int rate)
{
    if (!tc.trace)
        return;
    const PktRef &r = tc.ref(seq);
    tc.trace->record(
        tc.shard,
        mac::PacketTrace::Entry{t, tc.cell, tc.user, r.cls, r.pkt,
                                mac::PacketEvent::Tx, ok ? 1 : 0,
                                rate});
}

/**
 * Record one ARQ delivery into the user's statistics, emitting the
 * trace's Ack/Expire event when @p tc has a bound trace (@p now is
 * the delivery slot). @p post_ho routes a successful delivery's
 * payload into the post-first-handover goodput accumulator instead
 * of the pre-handover one (mobility runs only; the totals always
 * land in goodputBits).
 */
inline void
recordDelivery(UserStats &st, const mac::Arq::Delivery &d,
               size_t payload_bits, std::uint64_t now, TraceCtx &tc,
               bool post_ho = false)
{
    st.attemptsHist.add(static_cast<double>(d.attempts));
    if (tc.trace) {
        const PktRef &r = tc.ref(d.seq);
        tc.trace->record(
            tc.shard,
            mac::PacketTrace::Entry{
                now, tc.cell, tc.user, r.cls, r.pkt,
                d.dropped ? mac::PacketEvent::Expire
                          : mac::PacketEvent::Ack,
                d.attempts,
                static_cast<std::int64_t>(now - r.arrival)});
    }
    if (d.dropped) {
        ++st.dropped;
        return;
    }
    ++st.delivered;
    st.goodputBits += payload_bits;
    if (post_ho)
        st.goodputBitsPostHo += payload_bits;
    else
        st.goodputBitsPreHo += payload_bits;
    st.latencySlots.add(static_cast<double>(d.latencySlots));
    st.latencyHist.add(static_cast<double>(d.latencySlots));
}

/**
 * Record the outcome @p res of ARQ seq @p seq sent at slot @p t and
 * rate @p rate -- by the full-PHY rung if @p full_phy, else by the
 * analytic one: the frame counters and rate histogram, the trace's
 * Tx event, then SoftRate's feedback and ARQ's send result.
 */
inline void
recordFrame(UserStats &st, TraceCtx &tc, mac::SoftRateMac &softrate,
            mac::Arq &arq, std::uint64_t t, std::uint64_t seq,
            phy::RateIndex rate, const LinkFrameResult &res,
            bool full_phy)
{
    ++st.framesSent;
    st.framesOk += res.ok ? 1 : 0;
    if (full_phy)
        ++st.fullPhyFrames;
    else
        ++st.analyticFrames;
    st.rateHist.add(static_cast<double>(rate));
    recordTx(tc, t, seq, res.ok, static_cast<int>(rate));
    softrate.onFeedback(res.pber);
    arq.onSendResult(seq, res.ok);
}

/**
 * Drain acknowledgements still in flight at the @p slots horizon so
 * their deliveries are counted (no new transmissions): ARQ ticks at
 * slots .. slots + ackDelaySlots, @p tail being the scratch list.
 */
inline void
drainAcks(mac::Arq &arq, UserStats &st, const NetworkSpec &spec,
          std::uint64_t slots, TraceCtx &tc, bool post_ho,
          std::vector<mac::Arq::Delivery> &tail)
{
    for (std::uint64_t t = slots; t <= slots + spec.ackDelaySlots;
         ++t) {
        tail.clear();
        arq.tick(t, tail);
        for (const auto &d : tail)
            recordDelivery(st, d, spec.link.payloadBits, t, tc,
                           post_ho);
    }
}

/**
 * Finish @p res once res.users holds every user in id order:
 * finalize @p trace (if any) into the canonical order and fill each
 * user's end-to-end latency histogram from its Ack events in that
 * order, then merge the aggregate in user order -- a fixed merge
 * sequence, so the merged floating-point statistics are
 * deterministic too.
 */
inline void
finishResult(NetworkResult &res,
             const std::shared_ptr<mac::PacketTrace> &trace)
{
    if (trace) {
        trace->finalize();
        for (const mac::PacketTrace::Entry &e : trace->entries()) {
            if (e.event == mac::PacketEvent::Ack)
                res.users[static_cast<size_t>(e.user)]
                    .e2eLatencyHist.add(static_cast<double>(e.arg1));
        }
        res.trace = trace;
    }
    res.aggregate = UserStats();
    res.aggregate.user = -1;
    for (const UserStats &u : res.users)
        res.aggregate.merge(u);
}

/**
 * Record one mobility session event (handover / join / leave) into
 * @p trace. Session events are stamped seq = 0, class = data; the
 * shard is the event's *entry* cell (new cell for a handover or
 * join, the departed cell for a leave), matching the trace-format
 * spec. @p flushed / @p aborted fill the Leave arguments and are
 * ignored by the other kinds. No-op when @p trace is null.
 */
inline void
recordMobilityEvent(mac::PacketTrace *trace, std::uint64_t t,
                    const MobilityRuntime::Event &ev, int flushed,
                    int aborted)
{
    if (!trace)
        return;
    mac::PacketTrace::Entry e{t,
                              ev.toCell,
                              ev.user,
                              mac::TrafficClass::Data,
                              0,
                              mac::PacketEvent::Handover,
                              ev.fromCell,
                              ev.pingPong ? 1 : 0};
    switch (ev.kind) {
      case MobilityRuntime::Event::Kind::Handover:
        break;
      case MobilityRuntime::Event::Kind::Join:
        e.event = mac::PacketEvent::Join;
        e.arg1 = 0;
        break;
      case MobilityRuntime::Event::Kind::Leave:
        e.event = mac::PacketEvent::Leave;
        e.cell = ev.fromCell;
        e.arg0 = flushed;
        e.arg1 = aborted;
        break;
    }
    trace->record(e.cell, e);
}

/** Serialize one RunningStats by raw accumulator state (exact). */
inline void
saveStats(SnapshotWriter &w, const RunningStats &s)
{
    const RunningStats::State st = s.state();
    w.u64(st.n);
    w.f64(st.offset);
    w.f64(st.sum);
    w.f64(st.sum_sq);
}

/** Inverse of saveStats(). */
inline RunningStats
loadStats(SnapshotReader &r)
{
    RunningStats::State st;
    st.n = r.u64();
    st.offset = r.f64();
    st.sum = r.f64();
    st.sum_sq = r.f64();
    return RunningStats::fromState(st);
}

/**
 * Serialize one Histogram's counts. An empty histogram writes only
 * its zero total, preserving the lazy-allocation state on resume.
 */
inline void
saveHist(SnapshotWriter &w, const Histogram &h)
{
    w.u64(h.total());
    if (h.total() == 0)
        return;
    for (int b = 0; b < h.numBins(); ++b)
        w.u64(h.count(b));
}

/** Inverse of saveHist() (into a same-binning histogram). */
inline void
loadHist(SnapshotReader &r, Histogram &h)
{
    const std::uint64_t total = r.u64();
    std::vector<std::uint64_t> counts;
    if (total > 0) {
        counts.resize(static_cast<size_t>(h.numBins()));
        for (std::uint64_t &c : counts)
            c = r.u64();
    }
    h.restore(counts, total);
}

/**
 * Serialize one user's statistics (checkpoint). Field order is
 * declaration order in UserStats.
 */
inline void
saveUserStats(SnapshotWriter &w, const UserStats &st)
{
    w.marker(0x54415355); // "USAT"
    w.i64(st.user);
    w.f64(st.snrOffsetDb);
    w.i64(st.servingCell);
    w.f64(st.meanSnrDb);
    w.u64(st.framesSent);
    w.u64(st.framesOk);
    w.u64(st.stalledSlots);
    w.u64(st.retransmissions);
    w.u64(st.delivered);
    w.u64(st.dropped);
    w.u64(st.goodputBits);
    w.u64(st.fullPhyFrames);
    w.u64(st.analyticFrames);
    w.u64(st.arrivals);
    w.u64(st.queueDrops);
    w.u64(st.handovers);
    w.u64(st.pingPongs);
    w.u64(st.joins);
    w.u64(st.leaves);
    w.u64(st.goodputBitsPreHo);
    w.u64(st.goodputBitsPostHo);
    w.u64(st.preHoSlots);
    w.u64(st.postHoSlots);
    saveStats(w, st.latencySlots);
    saveStats(w, st.queueWaitSlots);
    saveStats(w, st.sinrDb);
    saveHist(w, st.latencyHist);
    saveHist(w, st.attemptsHist);
    saveHist(w, st.rateHist);
    saveHist(w, st.queueWaitHist);
    saveHist(w, st.e2eLatencyHist);
}

/** Inverse of saveUserStats(). */
inline void
loadUserStats(SnapshotReader &r, UserStats &st)
{
    r.marker(0x54415355);
    st.user = static_cast<int>(r.i64());
    st.snrOffsetDb = r.f64();
    st.servingCell = static_cast<int>(r.i64());
    st.meanSnrDb = r.f64();
    st.framesSent = r.u64();
    st.framesOk = r.u64();
    st.stalledSlots = r.u64();
    st.retransmissions = r.u64();
    st.delivered = r.u64();
    st.dropped = r.u64();
    st.goodputBits = r.u64();
    st.fullPhyFrames = r.u64();
    st.analyticFrames = r.u64();
    st.arrivals = r.u64();
    st.queueDrops = r.u64();
    st.handovers = r.u64();
    st.pingPongs = r.u64();
    st.joins = r.u64();
    st.leaves = r.u64();
    st.goodputBitsPreHo = r.u64();
    st.goodputBitsPostHo = r.u64();
    st.preHoSlots = r.u64();
    st.postHoSlots = r.u64();
    st.latencySlots = loadStats(r);
    st.queueWaitSlots = loadStats(r);
    st.sinrDb = loadStats(r);
    loadHist(r, st.latencyHist);
    loadHist(r, st.attemptsHist);
    loadHist(r, st.rateHist);
    loadHist(r, st.queueWaitHist);
    loadHist(r, st.e2eLatencyHist);
}

} // namespace detail
} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_MULTICELL_DETAIL_HH
