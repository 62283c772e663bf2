/**
 * @file
 * The multi-cell slot engine (see multicell_sim.hh for the model).
 * Per-user state lives in per-cell contiguous structure-of-arrays
 * blocks, and phase 2's math runs through the runtime-dispatched
 * kernels:
 *
 *   sinrAccumBatch -- interference fades (counter-RNG in u64
 *       lanes), gain-weighted accumulation and dB conversion for
 *       every granted user of a worker's cells in one call;
 *   perDrawBatch   -- calibrated PER interpolation + Bernoulli
 *       frame draws over the flattened table for the same batch.
 *
 * Every kernel lane computes the textually identical scalar
 * expression (see kernels_impl.hh), so results are bit-identical at
 * any thread count and on any kernel backend -- pinned by the golden
 * per-user hashes in tests/test_multicell.cc.
 *
 * Immutable derived per-user state (Jakes oscillator banks, forked
 * stream keys, serving gains, the flattened calibration table) is a
 * pure function of (spec, topology, table) and is cached across
 * run() calls in McSoaCache, owned by NetworkSim.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <utility>
#include <vector>

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "common/kernels.hh"
#include "common/lockstep.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/arq.hh"
#include "mac/scheduler.hh"
#include "mac/softrate.hh"
#include "mac/traffic.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/multicell_detail.hh"
#include "sim/multicell_sim.hh"
#include "sim/worker_phy.hh"

namespace wilis {
namespace sim {

using detail::notePop;
using detail::recordDelivery;
using detail::recordFrame;
using detail::recordGrant;
using detail::recordMobilityEvent;

/** See the declaration in multicell_sim.hh. */
struct McSoaCache {
    // ---- fingerprint of the inputs this cache was derived from
    std::uint64_t seed = 0;
    double dopplerHz = 0.0;
    double frameIntervalUs = 0.0;
    const Topology *topo = nullptr;
    const softphy::CalibrationTable *table = nullptr;

    // ---- layout: SoA index = position in cell-major user order
    // (cell 0's users by increasing id, then cell 1's, ...), so
    // each cell's state is one contiguous block.
    std::vector<int> order;               // soa index -> user id
    std::vector<int> soaOf;               // user id -> soa index
    std::vector<std::uint32_t> cellBegin; // cells + 1 offsets

    // ---- immutable per-user derived state, soa-indexed
    std::vector<std::int32_t> serving;    // serving cell
    std::vector<double> servGain;         // serving link, linear
    std::vector<double> meanSnr;          // serving link, dB
    std::vector<const double *> gainRows; // into topo's matrix
    std::vector<std::uint64_t> payloadSeed;
    std::vector<std::uint64_t> trafficSeed;
    std::vector<std::uint64_t> drawKey;  // analytic success draws
    std::vector<std::uint64_t> interfKey; // interference fades
    std::vector<std::uint64_t> awgnSeed;
    std::vector<channel::JakesFader> faders; // gainAt() is const

    // ---- flattened calibration (analytic/auto modes only)
    softphy::FlatCalibration flat;
    bool hasFlat = false;
};

namespace {

bool
cacheMatches(const McSoaCache &c, const NetworkSpec &spec,
             const Topology &topo,
             const softphy::CalibrationTable *table)
{
    return c.seed == spec.seed && c.dopplerHz == spec.dopplerHz &&
           c.frameIntervalUs == spec.frameIntervalUs &&
           c.topo == &topo && c.table == table &&
           static_cast<int>(c.order.size()) == topo.numUsers();
}

std::shared_ptr<McSoaCache>
buildCache(const NetworkSpec &spec, const Topology &topo,
           const softphy::CalibrationTable *table, int threads)
{
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    auto cache = std::make_shared<McSoaCache>();
    cache->seed = spec.seed;
    cache->dopplerHz = spec.dopplerHz;
    cache->frameIntervalUs = spec.frameIntervalUs;
    cache->topo = &topo;
    cache->table = table;

    cache->order.reserve(static_cast<size_t>(num_users));
    cache->cellBegin.reserve(static_cast<size_t>(cells) + 1);
    cache->cellBegin.push_back(0);
    for (int c = 0; c < cells; ++c) {
        for (int id : topo.cellUsers(c))
            cache->order.push_back(id);
        cache->cellBegin.push_back(
            static_cast<std::uint32_t>(cache->order.size()));
    }
    cache->soaOf.assign(static_cast<size_t>(num_users), -1);
    for (int i = 0; i < num_users; ++i)
        cache->soaOf[static_cast<size_t>(cache->order[
            static_cast<size_t>(i)])] = i;

    const size_t n = static_cast<size_t>(num_users);
    cache->serving.resize(n);
    cache->servGain.resize(n);
    cache->meanSnr.resize(n);
    cache->gainRows.resize(n);
    cache->payloadSeed.resize(n);
    cache->trafficSeed.resize(n);
    cache->drawKey.resize(n);
    cache->interfKey.resize(n);
    cache->awgnSeed.resize(n);
    // Placeholder faders, each overwritten by derive().
    cache->faders.assign(n, channel::JakesFader(spec.dopplerHz, 0));
    auto derive = [&](size_t i) {
        const int id = cache->order[i];
        const int cell = topo.servingCell(id);
        cache->serving[i] = static_cast<std::int32_t>(cell);
        cache->servGain[i] = topo.linkGainLin(id, cell);
        cache->meanSnr[i] = topo.servingSnrDb(id);
        cache->gainRows[i] = topo.gainRow(id);
        // Chained forks: one purpose family, then the user id, so
        // no user's stream can alias another family's (XOR-ing ids
        // into the constant would collide at user counts above the
        // constants' XOR distance).
        const CounterRng seeds =
            CounterRng(spec.seed)
                .fork(0xCE77ull)
                .fork(static_cast<std::uint64_t>(id));
        cache->payloadSeed[i] = seeds.at(1);
        cache->trafficSeed[i] = seeds.at(2);
        cache->drawKey[i] = seeds.at(3);
        cache->interfKey[i] = seeds.at(4);
        cache->awgnSeed[i] = seeds.at(5);
        cache->faders[i] = channel::JakesFader(spec.dopplerHz, seeds.at(0));
    };
    // Every lane is keyed by the user id alone, so users derive in
    // parallel ranges.
    const int workers =
        detail::rangeWorkers(threads, num_users, detail::kUserGrain);
    detail::forEachRange(workers, num_users, [&](detail::Range range) {
        for (int i = range.lo; i < range.hi; ++i)
            derive(static_cast<size_t>(i));
    });

    if (table) {
        cache->flat = table->flatten();
        cache->hasFlat = true;
    }
    return cache;
}

/**
 * One run's mutable state: per-user lanes indexed by SoA index,
 * per-cell lanes by cell. Grouped so the checkpoint functions below
 * read and write it directly.
 */
struct McState {
    std::vector<mac::Arq> arqs;
    std::vector<mac::TrafficSource> traffic;
    std::vector<mac::SoftRateMac> softrate;
    std::vector<UserStats> stats;
    std::vector<detail::TraceCtx> tctx;
    // Serving-link gain: the cache's static value, moved by the
    // mobility epochs.
    std::vector<double> servGain;
    // Cell membership: SoA indices ordered by global user id (the
    // order scheduler-local indices refer to).
    std::vector<std::vector<std::uint32_t>> members;
    std::vector<mac::CellScheduler> scheds;
    std::vector<std::vector<std::uint8_t>> eligible;
    std::vector<std::vector<std::uint8_t>> urgent; // queued control
    std::vector<std::vector<double>> instRate;
    // Fixed-contention airtime: a cell whose last grant saw k > 1
    // contenders is busy (no grants) until this slot.
    std::vector<std::uint64_t> busyUntil;
    std::unique_ptr<MobilityRuntime> mob;
    std::shared_ptr<mac::PacketTrace> trace;

    /** Size cell @p c's scheduler inputs to its membership. */
    void
    resizeCell(size_t c)
    {
        const size_t cn = members[c].size();
        eligible[c].resize(cn);
        urgent[c].assign(cn, 0);
        instRate[c].assign(cn, 0.0);
    }
};

// ------------------------------------------------ checkpointing

/** Payload version of the multi-cell checkpoint format. */
constexpr std::uint32_t kMcCheckpointVersion = 1;

/**
 * Serialize the state before slot @p slot to spec.checkpoint.file,
 * in this order:
 *
 *   slot, then per-user blocks in global-user-id order (member
 *   cell or -1, serving gain, SoftRate, ARQ, traffic, trace ctx if
 *   tracing, UserStats), then per-cell blocks in cell order
 *   (member ids, scheduler, busy-until slot), then the mobility
 *   runtime if enabled, then the packet trace if tracing.
 *
 * Must run with every worker parked at a barrier (single-writer).
 */
void
saveMcCheckpoint(const NetworkSpec &spec, const McSoaCache &cache,
                 const McState &st, std::uint64_t slot)
{
    std::vector<std::int64_t> cell_of(cache.order.size(), -1);
    for (size_t c = 0; c < st.members.size(); ++c)
        for (std::uint32_t i : st.members[c])
            cell_of[static_cast<size_t>(cache.order[i])] =
                static_cast<std::int64_t>(c);

    SnapshotWriter w(kMcCheckpointVersion, spec.fingerprint());
    w.u64(slot);
    for (size_t id = 0; id < cache.order.size(); ++id) {
        const size_t i = static_cast<size_t>(cache.soaOf[id]);
        w.i64(cell_of[id]);
        w.f64(st.servGain[i]);
        st.softrate[i].saveState(w);
        st.arqs[i].saveState(w);
        st.traffic[i].saveState(w);
        if (st.trace)
            st.tctx[i].saveState(w);
        detail::saveUserStats(w, st.stats[i]);
    }
    for (size_t c = 0; c < st.members.size(); ++c) {
        w.u64(st.members[c].size());
        for (std::uint32_t i : st.members[c])
            w.i64(cache.order[i]);
        st.scheds[c].saveState(w);
        w.u64(st.busyUntil[c]);
    }
    if (st.mob)
        st.mob->saveState(w);
    if (st.trace)
        st.trace->saveState(w);
    w.save(spec.checkpoint.file);
}

/**
 * Inverse of saveMcCheckpoint(): restore spec.checkpoint.file into
 * the freshly built state @p st (initial bindings done, no slots
 * run) and return the slot to resume at. Fatal, naming the file, on
 * a missing file, version or spec skew, a snapshot past the
 * @p horizon, or a membership table that is not a valid assignment
 * of users to cells.
 */
std::uint64_t
loadMcCheckpoint(const NetworkSpec &spec, const McSoaCache &cache,
                 std::uint64_t horizon, McState &st)
{
    const char *file = spec.checkpoint.file.c_str();
    SnapshotReader r(spec.checkpoint.file, kMcCheckpointVersion,
                     spec.fingerprint());
    const std::uint64_t slot = r.u64();
    if (slot > horizon)
        wilis_fatal("checkpoint '%s' is at slot %llu, past the "
                    "%llu-slot horizon",
                    file, static_cast<unsigned long long>(slot),
                    static_cast<unsigned long long>(horizon));
    const auto users = static_cast<long long>(cache.order.size());
    const auto cells = static_cast<long long>(st.members.size());
    std::vector<long long> cell_of(cache.order.size());
    long long placed = 0;
    for (long long id = 0; id < users; ++id) {
        const size_t i =
            static_cast<size_t>(cache.soaOf[static_cast<size_t>(id)]);
        const long long c = r.i64();
        if (c < -1 || c >= cells)
            wilis_fatal("checkpoint '%s': user %lld has member cell "
                        "%lld, outside [-1, %lld)",
                        file, id, c, cells);
        cell_of[static_cast<size_t>(id)] = c;
        placed += c >= 0 ? 1 : 0;
        st.servGain[i] = r.f64();
        st.softrate[i].loadState(r);
        st.arqs[i].loadState(r);
        st.traffic[i].loadState(r);
        if (st.trace)
            st.tctx[i].loadState(r);
        detail::loadUserStats(r, st.stats[i]);
    }
    long long listed = 0;
    for (size_t c = 0; c < st.members.size(); ++c) {
        const std::uint64_t n = r.u64();
        if (n > static_cast<std::uint64_t>(users))
            wilis_fatal("checkpoint '%s': cell %zu lists %llu "
                        "members, the deployment has %lld users",
                        file, c, static_cast<unsigned long long>(n),
                        users);
        std::vector<std::uint32_t> &mem = st.members[c];
        mem.clear();
        mem.reserve(static_cast<size_t>(n));
        long long prev = -1;
        for (std::uint64_t k = 0; k < n; ++k) {
            const long long id = r.i64();
            if (id <= prev || id >= users)
                wilis_fatal("checkpoint '%s': cell %zu member id "
                            "%lld is not increasing within [0, %lld)",
                            file, c, id, users);
            if (cell_of[static_cast<size_t>(id)] !=
                static_cast<long long>(c))
                wilis_fatal("checkpoint '%s': cell %zu lists user "
                            "%lld, whose member cell is %lld",
                            file, c, id,
                            cell_of[static_cast<size_t>(id)]);
            mem.push_back(static_cast<std::uint32_t>(
                cache.soaOf[static_cast<size_t>(id)]));
            prev = id;
        }
        listed += static_cast<long long>(n);
        st.scheds[c] = mac::CellScheduler(spec.scheduler,
                                          static_cast<int>(n));
        st.resizeCell(c);
        st.scheds[c].loadState(r);
        st.busyUntil[c] = r.u64();
    }
    if (listed != placed)
        wilis_fatal("checkpoint '%s': %lld users have a member cell, "
                    "but the cells list %lld",
                    file, placed, listed);
    if (st.mob)
        st.mob->loadState(r);
    if (st.trace)
        st.trace->loadState(r);
    r.done();
    // Re-point the traffic sources' trace lanes at the restored
    // serving cells (the trace contexts restore their own lane; a
    // churned-out user keeps its initial binding, which is dormant
    // until the next join rebinds it).
    if (st.trace) {
        for (long long id = 0; id < users; ++id) {
            const int c = static_cast<int>(
                cell_of[static_cast<size_t>(id)]);
            if (c >= 0)
                st.traffic[static_cast<size_t>(
                               cache.soaOf[static_cast<size_t>(id)])]
                    .bindTrace(st.trace.get(), c, c,
                               static_cast<int>(id));
        }
    }
    return slot;
}

} // namespace

NetworkResult
runMulticellNetwork(
    const NetworkSpec &spec, const Topology &topo,
    const softphy::BerEstimator &estimator,
    std::shared_ptr<const softphy::CalibrationTable> calib,
    std::uint64_t slots, int threads,
    std::shared_ptr<McSoaCache> *cache_slot)
{
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    const size_t payload_bits = spec.link.payloadBits;
    const softphy::CalibrationTable *table =
        spec.fidelity.mode != FidelityMode::Full ? calib.get()
                                                 : nullptr;
    if (spec.fidelity.mode != FidelityMode::Full)
        wilis_assert(table && table->valid(),
                     "analytic fidelity needs a calibration table");

    // Immutable derived state: reuse the caller's cache when it
    // matches, else (re)derive. A local cache serves one-shot
    // callers.
    std::shared_ptr<McSoaCache> local;
    std::shared_ptr<McSoaCache> &slot =
        cache_slot ? *cache_slot : local;
    if (!slot || !cacheMatches(*slot, spec, topo, table))
        slot = buildCache(spec, topo, table, threads);
    McSoaCache &cache = *slot;
    const kernels::PerTableView flat_view =
        cache.hasFlat ? cache.flat.view() : kernels::PerTableView{};

    NetworkResult res;
    res.spec = spec;
    res.slots = slots;
    res.cells = cells;

    // ---- mutable per-user state, soa-indexed -------------------
    const size_t nu = static_cast<size_t>(num_users);
    const mac::SoftRateMac::Config src = detail::softRateConfig(spec);
    const mac::Arq::Config ac = detail::arqConfig(spec);

    McState state;
    std::vector<mac::Arq> &arqs = state.arqs;
    std::vector<mac::TrafficSource> &traffic = state.traffic;
    std::vector<mac::SoftRateMac> &softrate = state.softrate;
    std::vector<UserStats> &stats = state.stats;
    std::vector<detail::TraceCtx> &tctx = state.tctx;
    std::vector<double> &serv_gain = state.servGain;
    std::vector<std::vector<std::uint32_t>> &members = state.members;
    std::vector<mac::CellScheduler> &scheds = state.scheds;
    std::vector<std::vector<std::uint8_t>> &eligible = state.eligible;
    std::vector<std::vector<std::uint8_t>> &urgent = state.urgent;
    std::vector<std::vector<double>> &inst_rate = state.instRate;
    std::vector<std::uint64_t> &busy_until = state.busyUntil;
    std::unique_ptr<MobilityRuntime> &mob = state.mob;
    std::shared_ptr<mac::PacketTrace> &trace = state.trace;

    stats.resize(nu);
    arqs.reserve(nu);
    traffic.reserve(nu);
    softrate.reserve(nu);
    for (size_t i = 0; i < nu; ++i) {
        arqs.emplace_back(ac);
        traffic.emplace_back(spec.traffic, cache.trafficSeed[i]);
        softrate.emplace_back(src);
        stats[i].user = cache.order[i];
        stats[i].servingCell = cache.serving[i];
        stats[i].meanSnrDb = cache.meanSnr[i];
    }
    // The packet trace records per-cell (one shard per cell, each
    // written only by the cell's owning worker).
    tctx.resize(nu);
    if (spec.trace) {
        trace = std::make_shared<mac::PacketTrace>(cells);
        for (size_t i = 0; i < nu; ++i) {
            const int cell = static_cast<int>(cache.serving[i]);
            const int id = cache.order[i];
            tctx[i].bind(trace.get(), cell, cell, id,
                         arqs[i].windowSize());
            traffic[i].bindTrace(trace.get(), cell, cell, id);
        }
    }
    // Mobility / handover / churn: one decision engine, driven
    // single-threaded between barriers. The cache stays immutable
    // (it is shared across runs); all membership-dependent state
    // below is run-local.
    if (spec.mobility.enabled())
        mob = std::make_unique<MobilityRuntime>(
            spec.mobility, topo, spec.seed, spec.frameIntervalUs);
    auto post_ho = [&](std::uint32_t i) {
        return mob &&
               mob->handovers(cache.order[static_cast<size_t>(i)]) >
                   0;
    };
    // Run-local serving gains and gain-row pointers: start as the
    // cache's static values, move with the epochs under mobility
    // (the fader, payload, traffic and draw streams are serving-
    // cell-independent by construction, so they stay cached).
    serv_gain = cache.servGain;
    std::vector<const double *> rows(cache.gainRows);
    if (mob) {
        for (size_t i = 0; i < nu; ++i)
            rows[i] = mob->gainRow(cache.order[i]);
    }
    // Run-local cell membership, ordered by global user id. Static
    // runs never mutate it, so it is exactly the cache's cell-major
    // blocks.
    members.resize(static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c) {
        for (std::uint32_t i =
                 cache.cellBegin[static_cast<size_t>(c)];
             i < cache.cellBegin[static_cast<size_t>(c) + 1]; ++i)
            members[static_cast<size_t>(c)].push_back(i);
    }

    // Serving-link |h|^2 memo (per user, current slot): PF (phase
    // 1) and the granted user's frame (phase 2) read the same
    // value in one slot, so it is evaluated once.
    // No slot reaches the sentinel: t < slots <= UINT64_MAX.
    std::vector<double> h2val(nu, 0.0);
    std::vector<std::uint64_t> h2slot(nu, UINT64_MAX);
    auto fadingPower = [&](int i, std::uint64_t t) {
        const size_t s = static_cast<size_t>(i);
        if (h2slot[s] != t) {
            h2val[s] = std::norm(cache.faders[s].gainAt(
                static_cast<double>(t) * spec.frameIntervalUs));
            h2slot[s] = t;
        }
        return h2val[s];
    };
    // Full-PHY rung only, constructed on a user's first frame.
    std::vector<std::unique_ptr<channel::AwgnChannel>> awgn(nu);

    // ---- per-cell state ----------------------------------------
    scheds.reserve(static_cast<size_t>(cells));
    eligible.resize(static_cast<size_t>(cells));
    urgent.resize(static_cast<size_t>(cells));
    inst_rate.resize(static_cast<size_t>(cells));
    std::vector<std::vector<mac::Arq::Delivery>> deliveries(
        static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c) {
        scheds.emplace_back(
            spec.scheduler,
            static_cast<int>(members[static_cast<size_t>(c)].size()));
        state.resizeCell(static_cast<size_t>(c));
        deliveries[static_cast<size_t>(c)].reserve(
            static_cast<size_t>(spec.arqWindow) + 1);
    }
    std::vector<int> granted_soa(static_cast<size_t>(cells), -1);
    std::vector<std::uint64_t> granted_seq(
        static_cast<size_t>(cells), 0);
    std::vector<std::uint8_t> active(static_cast<size_t>(cells), 0);
    busy_until.assign(static_cast<size_t>(cells), 0);
    const bool class_aware =
        spec.traffic.qdisc == mac::QdiscKind::StrictPriority;
    const bool fixed_contention =
        spec.scheduler.contention == mac::ContentionMode::Fixed;

    WorkerPhyPool phy_pool;
    const bool pf = spec.scheduler.kind ==
                    mac::SchedulerKind::ProportionalFair;

    // ---- phase 1: deliver ACKs, draw traffic, schedule ---------
    auto phase_schedule = [&](int c, std::uint64_t t) {
        const std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        std::vector<std::uint8_t> &elig =
            eligible[static_cast<size_t>(c)];
        std::vector<std::uint8_t> &urg =
            urgent[static_cast<size_t>(c)];
        std::vector<double> &inst =
            inst_rate[static_cast<size_t>(c)];
        std::vector<mac::Arq::Delivery> &del =
            deliveries[static_cast<size_t>(c)];
        // Under fixed contention the medium may still be occupied
        // by the previous grant's contention charge: per-user
        // processes advance, but no grant is issued.
        const bool busy = t < busy_until[static_cast<size_t>(c)];
        for (size_t m = 0; m < mem.size(); ++m) {
            const std::uint32_t i = mem[m];
            if (!arqs[i].quiescentAt(t)) {
                del.clear();
                arqs[i].tick(t, del);
                for (const auto &d : del)
                    recordDelivery(stats[i], d, payload_bits, t,
                                   tctx[i], post_ho(i));
            }
            traffic[i].tick(t);
            const bool can_send =
                arqs[i].hasResend() ||
                (traffic[i].backlogged() &&
                 arqs[i].windowHasRoom());
            elig[m] = can_send ? 1 : 0;
            if (class_aware)
                urg[m] =
                    traffic[i].controlBacklogged() ? 1 : 0;
            if (can_send && !busy && pf) {
                const double h2 =
                    fadingPower(static_cast<int>(i), t);
                inst[m] =
                    std::log2(1.0 + serv_gain[i] * h2);
            }
        }

        if (busy) {
            // The contention charge consumes the slot: everyone
            // with traffic stalls, the scheduler's clock advances.
            granted_soa[static_cast<size_t>(c)] = -1;
            active[static_cast<size_t>(c)] = 0;
            scheds[static_cast<size_t>(c)].update(-1, 0.0);
            for (size_t m = 0; m < mem.size(); ++m) {
                if (elig[m])
                    ++stats[mem[m]].stalledSlots;
            }
            return;
        }

        const int pick = scheds[static_cast<size_t>(c)].pick(
            elig, inst, class_aware ? &urg : nullptr);
        if (pick < 0) {
            granted_soa[static_cast<size_t>(c)] = -1;
            active[static_cast<size_t>(c)] = 0;
            scheds[static_cast<size_t>(c)].update(-1, 0.0);
            return;
        }
        const std::uint32_t g = mem[static_cast<size_t>(pick)];
        const bool allow_new =
            traffic[g].backlogged() && arqs[g].windowHasRoom();
        const std::uint64_t prev_next = arqs[g].nextSeq();
        std::uint64_t seq = 0;
        const bool sending = arqs[g].nextToSend(t, seq, allow_new);
        wilis_assert(sending, "scheduler granted an idle user");
        std::int64_t first_wait = 0;
        if (arqs[g].nextSeq() != prev_next) {
            const mac::Packet p = traffic[g].pop(t);
            stats[g].queueWaitSlots.add(
                static_cast<double>(t - p.arrival));
            stats[g].queueWaitHist.add(
                static_cast<double>(t - p.arrival));
            notePop(tctx[g], seq, p);
            first_wait = static_cast<std::int64_t>(t - p.arrival);
        }
        recordGrant(tctx[g], t, seq, arqs[g].attemptsOf(seq),
                    first_wait);
        granted_soa[static_cast<size_t>(c)] = static_cast<int>(g);
        granted_seq[static_cast<size_t>(c)] = seq;
        active[static_cast<size_t>(c)] = 1;
        scheds[static_cast<size_t>(c)].update(
            pick, static_cast<double>(payload_bits));
        int contenders = 0;
        for (size_t m = 0; m < mem.size(); ++m) {
            if (!elig[m])
                continue;
            ++contenders;
            if (static_cast<int>(m) != pick)
                ++stats[mem[m]].stalledSlots;
        }
        // Fixed 1/k sharing: a grant contested by k eligible users
        // occupies the medium for k slots in total.
        if (fixed_contention && contenders > 1)
            busy_until[static_cast<size_t>(c)] =
                t + static_cast<std::uint64_t>(contenders);
    };

    // ---- phase 2: batched SINR + draws over the active set -----
    // Worker-local gather buffers: one entry per granted cell.
    struct Scratch {
        std::vector<int> gi;            // soa index
        std::vector<int> cell;          // owning cell
        std::vector<std::int32_t> serving;
        std::vector<const double *> rows;
        std::vector<std::uint64_t> fade_keys;
        std::vector<std::uint64_t> draw_keys;
        std::vector<std::int32_t> rates;
        std::vector<double> sig;
        std::vector<double> sinr_db;
        std::vector<double> pber;
        std::vector<std::uint8_t> ok;

        explicit Scratch(size_t cap)
            : gi(cap), cell(cap), serving(cap), rows(cap),
              fade_keys(cap), draw_keys(cap), rates(cap), sig(cap),
              sinr_db(cap), pber(cap), ok(cap)
        {}
    };

    auto phase_transmit = [&](Scratch &sc, int c_lo, int c_hi,
                              std::uint64_t t) {
        size_t k = 0;
        for (int c = c_lo; c < c_hi; ++c) {
            const int g = granted_soa[static_cast<size_t>(c)];
            if (g < 0)
                continue;
            const size_t gs = static_cast<size_t>(g);
            sc.gi[k] = g;
            sc.cell[k] = c;
            sc.serving[k] = static_cast<std::int32_t>(c);
            sc.rows[k] = rows[gs];
            sc.fade_keys[k] = cache.interfKey[gs];
            sc.draw_keys[k] = cache.drawKey[gs];
            sc.rates[k] = static_cast<std::int32_t>(
                softrate[gs].currentRate());
            sc.sig[k] = serv_gain[gs] * fadingPower(g, t);
            ++k;
        }
        if (k == 0)
            return;

        const kernels::Ops &ops = kernels::ops();
        ops.sinrAccumBatch(sc.rows.data(), sc.serving.data(),
                           sc.fade_keys.data(), active.data(),
                           cells, t, sc.sig.data(), k, kZeroSinrDb,
                           sc.sinr_db.data());

        if (spec.fidelity.fullPhySlot(t)) {
            // The bit-exact rung, one frame at a time, at the
            // batch-computed SINR (interference enters as Gaussian
            // noise, the conditioning the calibration table uses).
            for (size_t j = 0; j < k; ++j) {
                const size_t g = static_cast<size_t>(sc.gi[j]);
                const double sinr_db = sc.sinr_db[j];
                const phy::RateIndex rate =
                    static_cast<phy::RateIndex>(sc.rates[j]);
                if (!awgn[g])
                    awgn[g] =
                        std::make_unique<channel::AwgnChannel>(
                            sinr_db, cache.awgnSeed[g]);
                else
                    awgn[g]->setSnrDb(sinr_db);
                const std::uint64_t seq =
                    granted_seq[static_cast<size_t>(sc.cell[j])];
                std::unique_ptr<WorkerPhy> phy = phy_pool.acquire();
                const LinkFrameResult frame = phy->fullPhyFrame(
                    rate, spec.link.rx, payload_bits,
                    cache.payloadSeed[g], seq, *awgn[g], t,
                    estimator);
                phy_pool.release(std::move(phy));
                stats[g].sinrDb.add(sinr_db);
                recordFrame(stats[g], tctx[g], softrate[g], arqs[g], t,
                            seq, rate, frame, true);
            }
            return;
        }

        // The analytic rung: calibrated PER draws for the whole
        // batch in one kernel call.
        ops.perDrawBatch(flat_view, sc.rates.data(),
                         sc.sinr_db.data(), sc.draw_keys.data(), t,
                         k, sc.ok.data(), sc.pber.data());
        for (size_t j = 0; j < k; ++j) {
            const size_t g = static_cast<size_t>(sc.gi[j]);
            stats[g].sinrDb.add(sc.sinr_db[j]);
            recordFrame(stats[g], tctx[g], softrate[g], arqs[g], t,
                        granted_seq[static_cast<size_t>(sc.cell[j])],
                        static_cast<phy::RateIndex>(sc.rates[j]),
                        LinkFrameResult{sc.ok[j] != 0, sc.pber[j]},
                        false);
        }
    };

    // ---- mobility epochs: apply membership events ---------------
    // The team has refreshed the gain rows; the decisions and their
    // effects run single-threaded on worker 0 with the team held at
    // a barrier, so they may touch any cell's state. Membership
    // stays sorted by global user id, the order scheduler-local
    // indices refer to.
    auto member_pos = [&](const std::vector<std::uint32_t> &mem,
                          int uid) {
        return static_cast<int>(
            std::lower_bound(mem.begin(), mem.end(), uid,
                             [&](std::uint32_t a, int b) {
                                 return cache.order[static_cast<
                                            size_t>(a)] < b;
                             }) -
            mem.begin());
    };
    auto remove_member = [&](int c, int uid, double *pf_carry) {
        std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        const int pos = member_pos(mem, uid);
        if (pf_carry)
            *pf_carry =
                scheds[static_cast<size_t>(c)].averageRate(pos);
        scheds[static_cast<size_t>(c)].removeUser(pos);
        mem.erase(mem.begin() + pos);
        state.resizeCell(static_cast<size_t>(c));
    };
    auto insert_member = [&](int c, int uid, double pf_carry) {
        std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        const int pos = member_pos(mem, uid);
        scheds[static_cast<size_t>(c)].insertUser(pos, pf_carry);
        mem.insert(mem.begin() + pos,
                   static_cast<std::uint32_t>(
                       cache.soaOf[static_cast<size_t>(uid)]));
        state.resizeCell(static_cast<size_t>(c));
    };
    std::vector<MobilityRuntime::Event> mob_events;
    std::vector<mac::Arq::Delivery> mob_deliv;
    auto apply_mobility = [&](std::uint64_t t) {
        mob_events.clear();
        mob->decide(t, mob_events);
        for (const MobilityRuntime::Event &ev : mob_events) {
            const std::uint32_t i = static_cast<std::uint32_t>(
                cache.soaOf[static_cast<size_t>(ev.user)]);
            int flushed = 0;
            int aborted = 0;
            switch (ev.kind) {
              case MobilityRuntime::Event::Kind::Leave: {
                // Teardown records into the pre-departure shard:
                // queued packets flush (qdrop reason 2), in-flight
                // ARQ frames abort (already-acked heads still
                // deliver in order).
                remove_member(ev.fromCell, ev.user, nullptr);
                flushed = traffic[i].flush(t);
                mob_deliv.clear();
                arqs[i].abortAll(t, mob_deliv);
                for (const auto &d : mob_deliv) {
                    recordDelivery(stats[i], d, payload_bits, t,
                                   tctx[i], post_ho(i));
                    if (d.dropped)
                        ++aborted;
                }
                break;
              }
              case MobilityRuntime::Event::Kind::Join: {
                insert_member(ev.toCell, ev.user, 0.0);
                tctx[i].rebind(ev.toCell, ev.toCell);
                if (trace)
                    traffic[i].bindTrace(trace.get(), ev.toCell,
                                         ev.toCell, ev.user);
                break;
              }
              case MobilityRuntime::Event::Kind::Handover: {
                // Queue, ARQ window and rate-control state migrate
                // untouched; the PF throughput average carries so
                // the target cell does not treat the user as
                // starved.
                double carry = 0.0;
                remove_member(ev.fromCell, ev.user,
                              pf ? &carry : nullptr);
                insert_member(ev.toCell, ev.user, carry);
                tctx[i].rebind(ev.toCell, ev.toCell);
                if (trace)
                    traffic[i].bindTrace(trace.get(), ev.toCell,
                                         ev.toCell, ev.user);
                break;
              }
            }
            recordMobilityEvent(trace.get(), t, ev, flushed,
                                aborted);
        }
        // The epoch rewrote the live gain rows: refresh every
        // user's serving-link gain.
        for (size_t i2 = 0; i2 < nu; ++i2)
            serv_gain[i2] = mob->servingGainLin(cache.order[i2]);
    };

    // ---- checkpoint/resume --------------------------------------
    const std::uint64_t start_slot =
        spec.checkpoint.enabled() && spec.checkpoint.resume
            ? loadMcCheckpoint(spec, cache, slots, state)
            : 0;
    const std::uint64_t ckpt_every =
        spec.checkpoint.enabled() ? spec.checkpoint.everySlots : 0;

    const int n = detail::workerCount(threads, cells);

    // The whole slot loop runs inside one LockstepTeam::run():
    // cells are statically partitioned across workers (each cell's
    // state has exactly one owner, so the split cannot change
    // results) and the phases are separated by barriers. The SoA
    // lanes have one writer per phase and publication rides the
    // barrier's release/acquire edges, so there is no lock for the
    // static analysis to check -- the CI TSan leg enforces this
    // (docs/ARCHITECTURE.md, "Static determinism guarantees").
    LockstepTeam team(n);
    const std::uint64_t epoch_slots = mob ? mob->epochSlots() : 1;
    team.run([&](int w) {
        const detail::Range cr = detail::workerRange(w, n, cells);
        const int c_lo = cr.lo;
        const int c_hi = cr.hi;
        // This worker's users in each epoch's gain-row refresh.
        const detail::Range ur = detail::workerRange(w, n, num_users);
        Scratch sc(static_cast<size_t>(c_hi - c_lo));
        for (std::uint64_t t = start_slot; t < slots; ++t) {
            if (ckpt_every != 0 && t > start_slot &&
                t % ckpt_every == 0) {
                // Every worker evaluates the same condition, so the
                // whole team is parked at this barrier while worker
                // 0 serializes -- the snapshot sees the state after
                // slot t - 1, before slot t's mobility epoch.
                if (w == 0)
                    saveMcCheckpoint(spec, cache, state, t);
                team.barrier();
            }
            if (mob && t % epoch_slots == 0) {
                // The previous slot's trailing barrier (or run()
                // entry at t = 0) already synced the team, so every
                // worker may rewrite its users' gain rows; after a
                // barrier worker 0 may read every row and mutate
                // any cell's state, and one more barrier releases
                // the others.
                mob->refreshRows(t, ur.lo, ur.hi);
                team.barrier();
                if (w == 0)
                    apply_mobility(t);
                team.barrier();
            }
            for (int c = c_lo; c < c_hi; ++c)
                phase_schedule(c, t);
            team.barrier();
            phase_transmit(sc, c_lo, c_hi, t);
            // Phase 1 of slot t+1 rewrites active[] -- every
            // worker's phase 2 must have read it first.
            team.barrier();
        }
    });

    // Per user: drain acknowledgements still in flight at the
    // horizon, then the run-level counters. Under mobility the final
    // serving cell replaces the drop-time association and the
    // first-handover slot splits the run into the before/after
    // throughput windows. Each user's drain touches its own state
    // only, so users split into parallel ranges -- except when
    // tracing, where the drain records into per-cell trace lanes
    // that must keep one writer.
    res.users.resize(nu);
    int drain_workers =
        detail::rangeWorkers(threads, num_users, detail::kUserGrain);
    if (trace)
        drain_workers = 1;
    auto drain_user = [&](int id, std::vector<mac::Arq::Delivery> &tail) {
        const size_t i = static_cast<size_t>(
            cache.soaOf[static_cast<size_t>(id)]);
        UserStats &st = stats[i];
        detail::drainAcks(arqs[i], st, spec, slots, tctx[i],
                          post_ho(static_cast<std::uint32_t>(i)),
                          tail);
        st.retransmissions = arqs[i].retransmissions();
        st.arrivals = traffic[i].arrivals();
        st.queueDrops = traffic[i].drops();
        if (mob) {
            st.servingCell = mob->servingCell(id);
            st.handovers = mob->handovers(id);
            st.pingPongs = mob->pingPongs(id);
            st.joins = mob->joins(id);
            st.leaves = mob->leaves(id);
            st.preHoSlots =
                std::min(mob->firstHandoverSlot(id), slots);
        } else {
            st.preHoSlots = slots;
        }
        st.postHoSlots = slots - st.preHoSlots;
        res.users[static_cast<size_t>(id)] = std::move(st);
    };
    detail::forEachRange(drain_workers, num_users, [&](detail::Range range) {
        std::vector<mac::Arq::Delivery> tail;
        for (int id = range.lo; id < range.hi; ++id)
            drain_user(id, tail);
    });

    detail::finishResult(res, trace);
    return res;
}

} // namespace sim
} // namespace wilis
