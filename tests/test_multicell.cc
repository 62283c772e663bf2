/**
 * @file
 * Multi-cell network simulator tests: the acceptance bar is that
 * the preset matrix reproduces its golden per-user statistics and
 * trace hashes at 1, 2 and 8 worker threads, on the scalar kernel
 * backend and across a checkpoint resume; around it, NetworkSpec
 * round-trips its topology/traffic/scheduler keys, the scheduler
 * actually arbitrates (one grant per cell per slot), the full-PHY
 * rung works at conditioned SINR, and the analytic rung tracks it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/kernels.hh"
#include "golden_hash.hh"
#include "sim/multicell_sim.hh"
#include "sim/network_sim.hh"

using namespace wilis;
using namespace wilis::sim;
using golden::statsHash;
using golden::traceHash;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

/** Forces the scalar kernel backend for one scope. */
struct ScalarBackendScope {
    const kernels::Backend saved = kernels::activeBackend();
    ScalarBackendScope()
    {
        EXPECT_TRUE(kernels::setBackend(kernels::Backend::Scalar));
    }
    ~ScalarBackendScope() { kernels::setBackend(saved); }
};

struct GoldenCase {
    const char *name;
    NetworkSpec spec;
    std::uint64_t slots;
    bool scalarBackend;
    std::uint64_t stats;
    std::uint64_t trace; // 0 = untraced
};

NetworkSpec
calibrated(const char *preset)
{
    NetworkSpec spec = networkPreset(preset);
    spec.calibrationFile = calibrationPath();
    return spec;
}

/** Per-user statistics are bit-identical at 1, 2 and 8 threads. */
void
expectThreadCountInvariant(const NetworkSpec &spec,
                           std::uint64_t slots)
{
    NetworkSim sim(spec);
    const std::uint64_t t1 = statsHash(sim.run(slots, 1));
    EXPECT_EQ(t1, statsHash(sim.run(slots, 2)));
    EXPECT_EQ(t1, statsHash(sim.run(slots, 8)));
}

} // namespace

// ----------------------------------------------------- spec layer

TEST(MulticellSpec, TopologyTrafficSchedulerKeysRoundTrip)
{
    NetworkSpec s;
    s.numUsers = 24;
    s.topology.rows = 2;
    s.topology.cols = 4;
    s.topology.cellSpacingM = 300.0;
    s.topology.cellRadiusM = 140.0;
    s.topology.minDistanceM = 15.0;
    s.topology.pathloss.refSnrDb = 47.0;
    s.topology.pathloss.refDistanceM = 12.0;
    s.topology.pathloss.exponent = 3.2;
    s.topology.pathloss.shadowSigmaDb = 5.0;
    s.traffic.kind = mac::TrafficKind::OnOff;
    s.traffic.load = 0.7;
    s.traffic.onSlots = 20.0;
    s.traffic.offSlots = 50.0;
    s.traffic.queueLimit = 32;
    s.scheduler.kind = mac::SchedulerKind::ProportionalFair;
    s.scheduler.pfHorizonSlots = 48.0;

    NetworkSpec t = NetworkSpec::fromConfig(s.toConfig());
    EXPECT_EQ(t.topology.rows, 2);
    EXPECT_EQ(t.topology.cols, 4);
    EXPECT_TRUE(t.multicell());
    EXPECT_DOUBLE_EQ(t.topology.cellSpacingM, 300.0);
    EXPECT_DOUBLE_EQ(t.topology.cellRadiusM, 140.0);
    EXPECT_DOUBLE_EQ(t.topology.minDistanceM, 15.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.refSnrDb, 47.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.refDistanceM, 12.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.exponent, 3.2);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.shadowSigmaDb, 5.0);
    EXPECT_EQ(t.traffic.kind, mac::TrafficKind::OnOff);
    EXPECT_DOUBLE_EQ(t.traffic.load, 0.7);
    EXPECT_DOUBLE_EQ(t.traffic.onSlots, 20.0);
    EXPECT_DOUBLE_EQ(t.traffic.offSlots, 50.0);
    EXPECT_EQ(t.traffic.queueLimit, 32);
    EXPECT_EQ(t.scheduler.kind,
              mac::SchedulerKind::ProportionalFair);
    EXPECT_DOUBLE_EQ(t.scheduler.pfHorizonSlots, 48.0);
}

TEST(MulticellSpec, PresetsAreRegisteredAndMulticell)
{
    for (const char *name :
         {"grid-3x3", "dense-urban-10k", "urban-mobile"})
        EXPECT_TRUE(hasNetworkPreset(name)) << name;
    NetworkSpec mobile = networkPreset("urban-mobile");
    EXPECT_TRUE(mobile.multicell());
    EXPECT_TRUE(mobile.mobility.enabled());
    EXPECT_EQ(mobile.mobility.model, MobilityModel::Waypoint);
    NetworkSpec grid = networkPreset("grid-3x3");
    EXPECT_EQ(grid.topology.numCells(), 9);
    EXPECT_EQ(grid.numUsers, 36);
    EXPECT_TRUE(grid.multicell());
    EXPECT_EQ(grid.fidelity.mode, FidelityMode::Analytic);
    NetworkSpec dense = networkPreset("dense-urban-10k");
    EXPECT_EQ(dense.topology.numCells(), 100);
    EXPECT_GE(dense.numUsers, 10000);
    EXPECT_EQ(dense.scheduler.kind,
              mac::SchedulerKind::ProportionalFair);
    EXPECT_EQ(dense.traffic.kind, mac::TrafficKind::OnOff);
}

TEST(MulticellSpec, DefaultSpecStaysOnTheLegacySingleCellPath)
{
    NetworkSpec s;
    EXPECT_FALSE(s.multicell());
    EXPECT_EQ(s.topology.numCells(), 1);
    NetworkSim sim(s);
    EXPECT_EQ(sim.topology(), nullptr);
}

// ---------------------------------------- determinism (the bar)

TEST(Multicell, Grid3x3BitIdenticalAt1_2_8Threads)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    expectThreadCountInvariant(spec, 120);
}

TEST(Multicell, DenseUrban10kBitIdenticalAt1_2_8Threads)
{
    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    expectThreadCountInvariant(spec, 16);
}

TEST(Multicell, FullPhyRungBitIdenticalAt1_2_8Threads)
{
    // The bit-exact rung at conditioned SINR: a small grid so the
    // PHY cost stays test-sized.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.numUsers = 8;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.link.payloadBits = 400;
    spec.fidelity.mode = FidelityMode::Full;
    spec.calibrationFile.clear();
    expectThreadCountInvariant(spec, 40);
}

// ------------------------------------------- golden per-user pins

namespace {

std::vector<GoldenCase>
goldenCases()
{
    NetworkSpec rr = calibrated("grid-3x3");
    NetworkSpec pf = rr;
    pf.scheduler.kind = mac::SchedulerKind::ProportionalFair;
    NetworkSpec classes = rr;
    classes.traffic.qdisc = mac::QdiscKind::StrictPriority;
    classes.traffic.controlRate = 0.05;
    classes.scheduler.contention = mac::ContentionMode::Fixed;
    classes.trace = true;
    NetworkSpec full = networkPreset("grid-3x3");
    full.numUsers = 8;
    full.topology.rows = 2;
    full.topology.cols = 2;
    full.link.payloadBits = 400;
    full.fidelity.mode = FidelityMode::Full;
    full.calibrationFile.clear();
    NetworkSpec dense = calibrated("dense-urban-10k");
    dense.trace = true;
    NetworkSpec mobile = calibrated("urban-mobile");
    mobile.trace = true;
    return {
        {"grid-3x3 rr", rr, 120, false, 0x8a2f58bcf0e9d6d7ull, 0},
        {"grid-3x3 pf", pf, 120, false, 0x4d12e75cc89438eaull, 0},
        {"grid-3x3 classes", classes, 120, false,
         0xb36e61fae3e767b8ull, 0x3c3acb54ce4125acull},
        {"full-phy 2x2", full, 40, false, 0xf44c570492ce6ff4ull, 0},
        {"dense-urban-10k", dense, 16, false, 0xa3a93fcca1e98782ull,
         0xb089894137a8fa4bull},
        {"dense-urban-10k scalar", dense, 16, true,
         0xa3a93fcca1e98782ull, 0xb089894137a8fa4bull},
        {"urban-mobile", mobile, 600, false, 0x98a0bd7d67244dfcull,
         0xc5c479b9a1235194ull},
    };
}

void
expectGolden(const GoldenCase &c, const NetworkResult &r)
{
    EXPECT_EQ(statsHash(r), c.stats)
        << std::hex << "stats 0x" << statsHash(r);
    EXPECT_EQ(traceHash(r), c.trace)
        << std::hex << "trace 0x" << traceHash(r);
}

} // namespace

/**
 * Golden pins of the preset matrix: per-user statistics and the
 * packet trace, hashed, at 1, 2 and 8 worker threads. The values
 * were recorded when two independent multi-cell engines (a per-user
 * object walk and the SoA engine) both produced exactly these bits.
 */
TEST(Multicell, GoldenPerUserPins)
{
    for (const GoldenCase &c : goldenCases()) {
        std::optional<ScalarBackendScope> scalar;
        if (c.scalarBackend)
            scalar.emplace();
        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE(std::string(c.name) + " @ " +
                         std::to_string(threads));
            expectGolden(c, NetworkSim(c.spec).run(c.slots, threads));
        }
    }
}

/**
 * A run resumed from a mid-horizon checkpoint reproduces the
 * uninterrupted urban-mobile pin at any thread count.
 */
TEST(Multicell, GoldenPinsHoldAcrossCheckpointResume)
{
    const std::vector<GoldenCase> cases = goldenCases();
    const GoldenCase &c = cases.back();
    const std::string ckpt =
        ::testing::TempDir() + "wilis_golden_resume.snap";
    NetworkSpec saving = c.spec;
    saving.checkpoint.file = ckpt;
    saving.checkpoint.everySlots = c.slots / 2;
    expectGolden(c, NetworkSim(saving).run(c.slots, 2));
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        NetworkSpec resuming = c.spec;
        resuming.checkpoint.file = ckpt;
        resuming.checkpoint.resume = true;
        expectGolden(c, NetworkSim(resuming).run(c.slots, threads));
    }
    std::remove(ckpt.c_str());
}

// ------------------------------ retired engine key, cross-run cache

TEST(Multicell, RetiredEngineKeyIsUnknown)
{
    // One multi-cell engine is left, so its former selector is an
    // unknown key like any other.
    const std::vector<std::string> keys = networkSpecKeys();
    EXPECT_EQ(std::count(keys.begin(), keys.end(), "engine"), 0);
    li::Config cfg = networkPreset("grid-3x3").toConfig();
    cfg.set("engine", "soa");
    EXPECT_DEATH(NetworkSpec::fromConfig(cfg),
                 "unknown NetworkSpec key 'engine'");
}

TEST(Multicell, SoaCacheReuseDoesNotChangeResults)
{
    // NetworkSim keeps the engine's derived state across run()
    // calls; a rerun on a warm cache must be bit-identical to the
    // cold first run.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    NetworkSim sim(spec);
    const NetworkResult cold = sim.run(100, 2);
    const NetworkResult warm = sim.run(100, 2);
    EXPECT_EQ(statsHash(cold), statsHash(warm));
}

TEST(Multicell, SoaCacheReuseAcrossHorizons)
{
    // A reused cache must not carry anything slot-indexed from an
    // earlier run: a shorter and then a longer horizon on one
    // NetworkSim each match a fresh simulator's run of that
    // horizon, with and without mobility.
    for (const char *preset : {"grid-3x3", "urban-mobile"}) {
        const NetworkSpec spec = calibrated(preset);
        for (int threads : {1, 4}) {
            SCOPED_TRACE(std::string(preset) + " threads " +
                         std::to_string(threads));
            auto fresh = [&](std::uint64_t slots) {
                return statsHash(NetworkSim(spec).run(slots, threads));
            };
            const std::vector<std::vector<std::uint64_t>> sequences =
                {{200, 100}, {100, 300}};
            for (const std::vector<std::uint64_t> &seq : sequences) {
                NetworkSim sim(spec);
                for (std::uint64_t slots : seq)
                    EXPECT_EQ(statsHash(sim.run(slots, threads)),
                              fresh(slots))
                        << slots << " slots";
            }
        }
    }
}

// ------------------------------------------------ engine behavior

TEST(Multicell, SchedulerArbitratesOneGrantPerCellPerSlot)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    // Full-buffer traffic: every cell is always backlogged, so the
    // grant count is exactly cells x slots -- the scheduler, not
    // the per-user loop, owns the medium.
    spec.traffic.kind = mac::TrafficKind::FullBuffer;
    const std::uint64_t slots = 100;
    NetworkSim sim(spec);
    NetworkResult res = sim.run(slots, 2);
    EXPECT_EQ(res.cells, 9);
    EXPECT_EQ(res.aggregate.framesSent, 9 * slots);
    // Round robin over equal-population cells: per-user grants are
    // exactly fair.
    for (const UserStats &u : res.users)
        EXPECT_EQ(u.framesSent, slots / 4) << "user " << u.user;
}

TEST(Multicell, TopologyDrivesPerUserLinkBudgets)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    NetworkSim sim(spec);
    const Topology *topo = sim.topology();
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->numUsers(), 36);
    EXPECT_EQ(topo->numCells(), 9);

    NetworkResult res = sim.run(60, 2);
    bool snrs_differ = false;
    for (const UserStats &u : res.users) {
        EXPECT_EQ(u.servingCell, topo->servingCell(u.user));
        EXPECT_DOUBLE_EQ(u.meanSnrDb,
                         topo->servingSnrDb(u.user));
        snrs_differ |= u.meanSnrDb != res.users[0].meanSnrDb;
    }
    EXPECT_TRUE(snrs_differ)
        << "placement + shadowing must differentiate users";
    // Transmissions happened and observed interference: recorded
    // SINR must sit below the noise-limited serving SNR on
    // average for at least the cell-edge users.
    ASSERT_GT(res.aggregate.sinrDb.count(), 0u);
    EXPECT_LT(res.aggregate.sinrDb.mean(),
              res.aggregate.meanSnrDb + 40.0);
}

TEST(Multicell, AnalyticRungTracksFullPhy)
{
    // Same small deployment through both fidelity rungs: per-frame
    // outcomes differ (different randomness) but the aggregate
    // frame success rate must agree within sampling tolerance --
    // the calibrated-table-at-SINR argument of the fidelity
    // ladder, now with interference folded in.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.numUsers = 12;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.link.payloadBits = 1000;
    spec.traffic.kind = mac::TrafficKind::FullBuffer;
    spec.calibrationFile = calibrationPath();

    NetworkSpec full = spec;
    full.fidelity.mode = FidelityMode::Full;
    NetworkSpec fast = spec;
    fast.fidelity.mode = FidelityMode::Analytic;

    const std::uint64_t slots = 150;
    NetworkResult r_full = NetworkSim(full).run(slots, 2);
    NetworkResult r_fast = NetworkSim(fast).run(slots, 2);

    EXPECT_EQ(r_full.aggregate.fullPhyFrames,
              r_full.aggregate.framesSent);
    EXPECT_EQ(r_fast.aggregate.analyticFrames,
              r_fast.aggregate.framesSent);
    EXPECT_EQ(r_full.aggregate.framesSent,
              r_fast.aggregate.framesSent)
        << "scheduling is fidelity-independent";
    EXPECT_NEAR(r_fast.aggregate.frameSuccessRate(),
                r_full.aggregate.frameSuccessRate(), 0.12);
}

TEST(Multicell, QueuesAccountArrivalsDropsAndWaits)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    // Overload one small deployment so queues saturate.
    spec.numUsers = 8;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.traffic.kind = mac::TrafficKind::Poisson;
    spec.traffic.load = 1.5;
    spec.traffic.queueLimit = 4;
    NetworkResult res = NetworkSim(spec).run(200, 2);
    EXPECT_GT(res.aggregate.arrivals, 0u);
    EXPECT_GT(res.aggregate.queueDrops, 0u)
        << "4-deep queues under 3x overload must drop";
    EXPECT_GT(res.aggregate.queueWaitSlots.count(), 0u);
    EXPECT_GT(res.aggregate.queueWaitSlots.mean(), 0.5);
    EXPECT_LT(res.aggregate.queueDrops, res.aggregate.arrivals);
}
