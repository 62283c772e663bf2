/**
 * @file
 * Snapshot-layer tests: the binary transport validates its header
 * (magic / container / payload version / spec fingerprint) and every
 * bounds-checked read, and the engine-level checkpoint/resume is a
 * pure observer -- a run that saves checkpoints, and a run resumed
 * from one, both produce byte-identical campaign reports and packet
 * traces vs an uninterrupted run, across 1/2/8 threads. A snapshot
 * past the horizon or with a corrupt membership table or trace is a
 * located fatal error, never a crash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/snapshot.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

/** A small mobile deployment: handover + churn on a 2x2 grid. */
NetworkSpec
mobileSpec()
{
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    spec.numUsers = 24;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** One run through the campaign entry point: report + trace text. */
struct RunArtifacts {
    std::string report;
    std::string trace;
};

RunArtifacts
runOnce(const NetworkSpec &spec, std::uint64_t slots, int threads)
{
    const std::string trace_file = ::testing::TempDir() +
                                   "wilis_snapshot_trace.txt";
    RunRequest req;
    req.spec = spec;
    req.slots = slots;
    req.threads = threads;
    req.traceFile = trace_file;
    RunReport rep = runCampaignShard(req);
    // The config echo names the run's own checkpoint keys;
    // blank it so report comparisons isolate the *results* (the
    // checkpointed, resumed and uninterrupted runs intentionally
    // differ in those keys).
    rep.config.clear();
    RunArtifacts out;
    out.report = rep.toJsonText();
    out.trace = slurp(trace_file);
    std::remove(trace_file.c_str());
    return out;
}

} // namespace

// ----------------------------------------------------- transport

TEST(Snapshot, RoundTripsPrimitives)
{
    SnapshotWriter w(7, "spec-fp");
    w.marker(0x11223344);
    w.u8(200);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(-1234.5678e-9);
    w.str("hello snapshot");
    w.marker(0x55667788);

    SnapshotReader r =
        SnapshotReader::fromBytes(w.bytes(), 7, "spec-fp");
    r.marker(0x11223344);
    EXPECT_EQ(r.u8(), 200);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -1234.5678e-9);
    EXPECT_EQ(r.str(), "hello snapshot");
    r.marker(0x55667788);
    r.done();
}

TEST(Snapshot, SaveLoadRoundTripsThroughDisk)
{
    const std::string path =
        ::testing::TempDir() + "wilis_snapshot_file.snap";
    SnapshotWriter w(3, "fp");
    w.u64(99);
    w.save(path);

    SnapshotReader r(path, 3, "fp");
    EXPECT_EQ(r.u64(), 99u);
    r.done();
    std::remove(path.c_str());
}

TEST(SnapshotDeath, RejectsVersionAndFingerprintSkew)
{
    SnapshotWriter w(1, "fp-a");
    w.u64(1);
    EXPECT_DEATH(SnapshotReader::fromBytes(w.bytes(), 2, "fp-a"),
                 "version");
    EXPECT_DEATH(SnapshotReader::fromBytes(w.bytes(), 1, "fp-b"),
                 "different spec");
}

TEST(SnapshotDeath, RejectsTruncationAndTrailingBytes)
{
    SnapshotWriter w(1, "fp");
    w.u64(1);
    w.u64(2);
    const std::string bytes = w.bytes();

    SnapshotReader trunc = SnapshotReader::fromBytes(
        bytes.substr(0, bytes.size() - 4), 1, "fp");
    trunc.u64();
    EXPECT_DEATH(trunc.u64(), "truncated");

    SnapshotReader leftover =
        SnapshotReader::fromBytes(bytes, 1, "fp");
    leftover.u64();
    EXPECT_DEATH(leftover.done(), "");
}

TEST(SnapshotDeath, RejectsMissingFileAndMarkerSkew)
{
    EXPECT_DEATH(
        SnapshotReader("/nonexistent/wilis.snap", 1, "fp"), "");

    SnapshotWriter w(1, "fp");
    w.marker(0xAAAAAAAA);
    SnapshotReader r = SnapshotReader::fromBytes(w.bytes(), 1, "fp");
    EXPECT_DEATH(r.marker(0xBBBBBBBB), "marker");
}

// ------------------------------------------- checkpoint / resume

TEST(CheckpointResume, BitIdenticalAcrossThreads)
{
    constexpr std::uint64_t kSlots = 200;
    constexpr std::uint64_t kEvery = 100;

    const NetworkSpec base = mobileSpec();
    const RunArtifacts reference = runOnce(base, kSlots, 2);
    const std::string ckpt = ::testing::TempDir() + "wilis_ckpt.snap";

    // A run that *saves* checkpoints is a pure observer: same
    // report, same trace.
    NetworkSpec saving = base;
    saving.checkpoint.file = ckpt;
    saving.checkpoint.everySlots = kEvery;
    const RunArtifacts observed = runOnce(saving, kSlots, 2);
    EXPECT_EQ(observed.report, reference.report);
    EXPECT_EQ(observed.trace, reference.trace);

    // Resuming from the slot-100 snapshot must replay slots
    // 100..200 into byte-identical artifacts, at any thread count.
    NetworkSpec resuming = base;
    resuming.checkpoint.file = ckpt;
    resuming.checkpoint.resume = true;
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        const RunArtifacts resumed = runOnce(resuming, kSlots, threads);
        EXPECT_EQ(resumed.report, reference.report);
        EXPECT_EQ(resumed.trace, reference.trace);
    }

    // A snapshot past the horizon is bad input, not a simulator bug.
    NetworkSpec traced = resuming;
    traced.trace = true; // as runOnce() records it
    EXPECT_EXIT(NetworkSim(traced).run(kEvery / 2, 2),
                ::testing::ExitedWithCode(1),
                "wilis_ckpt.snap' is at slot 100, past the 50-slot "
                "horizon");
    std::remove(ckpt.c_str());
}

TEST(CheckpointResumeDeath, ResumeWithoutSnapshotIsFatal)
{
    NetworkSpec spec = mobileSpec();
    spec.checkpoint.file =
        ::testing::TempDir() + "wilis_ckpt_absent.snap";
    spec.checkpoint.resume = true;
    RunRequest req;
    req.spec = spec;
    req.slots = 40;
    req.threads = 1;
    EXPECT_DEATH(runCampaignShard(req), "");
}

namespace {

/** Little-endian u64 at @p at, the snapshot's integer encoding. */
void
patchU64(std::string &bytes, size_t at, std::uint64_t v)
{
    ASSERT_LE(at + 8, bytes.size());
    for (int i = 0; i < 8; ++i)
        bytes[at + static_cast<size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFF);
}

/**
 * A traced static grid-3x3 snapshot at slot 50 plus the offsets of
 * the fields the corruption tests patch. Without mobility the
 * membership is the drop-time topology, so cell 0's serialized
 * member block is known exactly.
 */
struct GridSnapshot {
    NetworkSpec spec;
    std::string bytes;
    size_t user0Cell = 0;    // user 0's member cell
    int user0Serving = 0;    // ...and its value
    size_t cell0Count = 0;   // cell 0's member count
    size_t traceShard0 = 0;  // trace shard 0's entry count

    GridSnapshot()
    {
        spec = networkPreset("grid-3x3");
        spec.calibrationFile = calibrationPath();
        spec.trace = true;
        const std::string path =
            ::testing::TempDir() + "wilis_ckpt_grid.snap";
        NetworkSpec saving = spec;
        saving.checkpoint.file = path;
        saving.checkpoint.everySlots = 50;
        NetworkSim sim(saving);
        sim.run(100, 2);
        bytes = slurp(path);
        std::remove(path.c_str());

        const size_t header =
            SnapshotWriter(1, spec.fingerprint()).bytes().size();
        user0Cell = header + 8; // after the slot
        user0Serving = sim.topology()->servingCell(0);
        SnapshotWriter block(1, spec.fingerprint());
        const std::vector<int> members = sim.topology()->cellUsers(0);
        block.u64(members.size());
        for (int id : members)
            block.i64(id);
        block.marker(0x44454853); // the scheduler's "SHED"
        cell0Count = bytes.find(block.bytes().substr(header));
        traceShard0 = bytes.rfind("TRAC") + 4 + 8;
    }

    /** Resume from @p patched (dies on a corrupt snapshot). */
    void
    resume(const std::string &patched) const
    {
        const std::string path =
            ::testing::TempDir() + "wilis_ckpt_patched.snap";
        std::ofstream(path, std::ios::binary) << patched;
        NetworkSpec resuming = spec;
        resuming.checkpoint.file = path;
        resuming.checkpoint.resume = true;
        NetworkSim(resuming).run(100, 2);
    }
};

} // namespace

TEST(CheckpointResumeDeath, CorruptMembershipAndTraceAreFatal)
{
    const GridSnapshot g;
    ASSERT_NE(g.cell0Count, std::string::npos);
    g.resume(g.bytes); // the unpatched snapshot resumes

    const auto expectFatal = [&](size_t at, std::uint64_t v,
                                 const std::string &message) {
        std::string b = g.bytes;
        patchU64(b, at, v);
        EXPECT_EXIT(g.resume(b), ::testing::ExitedWithCode(1),
                    "wilis_ckpt_patched.snap'.*" + message);
    };
    expectFatal(g.cell0Count, 1ull << 61,
                "cell 0 lists 2305843009213693952 members");
    expectFatal(g.cell0Count + 8,
                static_cast<std::uint64_t>(-5000000ll),
                "cell 0 member id -5000000 is not increasing");
    expectFatal(g.cell0Count + 8, 1000,
                "cell 0 member id 1000 is not increasing");
    expectFatal(g.user0Cell, 9, "user 0 has member cell 9");
    expectFatal(g.user0Cell,
                static_cast<std::uint64_t>((g.user0Serving + 1) % 9),
                "lists user 0, whose member cell is");
    expectFatal(g.traceShard0, 1ull << 61,
                "trace shard of 2305843009213693952 entries");
}
