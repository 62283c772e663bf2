/**
 * @file
 * The benchmark's probe: times calls into each WiLIS module's public
 * functions on one workload's own inputs, from outside the program.
 * The library itself carries no timers; every span below wraps a
 * call the benchmark makes.
 *
 *   perfbench_probe merge [--spans FILE] OUT SHARD...
 *       RunReport::load() every shard report, mergeReports() them
 *       and save() the campaign report to OUT -- the campaign
 *       coordinator's work after its workers exit.
 *
 *   perfbench_probe layers --spec ARG --slots N --threads T
 *       --par-slots P --par-threads Q --spans FILE
 *       [--trace-slots N --trace-file FILE]
 *       Replays the workload in-process (calibration load, Topology,
 *       NetworkSim construction, a cold and a warm run()), then the
 *       per-layer measurements its inputs allow: the bit-exact link
 *       replay (phy/channel/decode/softphy), mobility epochs, the
 *       batch kernels, and (with --trace-slots) the packet trace's
 *       record and save cost over that horizon.
 *       Prints one JSON object of counts as its last stdout line.
 *
 * Spans are kept in memory and written once, as JSON lines
 * {run_id, span_id, parent_id, name, start_ns, end_ns}, with
 * CLOCK_MONOTONIC nanoseconds so they line up with run.py's own
 * spans.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/frame_arena.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "decode/soft_decoder.hh"
#include "mac/packet_trace.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_tx.hh"
#include "sim/campaign.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"
#include "sim/topology.hh"
#include "softphy/calibration_table.hh"
#include "softphy/softphy.hh"

using namespace wilis;

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span recorder; parent = the innermost open span. */
class Tracer
{
  public:
    struct Span {
        std::uint64_t parent;
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::size_t
    begin(const char *name)
    {
        const std::uint64_t parent =
            open_.empty() ? 0 : open_.back() + 1;
        spans_.push_back({parent, name, nowNs(), 0});
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    end(std::size_t idx)
    {
        spans_[idx].endNs = nowNs();
        open_.pop_back();
    }

    /** Span ids are 1-based indices; 0 means "no parent". */
    void
    write(const std::string &path, const std::string &run_id) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            wilis_fatal("cannot write spans to %s", path.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"run_id\":\"%s\",\"span_id\":%zu,"
                         "\"parent_id\":%llu,\"name\":\"%s\","
                         "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                         run_id.c_str(), i + 1,
                         static_cast<unsigned long long>(s.parent),
                         s.name, static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        }
        std::fclose(f);
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tr, const char *name) : tr_(tr), idx_(tr.begin(name))
    {}
    ~Scope() { tr_.end(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tr_;
    std::size_t idx_;
};

/** Per-rate span names, so run.py can weight by the rate mix. */
const char *const kDecodeSpan[phy::kNumRates] = {
    "decode.rate0", "decode.rate1", "decode.rate2", "decode.rate3",
    "decode.rate4", "decode.rate5", "decode.rate6", "decode.rate7",
};

/** Blocks timed per rate for decode.us_per_frame. */
constexpr std::uint64_t kDecodeSamples = 64;
/** Engine slots the kernel measurement replays. */
constexpr std::uint64_t kKernelSlots = 400;

struct Args {
    std::string spec;
    std::uint64_t slots = 0;
    int threads = 1;
    std::uint64_t parSlots = 0;
    int parThreads = 1;
    std::string spans;
    std::uint64_t traceSlots = 0;
    std::string traceFile;
};

/**
 * The bit-exact link replay: every frame the run's unit 0 sent,
 * re-run through a Testbench built from NetworkSim::userLinkSpec(u)
 * at the rate the run used (per-user rateHist counts).
 */
void
replayLink(Tracer &tr, const sim::NetworkSim &sim,
           const sim::NetworkResult &res,
           std::map<std::string, std::uint64_t> &counts)
{
    const sim::NetworkSpec &spec = sim.spec();
    const size_t bits = spec.link.payloadBits;
    const softphy::BerEstimator est =
        softphy::analyticRateEstimator(spec.link.rx);
    FrameArena arena;
    std::uint64_t frames = 0;
    std::uint64_t per_rate[phy::kNumRates] = {};
    for (size_t u = 0; u < res.users.size(); ++u) {
        const sim::UserStats &st = res.users[u];
        for (int r = 0; r < phy::kNumRates; ++r) {
            const std::uint64_t n = st.rateHist.count(r);
            if (n == 0)
                continue;
            sim::ScenarioSpec ls = sim.userLinkSpec(static_cast<int>(u));
            ls.rate = static_cast<phy::RateIndex>(r);
            sim::Testbench tb(ls);
            for (std::uint64_t i = 0; i < n; ++i) {
                Scope frame(tr, "link.frame");
                arena.reset();
                BitSpan payload = arena.alloc<Bit>(bits);
                tb.makePayloadInto(payload, i);
                FrameContext ctx(arena);
                SampleSpan samples;
                {
                    Scope s(tr, "phy.tx");
                    samples = tb.tx().modulate(payload, ctx);
                }
                {
                    Scope s(tr, "channel.apply");
                    tb.channel().apply(samples, i);
                }
                phy::RxFrame rx;
                {
                    Scope s(tr, "phy.rx");
                    rx = tb.rx().demodulate(samples, bits,
                                            &tb.channel(), i, ctx);
                }
                {
                    Scope s(tr, "softphy.pber");
                    est.packetBerForRate(static_cast<phy::RateIndex>(r),
                                         rx.soft);
                }
            }
            frames += n;
            per_rate[r] += n;
        }
    }
    counts["replay_frames"] = frames;

    // The decoder alone, at each used rate's coded length (the
    // depunctured rate-1/2 stream demodulate() hands it).
    std::unique_ptr<decode::SoftDecoder> dec =
        decode::makeDecoder(spec.link.rx.decoder, spec.link.rx.decoderCfg);
    const CounterRng rng(0xDEC0DE);
    const int q = (1 << (spec.link.rx.demapper.softWidth - 1)) - 1;
    for (int r = 0; r < phy::kNumRates; ++r) {
        counts[std::string("decode_frames.rate") + std::to_string(r)] =
            per_rate[r];
        if (per_rate[r] == 0)
            continue;
        const phy::OfdmTransmitter tx(static_cast<phy::RateIndex>(r));
        const size_t steps =
            static_cast<size_t>(tx.numSymbols(bits)) *
            static_cast<size_t>(phy::rateTable(
                                    static_cast<phy::RateIndex>(r))
                                    .nDbps);
        std::vector<SoftBit> soft(2 * steps);
        for (size_t i = 0; i < soft.size(); ++i)
            soft[i] = static_cast<SoftBit>(
                          rng.at(i) % static_cast<std::uint64_t>(2 * q + 1)) -
                      q;
        std::vector<SoftDecision> out(steps);
        const std::uint64_t n = std::min(per_rate[r], kDecodeSamples);
        for (std::uint64_t i = 0; i < n; ++i) {
            Scope s(tr, kDecodeSpan[r]);
            dec->decodeInto(SoftView(soft), std::span<SoftDecision>(out));
        }
    }
}

/** Mobility epochs over the horizon, as the engine calls them. */
void
replayMobility(Tracer &tr, const sim::NetworkSpec &spec,
               const sim::Topology &topo, std::uint64_t slots,
               std::map<std::string, std::uint64_t> &counts)
{
    sim::MobilityRuntime mob(spec.mobility, topo, spec.seed,
                             spec.frameIntervalUs);
    std::vector<sim::MobilityRuntime::Event> events;
    std::uint64_t epochs = 0;
    std::uint64_t total = 0;
    for (std::uint64_t t = 0; t < slots; t += mob.epochSlots()) {
        events.clear();
        {
            Scope s(tr, "sim.mobility.epoch");
            mob.epoch(t, events);
        }
        ++epochs;
        total += events.size();
    }
    counts["mobility_epochs"] = epochs;
    counts["mobility_events"] = total;
}

/**
 * The four SoA batch kernels on the deployment's real arrays, each
 * call shaped like one engine slot: one granted user per cell for
 * the SINR/PER batches, every cell's members for the PF decay, and
 * one keyed draw per user.
 */
void
replayKernels(Tracer &tr, const sim::NetworkSpec &spec,
              const sim::Topology &topo,
              const softphy::CalibrationTable &table,
              std::map<std::string, std::uint64_t> &counts)
{
    const kernels::Ops &ops = kernels::ops();
    const int cells = topo.numCells();
    const size_t users = static_cast<size_t>(topo.numUsers());
    const softphy::FlatCalibration flat = table.flatten();
    const kernels::PerTableView view = flat.view();

    std::vector<std::uint64_t> user_keys(users);
    const CounterRng keygen(spec.seed);
    for (size_t u = 0; u < users; ++u)
        user_keys[u] = keygen.at(u);
    std::vector<std::vector<double>> pf_avg(
        static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c)
        pf_avg[static_cast<size_t>(c)].assign(
            topo.cellUsers(c).size(), 1.0);

    const size_t k = static_cast<size_t>(cells);
    std::vector<const double *> rows(k);
    std::vector<std::int32_t> serving(k);
    std::vector<std::uint64_t> fade_keys(k);
    std::vector<std::uint64_t> draw_keys(k);
    std::vector<std::int32_t> rates(k);
    std::vector<double> sig(k);
    std::vector<double> sinr_db(k);
    std::vector<double> pber(k);
    std::vector<std::uint8_t> ok(k);
    std::vector<std::uint8_t> active(k, 1);
    std::vector<double> u01(users);
    std::uint64_t lanes = 0;
    std::uint64_t pf_lanes = 0;
    for (std::uint64_t t = 0; t < kKernelSlots; ++t) {
        size_t n = 0;
        for (int c = 0; c < cells; ++c) {
            const std::vector<int> &mem = topo.cellUsers(c);
            if (mem.empty())
                continue;
            const int u = mem[t % mem.size()];
            rows[n] = topo.gainRow(u);
            serving[n] = c;
            fade_keys[n] = user_keys[static_cast<size_t>(u)];
            draw_keys[n] = user_keys[static_cast<size_t>(u)] ^ 0xD4A3;
            rates[n] = static_cast<std::int32_t>((t + n) %
                                                 phy::kNumRates);
            sig[n] = topo.linkGainLin(u, c);
            ++n;
        }
        {
            Scope s(tr, "common.sinr_accum");
            ops.sinrAccumBatch(rows.data(), serving.data(),
                               fade_keys.data(), active.data(), cells,
                               t, sig.data(), n, sim::kZeroSinrDb,
                               sinr_db.data());
        }
        {
            Scope s(tr, "common.per_draw");
            ops.perDrawBatch(view, rates.data(), sinr_db.data(),
                             draw_keys.data(), t, n, ok.data(),
                             pber.data());
        }
        {
            Scope s(tr, "common.rng_u01");
            ops.rngU01Keyed(user_keys.data(), users, t, u01.data());
        }
        {
            Scope s(tr, "common.pf_decay");
            for (int c = 0; c < cells; ++c) {
                std::vector<double> &avg = pf_avg[static_cast<size_t>(c)];
                if (avg.empty())
                    continue;
                ops.pfDecay(avg.data(), avg.size(), 1.0 / 64.0,
                            static_cast<std::int32_t>(t % avg.size()),
                            static_cast<double>(spec.link.payloadBits));
                pf_lanes += avg.size();
            }
        }
        lanes += n;
    }
    counts["kernel_batch_lanes"] = lanes;
    counts["kernel_rng_lanes"] = kKernelSlots * users;
    counts["kernel_pf_lanes"] = pf_lanes;
}

/**
 * The packet trace's write path on the workload's spec: the same
 * cold run() with and without spec.trace (the difference is what
 * recording costs), then PacketTrace::save().
 */
void
measureTrace(Tracer &tr, const sim::NetworkSpec &spec,
             const std::shared_ptr<const softphy::CalibrationTable> &table,
             const Args &a, std::map<std::string, std::uint64_t> &counts)
{
    for (bool on : {false, true}) {
        sim::NetworkSpec s = spec;
        s.trace = on;
        sim::NetworkSim fresh =
            table ? sim::NetworkSim(s, table) : sim::NetworkSim(s);
        sim::NetworkResult res;
        {
            Scope run(tr, on ? "mac.run_traced" : "mac.run_untraced");
            res = fresh.run(a.traceSlots, a.threads);
        }
        if (on) {
            Scope save(tr, "mac.trace_save");
            res.trace->save(a.traceFile);
            counts["trace_events"] = res.trace->entries().size();
        }
    }
}

int
runLayers(const Args &a)
{
    Tracer tr;
    std::map<std::string, std::uint64_t> counts;
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(a.spec);
    {
        Scope root(tr, "probe");
        std::shared_ptr<const softphy::CalibrationTable> table;
        std::unique_ptr<sim::NetworkSim> sim;
        sim::NetworkResult cold;
        {
            // The in-process equivalent of one CLI run of the
            // workload: what the traced-vs-untraced overhead compares.
            Scope w(tr, "workload");
            // Loaded when the run needs it, as NetworkSim would: the
            // full-fidelity rung never consults the table.
            if (!spec.calibrationFile.empty() &&
                spec.fidelity.mode != sim::FidelityMode::Full) {
                Scope s(tr, "softphy.calib_load");
                table = std::make_shared<softphy::CalibrationTable>(
                    softphy::CalibrationTable::load(spec.calibrationFile));
            }
            {
                Scope s(tr, "sim.ctor");
                sim = table ? std::make_unique<sim::NetworkSim>(spec, table)
                            : std::make_unique<sim::NetworkSim>(spec);
            }
            Scope s(tr, "sim.run_cold");
            cold = sim->run(a.slots, a.threads);
        }
        counts["frames_sent"] = cold.aggregate.framesSent;
        counts["delivered"] = cold.aggregate.delivered;
        {
            Scope s(tr, "sim.run_warm");
            sim->run(a.slots, a.threads);
        }
        if (spec.multicell()) {
            Scope s(tr, "sim.topology");
            sim::Topology topo(spec.topology, spec.numUsers, spec.seed);
        }
        for (int threads : {1, a.parThreads}) {
            sim::NetworkSim fresh =
                table ? sim::NetworkSim(spec, table) : sim::NetworkSim(spec);
            Scope s(tr, threads == 1 ? "sim.run_par1" : "sim.run_parN");
            fresh.run(a.parSlots, threads);
        }
        if (cold.aggregate.fullPhyFrames > 0) {
            Scope s(tr, "link.replay");
            replayLink(tr, *sim, cold, counts);
        }
        if (spec.mobility.enabled() && sim->topology() != nullptr)
            replayMobility(tr, spec, *sim->topology(), a.slots, counts);
        if (sim->topology() != nullptr && sim->calibration() != nullptr)
            replayKernels(tr, spec, *sim->topology(),
                          *sim->calibration(), counts);
        if (a.traceSlots > 0)
            measureTrace(tr, spec, table, a, counts);
    }
    counts["slots"] = a.slots;
    counts["par_threads"] = static_cast<std::uint64_t>(a.parThreads);
    tr.write(a.spans, "probe");

    std::string line = "{";
    for (const auto &kv : counts) {
        if (line.size() > 1)
            line += ",";
        line += strprintf("\"%s\":%llu", kv.first.c_str(),
                          static_cast<unsigned long long>(kv.second));
    }
    std::printf("%s}\n", line.c_str());
    return 0;
}

int
runMerge(int argc, char **argv)
{
    std::string spans;
    int a = 2;
    if (a + 1 < argc && std::string(argv[a]) == "--spans") {
        spans = argv[a + 1];
        a += 2;
    }
    if (argc - a < 2)
        wilis_fatal("merge wants OUT SHARD...");
    const std::string out = argv[a++];
    Tracer tr;
    {
        Scope root(tr, "campaign.merge_total");
        std::vector<sim::RunReport> shards;
        {
            Scope s(tr, "campaign.load");
            for (; a < argc; ++a)
                shards.push_back(sim::RunReport::load(argv[a]));
        }
        sim::RunReport merged;
        {
            Scope s(tr, "campaign.merge");
            merged = sim::mergeReports(shards);
        }
        Scope s(tr, "campaign.save");
        merged.save(out);
    }
    if (!spans.empty())
        tr.write(spans, "merge");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "merge")
        return runMerge(argc, argv);
    if (mode != "layers") {
        std::fprintf(stderr,
                     "usage: %s merge [--spans FILE] OUT SHARD...\n"
                     "       %s layers --spec ARG --slots N --threads T "
                     "--par-slots P --par-threads Q --spans FILE "
                     "[--trace-slots N --trace-file FILE]\n",
                     argv[0], argv[0]);
        return 2;
    }
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            wilis_fatal("%s needs an argument", flag.c_str());
        const std::string v = argv[++i];
        if (flag == "--spec")
            a.spec = v;
        else if (flag == "--slots")
            a.slots = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--threads")
            a.threads = std::atoi(v.c_str());
        else if (flag == "--par-slots")
            a.parSlots = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--par-threads")
            a.parThreads = std::atoi(v.c_str());
        else if (flag == "--spans")
            a.spans = v;
        else if (flag == "--trace-slots")
            a.traceSlots = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--trace-file")
            a.traceFile = v;
        else
            wilis_fatal("unknown flag '%s'", flag.c_str());
    }
    if (a.spec.empty() || a.slots == 0 || a.parSlots == 0 ||
        a.spans.empty())
        wilis_fatal("layers needs --spec, --slots, --par-slots, --spans");
    if ((a.traceSlots > 0) != !a.traceFile.empty())
        wilis_fatal("--trace-slots and --trace-file go together");
    return runLayers(a);
}
