/**
 * @file
 * Golden pin of the bit-exact OFDM front end. One FNV-1a hash covers,
 * for every 802.11a/g rate, four channels, four payload lengths and
 * several scrambler seeds:
 *  - the transmitter's time-domain sample bytes (before the channel),
 *  - the deinterleaved, depunctured soft stream the decoder receives,
 *  - the receiver's SoftDecisions (bit and LLR hint) and payload.
 * The hash must hold unchanged on every kernel backend: the TX/RX
 * blocks may get faster, but never produce a different byte.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/frame_arena.hh"
#include "common/kernels.hh"
#include "decode/soft_decoder.hh"
#include "sim/testbench.hh"

using namespace wilis;

namespace {

/** FNV-1a over raw bytes, chained through @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Running hash the tap decoder folds its input into. */
std::uint64_t g_tap_hash = 0;

/**
 * The max-log BCJR with a tap on its input: hashes the depunctured
 * rate-1/2 soft stream the receiver hands the decoder, then decodes
 * it unchanged.
 */
class TapDecoder : public decode::SoftDecoder
{
  public:
    explicit TapDecoder(const li::Config &cfg)
        : inner(decode::makeDecoder("bcjr", cfg))
    {}

    std::string name() const override { return "golden-tap"; }
    bool producesSoftOutput() const override { return true; }
    int
    pipelineLatencyCycles() const override
    {
        return inner->pipelineLatencyCycles();
    }

    void
    decodeInto(SoftView soft, std::span<SoftDecision> out) override
    {
        g_tap_hash = fnv1a(g_tap_hash, soft.data(),
                           soft.size() * sizeof(SoftBit));
        inner->decodeInto(soft, out);
    }

  private:
    std::unique_ptr<decode::SoftDecoder> inner;
};

const bool tap_registered = [] {
    decode::DecoderRegistry::global().add(
        "golden-tap", [](const li::Config &cfg) {
            return std::unique_ptr<decode::SoftDecoder>(
                std::make_unique<TapDecoder>(cfg));
        });
    return true;
}();

/** One channel of the pin: registry name, config, SNR at rate 0. */
struct ChannelCase {
    const char *name;
    const char *cfg;
    int snrBaseDb;
    bool csiWeight;
};

/**
 * Hash of every (rate, payload length) frame over one channel. The
 * SNR rises with the rate so every rate sees both clean and errored
 * frames; the scrambler seed and packet index vary per length.
 */
std::uint64_t
channelPinHash(const ChannelCase &cc)
{
    const size_t lengths[] = {1, 260, 1000, 1704};
    const std::uint8_t seeds[] = {0x5D, 0x7F, 0x01, 0x2A};
    std::uint64_t h = 0xcbf29ce484222325ull;
    FrameArena arena;
    for (phy::RateIndex r = 0; r < phy::kNumRates; ++r) {
        sim::TestbenchConfig cfg;
        cfg.rate = r;
        cfg.channel = cc.name;
        cfg.channelCfg = li::Config::fromString(
            std::string(cc.cfg) + ",snr_db=" +
            std::to_string(cc.snrBaseDb + 3 * r));
        cfg.rx.decoder = "golden-tap";
        cfg.rx.applyCsiWeight = cc.csiWeight;
        for (size_t k = 0; k < 4; ++k) {
            cfg.rx.scramblerSeed = seeds[k];
            sim::Testbench tb(cfg);
            const std::uint64_t packet = 3 + k;
            arena.reset();
            BitSpan payload = arena.alloc<Bit>(lengths[k]);
            tb.makePayloadInto(payload, packet);
            FrameContext ctx(arena);
            SampleSpan samples = tb.tx().modulate(payload, ctx);
            h = fnv1a(h, samples.data(), samples.size_bytes());
            tb.channel().apply(samples, packet);
            g_tap_hash = h;
            phy::RxFrame rx = tb.rx().demodulate(
                samples, payload.size(), &tb.channel(), packet, ctx);
            h = g_tap_hash;
            for (const SoftDecision &d : rx.soft) {
                h = fnv1a(h, &d.bit, sizeof(d.bit));
                h = fnv1a(h, &d.llr, sizeof(d.llr));
            }
            h = fnv1a(h, rx.payload.data(), rx.payload.size());
        }
    }
    return h;
}

} // namespace

TEST(PhyGolden, FrontEndPin)
{
    ASSERT_TRUE(tap_registered);
    const std::pair<ChannelCase, std::uint64_t> pins[] = {
        {{"awgn", "seed=11", -3, false}, 0xca0eb9cc476d08cbull},
        {{"rayleigh", "seed=12,doppler_hz=2000", 2, true},
         0x43fb1c33666d77d1ull},
        {{"ar1", "seed=13,doppler_hz=200", 2, false},
         0xf69d7c5a3bd1353full},
        {{"multipath", "seed=14,doppler_hz=50", 4, true},
         0x469eff72cfc9d747ull},
    };
    const kernels::Backend prev = kernels::activeBackend();
    for (kernels::Backend b : kernels::availableBackends()) {
        ASSERT_TRUE(kernels::setBackend(b));
        for (const auto &[cc, want] : pins) {
            EXPECT_EQ(channelPinHash(cc), want)
                << cc.name << " on " << kernels::backendName(b);
        }
    }
    kernels::setBackend(prev);
}
