/**
 * @file
 * Composed 802.11a/g OFDM receiver kernel: cyclic prefix removal ->
 * FFT -> equalization (perfect CSI) -> soft demapper ->
 * deinterleaver + depuncturer (one scatter) -> pluggable soft
 * decoder -> descrambler (the RX half of Figure 1). The decoder slot
 * is resolved through the plug-n-play registry, so a receiver can be
 * built with "viterbi", "sova", "bcjr" or "bcjr-logmap" without any
 * source change.
 */

#ifndef WILIS_PHY_OFDM_RX_HH
#define WILIS_PHY_OFDM_RX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/types.hh"
#include "decode/soft_decoder.hh"
#include "phy/demapper.hh"
#include "phy/fft.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/puncture.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace phy {

/** Output of demodulating one packet. */
struct RxResult {
    /** Decoded, descrambled payload bits. */
    BitVec payload;
    /**
     * Per-payload-bit decisions with the decoder's LLR hints (the
     * SoftPHY export). payload[i] == soft[i].bit.
     */
    std::vector<SoftDecision> soft;

    /** Bit errors against a reference payload. */
    std::uint64_t bitErrors(const BitVec &ref) const;

    /** True if the payload matches @p ref exactly. */
    bool packetOk(const BitVec &ref) const { return bitErrors(ref) == 0; }
};

/**
 * Zero-copy variant of RxResult: views into the frame arena, valid
 * until the arena is reset. payload[i] == soft[i].bit.
 */
struct RxFrame {
    /** Decoded, descrambled payload bits (arena view). */
    BitSpan payload;
    /** Per-payload-bit decisions with LLR hints (arena view). */
    std::span<SoftDecision> soft;

    /** Bit errors against a reference payload. */
    std::uint64_t bitErrors(BitView ref) const;

    /** True if the payload matches @p ref exactly. */
    bool packetOk(BitView ref) const { return bitErrors(ref) == 0; }

    /** Deep copy into an owning RxResult. */
    RxResult toResult() const;
};

/**
 * Equalize one OFDM symbol's data carriers (perfect CSI):
 * eq[d] = bins[dataBin(d)] / h_d for the 48 data carriers, and
 * weights[d] = |h_d| when @p weights is non-null. h_d is the
 * channel's binGain() on a frequency-selective channel, its gain()
 * -- fetched once for the symbol -- on a flat one, and unity
 * without @p csi.
 */
void equalizeDataCarriers(SampleView bins, const channel::Channel *csi,
                          std::uint64_t packet_index, int symbol,
                          Sample *eq, double *weights);

/** Full OFDM receiver for one 802.11a/g rate. */
class OfdmReceiver
{
  public:
    /** Receiver configuration. */
    struct Config {
        /** Decoder registry name. */
        std::string decoder = "bcjr";
        /** Decoder parameters (traceback/window lengths...). */
        li::Config decoderCfg;
        /** Demapper quantization parameters. */
        Demapper::Config demapper;
        /** Scrambler seed (must match the transmitter). */
        std::uint8_t scramblerSeed = 0x5D;
        /**
         * Weight each subcarrier's soft metrics by its channel
         * amplitude |H| (matched-filter metric after zero-forcing).
         * Essential on frequency-selective channels; false models
         * the paper's unweighted hardware demapper.
         */
        bool applyCsiWeight = false;
    };

    /** Construct with the default configuration (BCJR decoder). */
    explicit OfdmReceiver(RateIndex rate_idx);

    /** Construct with an explicit configuration. */
    OfdmReceiver(RateIndex rate_idx, const Config &cfg);

    /** Rate parameters in use. */
    const RateParams &rate() const { return params; }

    /** The decoder instance (for latency/area queries). */
    const decode::SoftDecoder &decoder() const { return *dec; }

    /**
     * Demodulate a packet.
     * @param samples      Received time-domain samples.
     * @param payload_bits Expected payload length in bits (from the
     *                     PLCP header in a real system).
     * @param csi          Channel providing per-symbol gains for
     *                     equalization; nullptr = unity gain.
     * @param packet_index Packet index for CSI lookup.
     */
    RxResult demodulate(const SampleVec &samples, size_t payload_bits,
                        const channel::Channel *csi = nullptr,
                        std::uint64_t packet_index = 0);

    /**
     * Zero-copy form: all intermediate stages and the returned
     * payload/soft views live in @p ctx's arena. A warmed-up arena
     * makes this path allocation-free end to end (the decoder keeps
     * its scratch in members).
     */
    RxFrame demodulate(SampleView samples, size_t payload_bits,
                       const channel::Channel *csi,
                       std::uint64_t packet_index, FrameContext &ctx);

  private:
    RateParams params;
    Config cfg;
    Puncturer puncturer;
    Demapper demapper;
    Fft fft;
    /** Descrambler holding the seed's PRBS period. */
    Scrambler scrambler;
    /**
     * Deinterleave + depuncture as one scatter: soft value j of a
     * demapped symbol lands at rx_scatter[j] within that symbol's
     * slice of the rate-1/2 stream (sym_half values long).
     */
    std::vector<std::int32_t> rx_scatter;
    size_t sym_half = 0;
    std::unique_ptr<decode::SoftDecoder> dec;
    /** Backs the legacy vector-returning demodulate(). */
    FrameArena legacy_arena;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_OFDM_RX_HH
