/**
 * @file
 * Software channel model interface. In WiLIS the channel is the part
 * of the co-simulation that stays in software (section 1): it is
 * floating-point heavy and not amenable to FPGA implementation.
 *
 * All channels here are *replayable*: impairments are a pure function
 * of (seed, packet_index, sample_index), implemented with the
 * counter-based generator. This is the paper's "pseudo-random noise
 * model which allows us to test multiple packet transmissions at
 * various rates with the same noise and fading across time"
 * (section 4.4.2) -- the property the SoftRate oracle depends on.
 */

#ifndef WILIS_CHANNEL_CHANNEL_HH
#define WILIS_CHANNEL_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"
#include "li/config.hh"
#include "li/registry.hh"

namespace wilis {
namespace channel {

/** A replayable software channel. */
class Channel
{
  public:
    virtual ~Channel() = default;

    /** Implementation name (matches the registry key). */
    virtual std::string name() const = 0;

    /**
     * Apply impairments to a packet's time-domain samples in place.
     * Deterministic in (seed, packet_index, sample position). The
     * span form is the zero-copy pipeline's entry point; SampleVec
     * arguments convert implicitly. Implementations must not
     * allocate in steady state (scratch lives in members).
     */
    virtual void apply(SampleSpan samples,
                       std::uint64_t packet_index) = 0;

    /**
     * Impair a single sample at a known position. Must agree
     * bit-exactly with apply() on the same positions -- this is what
     * lets the streaming latency-insensitive pipeline and the batch
     * kernel path produce identical packets.
     */
    virtual Sample impairSample(Sample s, std::uint64_t packet_index,
                                std::uint64_t sample_index) const = 0;

    /**
     * Complex channel gain the receiver equalizes with (perfect CSI;
     * the paper models neither channel estimation nor
     * synchronization). Flat fading: one gain per OFDM symbol.
     */
    virtual Sample
    gain(std::uint64_t packet_index, int symbol_index) const
    {
        (void)packet_index;
        (void)symbol_index;
        return Sample(1.0, 0.0);
    }

    /**
     * Per-subcarrier channel gain for frequency-selective channels;
     * flat channels return gain(). @p bin is the FFT bin (0..63).
     */
    virtual Sample
    binGain(std::uint64_t packet_index, int symbol_index,
            int bin) const
    {
        (void)bin;
        return gain(packet_index, symbol_index);
    }

    /**
     * True if binGain() varies across subcarriers. A flat channel
     * (the default) has binGain() == gain() on every bin, so a
     * receiver equalizes each OFDM symbol with one gain() call; a
     * channel that overrides binGain() with per-bin values must
     * return true.
     */
    virtual bool frequencySelective() const { return false; }

    /** Noise variance N0 per complex sample (for eq. 3 scaling). */
    virtual double noiseVariance() const = 0;
};

/** Shorthand for the channel plug-n-play registry. */
using ChannelRegistry = li::Registry<Channel>;

/** Create a channel by registry name ("awgn", "rayleigh"). */
std::unique_ptr<Channel> makeChannel(
    const std::string &name, const li::Config &cfg = li::Config());

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_CHANNEL_HH
