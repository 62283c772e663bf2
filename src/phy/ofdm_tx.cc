#include "phy/ofdm_tx.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace phy {

OfdmTransmitter::OfdmTransmitter(RateIndex rate_idx,
                                 std::uint8_t scrambler_seed)
    : params(rateTable(rate_idx)), seed(scrambler_seed),
      scrambler(scrambler_seed), interleaver(params.modulation),
      mapper(params.modulation), puncturer(params.codeRate),
      fft(OfdmGeometry::kFftSize)
{}

int
OfdmTransmitter::numSymbols(size_t payload_bits) const
{
    size_t with_tail = payload_bits + ConvCode::kTailBits;
    return static_cast<int>(
        (with_tail + static_cast<size_t>(params.nDbps) - 1) /
        static_cast<size_t>(params.nDbps));
}

size_t
OfdmTransmitter::paddedInfoBits(size_t payload_bits) const
{
    return static_cast<size_t>(numSymbols(payload_bits)) *
               static_cast<size_t>(params.nDbps) -
           ConvCode::kTailBits;
}

size_t
OfdmTransmitter::numSamples(size_t payload_bits) const
{
    return static_cast<size_t>(numSymbols(payload_bits)) *
           OfdmGeometry::kSymbolLen;
}

SampleVec
OfdmTransmitter::modulate(const BitVec &payload, Debug *dbg)
{
    legacy_arena.reset();
    FrameContext ctx(legacy_arena);
    SampleSpan s = modulate(BitView(payload), ctx, dbg);
    return SampleVec(s.begin(), s.end());
}

SampleSpan
OfdmTransmitter::modulate(BitView payload, FrameContext &ctx,
                          Debug *dbg)
{
    wilis_assert(!payload.empty(), "empty payload");
    FrameArena &arena = ctx.arena;

    // Pad to fill whole OFDM symbols, scramble in place (XOR against
    // the seed's PRBS period), encode (terminated).
    const size_t info_bits = paddedInfoBits(payload.size());
    BitSpan scrambled = arena.alloc<Bit>(info_bits);
    std::copy(payload.begin(), payload.end(), scrambled.begin());
    std::fill(scrambled.begin() + static_cast<long>(payload.size()),
              scrambled.end(), 0);
    scrambler.reset(seed);
    scrambler.process(scrambled, scrambled);
    BitSpan coded = arena.alloc<Bit>(
        2 * (info_bits + static_cast<size_t>(ConvCode::kTailBits)));
    convCode().encode(scrambled, true, coded);
    BitSpan punctured =
        arena.alloc<Bit>(puncturer.puncturedLength(coded.size()));
    puncturer.puncture(coded, punctured);
    BitSpan interleaved = arena.alloc<Bit>(punctured.size());
    interleaver.interleaveStream(punctured, interleaved);

    if (dbg) {
        dbg->scrambled.assign(scrambled.begin(), scrambled.end());
        dbg->coded.assign(coded.begin(), coded.end());
        dbg->punctured.assign(punctured.begin(), punctured.end());
        dbg->interleaved.assign(interleaved.begin(),
                                interleaved.end());
    }

    // Map each symbol's coded bits to the 48 data subcarriers (the
    // null bins stay zero: the IFFT reads the bins buffer and writes
    // the symbol body straight into the output span), then copy the
    // body's tail in front of it as the cyclic prefix.
    const int nsym = numSymbols(payload.size());
    SampleSpan out = arena.alloc<Sample>(
        static_cast<size_t>(nsym) * OfdmGeometry::kSymbolLen);

    PilotTracker pilots;
    SampleSpan bins = arena.alloc<Sample>(OfdmGeometry::kFftSize);
    std::fill(bins.begin(), bins.end(), Sample(0.0, 0.0));
    const auto &data_bins = OfdmGeometry::dataBins();
    const size_t n_bpsc = static_cast<size_t>(params.nBpsc);
    const Bit *bits = interleaved.data();
    for (int s = 0; s < nsym; ++s) {
        for (int bin : data_bins) {
            bins[static_cast<size_t>(bin)] = mapper.map(bits);
            bits += n_bpsc;
        }
        pilots.insertPilots(bins);

        SampleSpan sym = out.subspan(
            static_cast<size_t>(s) * OfdmGeometry::kSymbolLen,
            OfdmGeometry::kSymbolLen);
        fft.inverse(bins, sym.subspan(OfdmGeometry::kCpLen));
        std::copy(sym.end() - OfdmGeometry::kCpLen, sym.end(),
                  sym.begin());
    }
    return out;
}

} // namespace phy
} // namespace wilis
