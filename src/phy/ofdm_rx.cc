#include "phy/ofdm_rx.hh"

#include <algorithm>

#include "common/logging.hh"
#include "phy/conv_code.hh"
#include "phy/interleaver.hh"

namespace wilis {
namespace phy {

namespace {

std::uint64_t
countBitErrors(BitView ref, BitView got)
{
    wilis_assert(ref.size() == got.size(),
                 "payload size mismatch: %zu vs %zu", ref.size(),
                 got.size());
    std::uint64_t errors = 0;
    for (size_t i = 0; i < ref.size(); ++i)
        errors += (ref[i] != got[i]) ? 1u : 0u;
    return errors;
}

} // namespace

std::uint64_t
RxResult::bitErrors(const BitVec &ref) const
{
    return countBitErrors(BitView(ref), BitView(payload));
}

std::uint64_t
RxFrame::bitErrors(BitView ref) const
{
    return countBitErrors(ref, BitView(payload));
}

RxResult
RxFrame::toResult() const
{
    RxResult res;
    res.payload.assign(payload.begin(), payload.end());
    res.soft.assign(soft.begin(), soft.end());
    return res;
}

OfdmReceiver::OfdmReceiver(RateIndex rate_idx)
    : OfdmReceiver(rate_idx, Config())
{}

OfdmReceiver::OfdmReceiver(RateIndex rate_idx, const Config &cfg_)
    : params(rateTable(rate_idx)), cfg(cfg_),
      puncturer(params.codeRate),
      demapper(params.modulation, cfg_.demapper),
      fft(OfdmGeometry::kFftSize), scrambler(cfg_.scramblerSeed),
      dec(decode::makeDecoder(cfg_.decoder, cfg_.decoderCfg))
{
    // Every symbol's N_CBPS punctured bits are a whole number of
    // puncturing periods, so each symbol owns a contiguous slice of
    // the rate-1/2 stream and one per-symbol table serves them all.
    const Interleaver interleaver(params.modulation);
    const size_t ncbps = static_cast<size_t>(params.nCbps);
    sym_half = puncturer.unpuncturedLength(ncbps);
    rx_scatter.resize(ncbps);
    for (size_t k = 0; k < ncbps; ++k) {
        rx_scatter[static_cast<size_t>(
            interleaver.txPosition(static_cast<int>(k)))] =
            static_cast<std::int32_t>(puncturer.unpuncturedIndex(k));
    }
}

void
equalizeDataCarriers(SampleView bins, const channel::Channel *csi,
                     std::uint64_t packet_index, int symbol,
                     Sample *eq, double *weights)
{
    const auto &data_bins = OfdmGeometry::dataBins();
    if (csi && csi->frequencySelective()) {
        for (size_t d = 0; d < data_bins.size(); ++d) {
            const int bin = data_bins[d];
            const Sample h = csi->binGain(packet_index, symbol, bin);
            eq[d] = bins[static_cast<size_t>(bin)] / h;
            if (weights)
                weights[d] = std::abs(h);
        }
        return;
    }
    // Flat: binGain() == gain() on every bin.
    const Sample h = csi ? csi->gain(packet_index, symbol)
                         : Sample(1.0, 0.0);
    for (size_t d = 0; d < data_bins.size(); ++d)
        eq[d] = bins[static_cast<size_t>(data_bins[d])] / h;
    if (weights)
        std::fill(weights, weights + data_bins.size(), std::abs(h));
}

RxResult
OfdmReceiver::demodulate(const SampleVec &samples, size_t payload_bits,
                         const channel::Channel *csi,
                         std::uint64_t packet_index)
{
    legacy_arena.reset();
    FrameContext ctx(legacy_arena);
    return demodulate(SampleView(samples), payload_bits, csi,
                      packet_index, ctx)
        .toResult();
}

RxFrame
OfdmReceiver::demodulate(SampleView samples, size_t payload_bits,
                         const channel::Channel *csi,
                         std::uint64_t packet_index, FrameContext &ctx)
{
    wilis_assert(samples.size() % OfdmGeometry::kSymbolLen == 0,
                 "sample count %zu not a whole number of symbols",
                 samples.size());
    const int nsym =
        static_cast<int>(samples.size() / OfdmGeometry::kSymbolLen);
    FrameArena &arena = ctx.arena;

    // Per-symbol: FFT the body behind the CP, equalize, soft-demap,
    // then scatter the soft values through the combined
    // deinterleave + depuncture table into the rate-1/2 stream,
    // whose punctured positions stay zero (erasures).
    SoftSpan rate_half = arena.alloc<SoftBit>(
        static_cast<size_t>(nsym) * sym_half);
    std::fill(rate_half.begin(), rate_half.end(), 0);
    SampleSpan body = arena.alloc<Sample>(OfdmGeometry::kFftSize);
    SoftSpan sym_soft = arena.alloc<SoftBit>(
        static_cast<size_t>(params.nCbps));
    SampleSpan eq = arena.alloc<Sample>(OfdmGeometry::kDataCarriers);
    std::span<double> csi_w =
        arena.alloc<double>(OfdmGeometry::kDataCarriers);
    double *weights = cfg.applyCsiWeight ? csi_w.data() : nullptr;
    for (int s = 0; s < nsym; ++s) {
        const size_t base = static_cast<size_t>(s) *
                            OfdmGeometry::kSymbolLen;
        fft.forward(samples.subspan(base + OfdmGeometry::kCpLen,
                                    OfdmGeometry::kFftSize),
                    body);
        equalizeDataCarriers(body, csi, packet_index, s, eq.data(),
                             weights);
        demapper.demapBatch(eq.data(), weights,
                            static_cast<size_t>(
                                OfdmGeometry::kDataCarriers),
                            sym_soft.data());
        SoftBit *dst =
            rate_half.data() + static_cast<size_t>(s) * sym_half;
        for (size_t j = 0; j < sym_soft.size(); ++j)
            dst[rx_scatter[j]] = sym_soft[j];
    }

    // Decode the terminated block.
    std::span<SoftDecision> decisions =
        arena.alloc<SoftDecision>(rate_half.size() / 2);
    dec->decodeInto(rate_half, decisions);

    const size_t info_bits =
        static_cast<size_t>(nsym) *
            static_cast<size_t>(params.nDbps) -
        ConvCode::kTailBits;
    wilis_assert(decisions.size() ==
                     info_bits + ConvCode::kTailBits,
                 "decoder returned %zu decisions, expected %zu",
                 decisions.size(), info_bits + ConvCode::kTailBits);
    wilis_assert(payload_bits <= info_bits,
                 "payload %zu larger than frame capacity %zu",
                 payload_bits, info_bits);

    // Descramble against the PRBS period and trim pad/tail.
    scrambler.reset(cfg.scramblerSeed);
    RxFrame res;
    res.payload = arena.alloc<Bit>(payload_bits);
    res.soft = arena.alloc<SoftDecision>(payload_bits);
    for (size_t i = 0; i < payload_bits; ++i) {
        SoftDecision d = decisions[i];
        d.bit = d.bit ^ scrambler.nextPrbsBit();
        res.payload[i] = d.bit;
        res.soft[i] = d;
    }
    return res;
}

} // namespace phy
} // namespace wilis
