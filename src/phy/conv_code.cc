#include "phy/conv_code.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace wilis {
namespace phy {

ConvCode::ConvCode()
{
    // State s holds the previous 6 input bits, most recent in bit 5.
    // The 7-bit encoder register for input x is (x << 6) | s, with the
    // current input in bit 6 (tap D^0) and the oldest bit in bit 0
    // (tap D^6), matching the octal generator conventions.
    for (int s = 0; s < kStates; ++s) {
        for (int x = 0; x < 2; ++x) {
            unsigned reg = (static_cast<unsigned>(x) << 6) |
                           static_cast<unsigned>(s);
            unsigned o0 = std::popcount(reg & kG0) & 1u;
            unsigned o1 = std::popcount(reg & kG1) & 1u;
            output[static_cast<size_t>(s)][x] = o0 | (o1 << 1);
            next_state[static_cast<size_t>(s)][x] =
                static_cast<int>((reg >> 1) & 0x3F);
        }
    }
    for (int s = 0; s < kStates; ++s) {
        for (unsigned n = 0; n < 16; ++n) {
            std::uint64_t word = 0;
            int st = s;
            for (int i = 0; i < 4; ++i) {
                const int x = static_cast<int>((n >> i) & 1);
                const unsigned o = outputBits(st, x);
                word |= static_cast<std::uint64_t>(o & 1) << (16 * i);
                word |= static_cast<std::uint64_t>(o >> 1)
                        << (16 * i + 8);
                st = nextState(st, x);
            }
            nibble_out[static_cast<size_t>(s) * 16 + n] = word;
        }
    }
}

BitVec
ConvCode::encode(const BitVec &data, bool terminate) const
{
    BitVec out(2 * (data.size() +
                    (terminate ? static_cast<size_t>(kTailBits) : 0)));
    encode(BitView(data), terminate, BitSpan(out));
    return out;
}

void
ConvCode::encode(BitView data, bool terminate, BitSpan out) const
{
    wilis_assert(out.size() ==
                     2 * (data.size() +
                          (terminate ? static_cast<size_t>(kTailBits)
                                     : 0)),
                 "encoder output span size %zu for %zu data bits",
                 out.size(), data.size());
    unsigned state = 0;
    Bit *o = out.data();
    const Bit *x = data.data();
    size_t i = 0;
    if constexpr (std::endian::native == std::endian::little) {
        // Four input bits per step: pack them into a nibble (input
        // i at bit i; the multiply gathers byte i's low bit into bit
        // 24 + i without carries), look the eight coded bits up as
        // one word, and shift the nibble into the state register,
        // newest input at bit 5 (nextState()'s definition).
        for (; i + 4 <= data.size(); i += 4) {
            std::uint32_t w;
            std::memcpy(&w, x + i, 4);
            const unsigned n = static_cast<unsigned>(
                ((w & 0x01010101ull) * 0x01020408ull) >> 24) & 0xF;
            std::memcpy(o, &nibble_out[state << 4 | n], 8);
            o += 8;
            state = (n << 2) | (state >> 4);
        }
    }
    auto emit = [&](unsigned bit) {
        const unsigned pair = output[state][bit];
        o[0] = static_cast<Bit>(pair & 1);
        o[1] = static_cast<Bit>(pair >> 1);
        o += 2;
        state = static_cast<unsigned>(nextState(static_cast<int>(state),
                                                static_cast<int>(bit)));
    };
    for (; i < data.size(); ++i)
        emit(x[i] & 1u);
    if (terminate) {
        for (int t = 0; t < kTailBits; ++t)
            emit(0);
    }
}

const ConvCode &
convCode()
{
    static const ConvCode code;
    return code;
}

} // namespace phy
} // namespace wilis
