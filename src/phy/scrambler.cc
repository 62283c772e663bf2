#include "phy/scrambler.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace wilis {
namespace phy {

Scrambler::Scrambler(std::uint8_t seed)
{
    reset(seed);
}

void
Scrambler::reset(std::uint8_t seed)
{
    wilis_assert((seed & 0x7F) != 0, "scrambler seed must be nonzero");
    pos = 0;
    if ((seed & 0x7F) == table_seed)
        return;
    table_seed = seed & 0x7F;
    std::uint8_t state = table_seed;
    for (int i = 0; i < kPeriod; ++i) {
        // Feedback = x^7 ^ x^4 (bits 6 and 3 of the 7-bit register).
        const Bit b = static_cast<Bit>(((state >> 6) ^ (state >> 3)) & 1);
        state = static_cast<std::uint8_t>(((state << 1) | b) & 0x7F);
        prbs[static_cast<size_t>(i)] = b;
        prbs[static_cast<size_t>(i + kPeriod)] = b;
    }
    wilis_assert(state == table_seed, "scrambler period is not %d",
                 kPeriod);
}

BitVec
Scrambler::process(const BitVec &in)
{
    BitVec out(in.size());
    process(BitView(in), BitSpan(out));
    return out;
}

void
Scrambler::process(BitView in, BitSpan out)
{
    wilis_assert(in.size() == out.size(),
                 "scrambler span mismatch: %zu vs %zu", in.size(),
                 out.size());
    const Bit *src = in.data();
    Bit *dst = out.data();
    size_t i = 0;
    while (i < in.size()) {
        const size_t run = std::min(in.size() - i,
                                    static_cast<size_t>(kPeriod));
        const Bit *p = prbs.data() + pos;
        size_t k = 0;
        for (; k + 8 <= run; k += 8) {
            std::uint64_t a, b;
            std::memcpy(&a, src + i + k, 8);
            std::memcpy(&b, p + k, 8);
            a ^= b;
            std::memcpy(dst + i + k, &a, 8);
        }
        for (; k < run; ++k)
            dst[i + k] = src[i + k] ^ p[k];
        i += run;
        pos = (pos + static_cast<int>(run)) % kPeriod;
    }
}

void
Scrambler::pilotPolarity(int out[127])
{
    Scrambler s(0x7F);
    for (int i = 0; i < 127; ++i)
        out[i] = s.nextPrbsBit() ? -1 : 1;
}

} // namespace phy
} // namespace wilis
