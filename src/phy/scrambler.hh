/**
 * @file
 * 802.11 frame-synchronous scrambler (polynomial x^7 + x^4 + 1).
 *
 * The same structure both scrambles and descrambles: XORing the data
 * with the identical PRBS recovers the original. The all-ones-seeded
 * zero-input sequence also defines the pilot polarity sequence p_n of
 * 802.11a, which PilotMapper reuses.
 */

#ifndef WILIS_PHY_SCRAMBLER_HH
#define WILIS_PHY_SCRAMBLER_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace wilis {
namespace phy {

/**
 * Frame-synchronous PRBS scrambler/descrambler. The x^7 + x^4 + 1
 * register is maximal-length, so its output repeats every 127 bits:
 * reset() steps the register once through that period into a table,
 * and scrambling XORs the data against the table, a word at a time.
 */
class Scrambler
{
  public:
    /** Length of the PRBS period. */
    static constexpr int kPeriod = 127;

    /** @param seed 7-bit nonzero initial state. */
    explicit Scrambler(std::uint8_t seed = 0x7F);

    /**
     * Rewind to the first PRBS bit of @p seed. The period table is
     * rebuilt only when the seed changes.
     */
    void reset(std::uint8_t seed);

    /** Next PRBS bit (advances state). */
    Bit
    nextPrbsBit()
    {
        const Bit b = prbs[static_cast<size_t>(pos)];
        if (++pos == kPeriod)
            pos = 0;
        return b;
    }

    /** Scramble (or descramble) one bit. */
    Bit process(Bit in) { return in ^ nextPrbsBit(); }

    /** Scramble (or descramble) a whole stream. */
    BitVec process(const BitVec &in);

    /**
     * Scramble (or descramble) @p in into @p out (same length).
     * In-place operation (out.data() == in.data()) is allowed.
     */
    void process(BitView in, BitSpan out);

    /**
     * The 127-element pilot polarity sequence of 802.11a: the PRBS of
     * an all-ones-seeded scrambler, mapped 0 -> +1, 1 -> -1.
     */
    static void pilotPolarity(int out[127]);

  private:
    /**
     * prbs[i]: the i-th output bit after reset(seed), stored for two
     * periods so any window of up to kPeriod bits is contiguous.
     */
    std::array<Bit, 2 * kPeriod> prbs{};
    /** Seed the table was built for (0 = not built yet). */
    std::uint8_t table_seed = 0;
    int pos = 0;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_SCRAMBLER_HH
