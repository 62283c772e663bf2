/**
 * @file
 * Gray constellation mapper for BPSK/QPSK/16-QAM/64-QAM, normalized
 * to unit average symbol energy as in 802.11a (K_mod = 1, 1/sqrt(2),
 * 1/sqrt(10), 1/sqrt(42)).
 *
 * Bit-to-axis convention (per axis, MSB first): the first bit selects
 * the sign (1 = positive), subsequent bits Gray-select the magnitude
 * from inside out -- the same convention the soft demapper's
 * simplified metrics (Tosato-Bisaglia) assume.
 *
 * map() is a lookup into the constellation table indexed by the
 * packed bit group; the table is filled at construction by the
 * per-axis level rule, so the points are that rule's exactly.
 */

#ifndef WILIS_PHY_MAPPER_HH
#define WILIS_PHY_MAPPER_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Bits-to-constellation-point mapper. */
class Mapper
{
  public:
    /** Build the mapper for one modulation. */
    explicit Mapper(Modulation mod_);

    /** Modulation handled. */
    Modulation modulation() const { return mod; }

    /** Bits consumed per symbol. */
    int bitsPerSymbol() const { return n_bpsc; }

    /** Normalization factor K_mod. */
    double kmod() const { return k_mod; }

    /**
     * Map @p n_bpsc bits (MSB first) to one constellation point.
     * @param bits Pointer to bitsPerSymbol() bits.
     */
    Sample
    map(const Bit *bits) const
    {
        auto bit = [bits](int i) { return bits[i] != 0 ? 1u : 0u; };
        unsigned v;
        switch (n_bpsc) {
          case 1:
            v = bit(0);
            break;
          case 2:
            v = bit(0) << 1 | bit(1);
            break;
          case 4:
            v = bit(0) << 3 | bit(1) << 2 | bit(2) << 1 | bit(3);
            break;
          default:
            v = bit(0) << 5 | bit(1) << 4 | bit(2) << 3 |
                bit(3) << 2 | bit(4) << 1 | bit(5);
            break;
        }
        return points[v];
    }

    /** Map a whole stream (length must divide evenly). */
    SampleVec mapStream(const BitVec &bits) const;

    /**
     * Ideal constellation points indexed by the bit pattern
     * (MSB-first packing), for tests and hard demapping.
     */
    std::vector<Sample> constellation() const;

  private:
    /** Map per-axis bits (MSB-first Gray) to an unnormalized level. */
    static double axisLevel(const Bit *bits, int bits_per_axis);

    /** The per-axis level rule map() tabulates. */
    Sample mapBits(const Bit *bits) const;

    Modulation mod;
    int n_bpsc;
    double k_mod;
    /** points[v]: the point of the MSB-first bit pattern v. */
    std::array<Sample, 64> points{};
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_MAPPER_HH
