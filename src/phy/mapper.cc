#include "phy/mapper.hh"

#include <cmath>

#include "common/logging.hh"

namespace wilis {
namespace phy {

Mapper::Mapper(Modulation mod_) : mod(mod_)
{
    n_bpsc = bitsPerSubcarrier(mod);
    switch (mod) {
      case Modulation::BPSK:
        k_mod = 1.0;
        break;
      case Modulation::QPSK:
        k_mod = 1.0 / std::sqrt(2.0);
        break;
      case Modulation::QAM16:
        k_mod = 1.0 / std::sqrt(10.0);
        break;
      case Modulation::QAM64:
        k_mod = 1.0 / std::sqrt(42.0);
        break;
    }
    for (int v = 0; v < (1 << n_bpsc); ++v) {
        Bit bits[6];
        for (int b = 0; b < n_bpsc; ++b)
            bits[b] = static_cast<Bit>((v >> (n_bpsc - 1 - b)) & 1);
        points[static_cast<size_t>(v)] = mapBits(bits);
    }
}

double
Mapper::axisLevel(const Bit *bits, int bits_per_axis)
{
    // First bit: sign (1 = positive). Remaining bits Gray-select the
    // magnitude from the inside of the constellation outward.
    double sign = bits[0] ? 1.0 : -1.0;
    double mag;
    switch (bits_per_axis) {
      case 1:
        mag = 1.0;
        break;
      case 2:
        mag = bits[1] ? 1.0 : 3.0;
        break;
      case 3:
        if (bits[1])
            mag = bits[2] ? 3.0 : 1.0;
        else
            mag = bits[2] ? 5.0 : 7.0;
        break;
      default:
        wilis_panic("unsupported bits per axis %d", bits_per_axis);
    }
    return sign * mag;
}

Sample
Mapper::mapBits(const Bit *bits) const
{
    switch (mod) {
      case Modulation::BPSK:
        return Sample(axisLevel(bits, 1), 0.0);
      case Modulation::QPSK:
        return k_mod * Sample(axisLevel(bits, 1),
                              axisLevel(bits + 1, 1));
      case Modulation::QAM16:
        return k_mod * Sample(axisLevel(bits, 2),
                              axisLevel(bits + 2, 2));
      case Modulation::QAM64:
        return k_mod * Sample(axisLevel(bits, 3),
                              axisLevel(bits + 3, 3));
    }
    wilis_panic("bad modulation");
}

SampleVec
Mapper::mapStream(const BitVec &bits) const
{
    wilis_assert(bits.size() % static_cast<size_t>(n_bpsc) == 0,
                 "bit stream length %zu not a multiple of %d",
                 bits.size(), n_bpsc);
    SampleVec out;
    out.reserve(bits.size() / static_cast<size_t>(n_bpsc));
    for (size_t i = 0; i < bits.size();
         i += static_cast<size_t>(n_bpsc))
        out.push_back(map(&bits[i]));
    return out;
}

std::vector<Sample>
Mapper::constellation() const
{
    return std::vector<Sample>(points.begin(),
                               points.begin() + (1 << n_bpsc));
}

} // namespace phy
} // namespace wilis
