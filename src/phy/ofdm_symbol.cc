#include "phy/ofdm_symbol.hh"

#include "common/logging.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace phy {

namespace {

// Logical subcarrier indices -26..26 used for data, in ascending
// order, skipping DC (0) and the pilots (+-7, +-21).
constexpr std::array<int, OfdmGeometry::kDataCarriers> data_logical = {
    -26, -25, -24, -23, -22, -20, -19, -18, -17, -16, -15, -14,
    -13, -12, -11, -10, -9,  -8,  -6,  -5,  -4,  -3,  -2,  -1,
    1,   2,   3,   4,   5,   6,   8,   9,   10,  11,  12,  13,
    14,  15,  16,  17,  18,  19,  20,  22,  23,  24,  25,  26,
};

constexpr std::array<int, OfdmGeometry::kPilotCarriers> pilot_logical =
    {-21, -7, 7, 21};

// Relative polarity of the four pilot tones within one symbol.
constexpr std::array<int, OfdmGeometry::kPilotCarriers> pilot_sign = {
    1, 1, 1, -1};

int
logicalToBin(int k)
{
    return k >= 0 ? k : OfdmGeometry::kFftSize + k;
}

} // namespace

int
OfdmGeometry::dataBin(int i)
{
    wilis_assert(i >= 0 && i < kDataCarriers, "data carrier %d", i);
    return logicalToBin(data_logical[static_cast<size_t>(i)]);
}

const std::array<int, OfdmGeometry::kDataCarriers> &
OfdmGeometry::dataBins()
{
    static const std::array<int, kDataCarriers> bins = [] {
        std::array<int, kDataCarriers> b{};
        for (int i = 0; i < kDataCarriers; ++i)
            b[static_cast<size_t>(i)] = dataBin(i);
        return b;
    }();
    return bins;
}

int
OfdmGeometry::pilotBin(int i)
{
    wilis_assert(i >= 0 && i < kPilotCarriers, "pilot carrier %d", i);
    return logicalToBin(pilot_logical[static_cast<size_t>(i)]);
}

PilotTracker::PilotTracker()
{
    int seq[127];
    Scrambler::pilotPolarity(seq);
    for (int i = 0; i < 127; ++i)
        polarity[static_cast<size_t>(i)] = seq[i];
}

void
PilotTracker::insertPilots(SampleSpan bins)
{
    wilis_assert(bins.size() == OfdmGeometry::kFftSize,
                 "bad bin buffer size %zu", bins.size());
    int p = polarity[static_cast<size_t>(symbol_index % 127)];
    for (int i = 0; i < OfdmGeometry::kPilotCarriers; ++i) {
        bins[static_cast<size_t>(OfdmGeometry::pilotBin(i))] =
            Sample(p * pilot_sign[static_cast<size_t>(i)], 0.0);
    }
    ++symbol_index;
}

} // namespace phy
} // namespace wilis
