#include "phy/cyclic_prefix.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace phy {

SampleVec
addCyclicPrefix(const SampleVec &body)
{
    wilis_assert(body.size() == OfdmGeometry::kFftSize,
                 "symbol body size %zu", body.size());
    SampleVec out(OfdmGeometry::kSymbolLen);
    std::copy(body.end() - OfdmGeometry::kCpLen, body.end(),
              out.begin());
    std::copy(body.begin(), body.end(),
              out.begin() + OfdmGeometry::kCpLen);
    return out;
}

SampleVec
removeCyclicPrefix(const SampleVec &symbol)
{
    wilis_assert(symbol.size() == OfdmGeometry::kSymbolLen,
                 "symbol size %zu", symbol.size());
    return SampleVec(symbol.begin() + OfdmGeometry::kCpLen,
                     symbol.end());
}

} // namespace phy
} // namespace wilis
