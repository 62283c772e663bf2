/**
 * @file
 * Cyclic prefix insertion and removal: the last kCpLen time-domain
 * samples of each OFDM symbol are prepended as a guard interval.
 */

#ifndef WILIS_PHY_CYCLIC_PREFIX_HH
#define WILIS_PHY_CYCLIC_PREFIX_HH

#include "common/types.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace phy {

/** Prepend the cyclic prefix to one 64-sample symbol body. */
SampleVec addCyclicPrefix(const SampleVec &body);

/** Strip the cyclic prefix from one 80-sample symbol. */
SampleVec removeCyclicPrefix(const SampleVec &symbol);

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_CYCLIC_PREFIX_HH
