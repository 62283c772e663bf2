/**
 * @file
 * Golden-pin hashes shared by the network simulator suites: FNV-1a
 * over every user's checkpoint-serialized statistics and over the
 * finalized packet trace, so one 64-bit value pins a whole run.
 */

#ifndef WILIS_TESTS_GOLDEN_HASH_HH
#define WILIS_TESTS_GOLDEN_HASH_HH

#include <cstdint>
#include <string>

#include "common/snapshot.hh"
#include "mac/packet_trace.hh"
#include "sim/multicell_detail.hh"
#include "sim/network_sim.hh"

namespace wilis {
namespace golden {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes, chained through @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * FNV-1a over the checkpoint serialization of every user's
 * UserStats in id order, then the aggregate's: every counter,
 * every raw moment accumulator and every histogram bin.
 */
inline std::uint64_t
statsHash(const sim::NetworkResult &r)
{
    SnapshotWriter w(1, "golden");
    for (const sim::UserStats &u : r.users)
        sim::detail::saveUserStats(w, u);
    sim::detail::saveUserStats(w, r.aggregate);
    return fnv1a(kFnvBasis, w.bytes());
}

/** FNV-1a over the finalized trace text (0 when untraced). */
inline std::uint64_t
traceHash(const sim::NetworkResult &r)
{
    return r.trace ? fnv1a(kFnvBasis, r.trace->toText()) : 0;
}

} // namespace golden
} // namespace wilis

#endif // WILIS_TESTS_GOLDEN_HASH_HH
