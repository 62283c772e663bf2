/**
 * @file
 * The per-link fidelity ladder of the network simulators: one
 * predicate and two rungs, shared by the single-cell loop
 * (network_sim.cc) and the multi-cell engine (multicell_sim.cc).
 *
 *  - The predicate, FidelityPolicy::fullPhySlot(t), picks the rung
 *    of slot t: "full" always, "analytic" never, and "auto" on a
 *    per-user warm-up prefix and periodic refresh windows -- the
 *    mixed-fidelity operating point WiLIS argues for (bit-exact
 *    where it matters, modeled where it does not). It is a pure
 *    function of the slot index, so the schedule cannot depend on
 *    sharding.
 *  - The full rung, WorkerPhy::fullPhyFrame() (worker_phy.hh), is
 *    the bit-exact frame transaction (tx -> channel -> rx ->
 *    decode).
 *  - The analytic rung is a calibrated draw at the slot's effective
 *    SNR/SINR: success as uniform(stream, t) >= PER(rate, snr) from
 *    a softphy::CalibrationTable (per-rate, per-SNR-bin frame error
 *    rates measured offline against the full PHY), feedback as the
 *    table's calibrated packet BER. AnalyticLink::drawAt() is the
 *    scalar form; the perDrawBatch kernel (common/kernels.hh) is its
 *    batched twin, bit-identical per lane. Roughly three orders of
 *    magnitude cheaper per slot.
 *
 * Both rungs produce the same LinkFrameResult, so SoftRate and ARQ
 * consume frame outcomes without knowing which rung produced them.
 * All analytic randomness is keyed by (master seed, user, slot)
 * through the counter generator -- never by worker id -- so every
 * mode stays bit-identical across thread counts.
 */

#ifndef WILIS_SIM_LINK_FIDELITY_HH
#define WILIS_SIM_LINK_FIDELITY_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "phy/modulation.hh"

namespace wilis {

namespace softphy {
class CalibrationTable;
}

namespace sim {

/**
 * Effective SNR/SINR assigned to a slot with no usable signal (a
 * dropped fade, or a zero signal term in the multi-cell SINR): far
 * below any calibrated bin, so the PER lookup saturates at the
 * worst-case row edge. Shared by the single-cell loop and the
 * batched SINR kernel so every path bins a dead slot identically.
 */
inline constexpr double kZeroSinrDb = -300.0;

/** Which rungs simulate a link's frame slots. */
enum class FidelityMode {
    /** Bit-exact PHY for every slot. */
    Full = 0,
    /** Calibrated analytic model for every slot. */
    Analytic = 1,
    /** Full PHY for warm-up/refresh slots, analytic in between. */
    Auto = 2,
};

/** Config-file name of @p mode ("full" / "analytic" / "auto"). */
const char *fidelityModeName(FidelityMode mode);

/** Inverse of fidelityModeName(); fatal on unknown names. */
FidelityMode fidelityModeFromName(const std::string &name);

/**
 * Per-link fidelity selection, threaded through sim::NetworkSpec.
 * The schedule knobs only matter in Auto mode.
 */
struct FidelityPolicy {
    /** Rung selection. */
    FidelityMode mode = FidelityMode::Full;
    /** Auto: leading slots per user simulated with the full PHY. */
    std::uint64_t warmupSlots = 16;
    /** Auto: slots between the starts of two refresh windows. */
    std::uint64_t refreshPeriod = 64;
    /** Auto: full-PHY slots at the start of each refresh window. */
    std::uint64_t refreshSlots = 4;

    /**
     * True if slot @p t of a user timeline runs the full PHY under
     * this policy -- a pure function of the slot index, so the
     * fidelity schedule can never depend on sharding.
     */
    bool fullPhySlot(std::uint64_t t) const;
};

/** Frame outcome as seen by the MAC, whatever rung produced it. */
struct LinkFrameResult {
    /** True if the frame decoded (or was drawn) error-free. */
    bool ok = false;
    /** SoftPHY packet-BER feedback for SoftRate. */
    double pber = 0.0;
};

/**
 * The analytic rung's scalar form: calibrated frame draws for one
 * link, at an effective SNR/SINR the caller supplies -- the
 * single-cell loop folds the slot's fading gain into the link's mean
 * SNR, the multi-cell engine folds pathloss, shadowing, fading and
 * same-slot interference into one SINR (and draws through the
 * bit-identical perDrawBatch kernel instead).
 */
class AnalyticLink
{
  public:
    /**
     * @param table     Calibration table (borrowed, non-null).
     * @param draw_stream Per-user stream key for the success draws
     *                  ((master seed, user)-derived by the caller).
     */
    AnalyticLink(const softphy::CalibrationTable *table,
                 std::uint64_t draw_stream);

    /**
     * Draw the frame outcome of slot @p t at @p snr_eff_db from the
     * calibration table -- success as uniform(stream, t) >=
     * PER(rate, snr), feedback as the calibrated packet BER
     * conditioned on the outcome.
     */
    LinkFrameResult drawAt(phy::RateIndex rate, std::uint64_t t,
                           double snr_eff_db) const;

  private:
    const softphy::CalibrationTable *table_;
    CounterRng draws_;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_LINK_FIDELITY_HH
