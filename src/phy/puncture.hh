/**
 * @file
 * 802.11a puncturing: derives rates 2/3 and 3/4 from the rate-1/2
 * mother code by deleting coded bits; the depuncturer reinserts
 * zero-confidence erasures so the decoders always see the full
 * rate-1/2 lattice.
 */

#ifndef WILIS_PHY_PUNCTURE_HH
#define WILIS_PHY_PUNCTURE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/**
 * Puncturer/depuncturer for the 802.11a code-rate set. The rate's
 * keep-pattern over one puncturing period of the rate-1/2 output
 * stream (A1 B1 A2 B2 ...) is precomputed as the list of kept
 * offsets: R12 keeps both, R23 keeps A1 B1 A2 (drops B2), R34 keeps
 * A1 B1 A2 B3 (drops B2 A3).
 */
class Puncturer
{
  public:
    /** Build the puncturer for one code rate. */
    explicit Puncturer(CodeRate rate_);

    /** Code rate handled. */
    CodeRate codeRate() const { return rate; }

    /** True if rate-1/2 position @p i survives puncturing. */
    bool
    kept(size_t i) const
    {
        return (keep_mask >> (i % period_)) & 1;
    }

    /** Rate-1/2 stream position of punctured bit @p p. */
    size_t
    unpuncturedIndex(size_t p) const
    {
        return p / n_keep * period_ + keep_at[p % n_keep];
    }

    /**
     * Remove punctured positions from rate-1/2 @p coded bits.
     * For R12 this is the identity.
     */
    BitVec puncture(const BitVec &coded) const;

    /**
     * Reinsert erasures (soft value 0) at punctured positions.
     * @param soft  Received soft bits in punctured order.
     * @return Soft stream matching the rate-1/2 coded length.
     */
    SoftVec depuncture(const SoftVec &soft) const;

    /** Punctured length for a rate-1/2 stream of @p coded_len bits. */
    size_t puncturedLength(size_t coded_len) const;

    /** Rate-1/2 length that punctures to @p punct_len bits. */
    size_t unpuncturedLength(size_t punct_len) const;

    /**
     * Puncture into caller-owned storage; @p out must hold exactly
     * puncturedLength(coded.size()) bits.
     */
    void puncture(BitView coded, BitSpan out) const;

    /**
     * Depuncture into caller-owned storage; @p out must hold exactly
     * unpuncturedLength(soft.size()) values.
     */
    void depuncture(SoftView soft, SoftSpan out) const;

  private:
    CodeRate rate;
    /** Rate-1/2 positions per puncturing period (2, 4 or 6). */
    size_t period_ = 0;
    /** Bit j set: offset j of a period is kept. */
    std::uint8_t keep_mask = 0;
    /** Kept positions per period. */
    size_t n_keep = 0;
    /** Offsets of the kept positions within a period, ascending. */
    std::array<std::uint8_t, 6> keep_at{};
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_PUNCTURE_HH
