#include "phy/puncture.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {

// Keep-patterns over the interleaved A/B rate-1/2 stream: bit j of
// the mask is set if offset j of a period survives.
constexpr std::uint8_t kMaskR12 = 0b11;
constexpr std::uint8_t kMaskR23 = 0b0111;     // A1 B1 A2 (not B2)
constexpr std::uint8_t kMaskR34 = 0b100111;   // A1 B1 A2 B3

/** Puncture whole periods with the pattern unrolled at compile time. */
template <size_t Period, std::uint8_t Mask>
void
punctureBlocks(const Bit *in, size_t n, Bit *out)
{
    for (size_t base = 0; base < n; base += Period) {
#pragma GCC unroll 8
        for (size_t j = 0; j < Period; ++j) {
            if ((Mask >> j) & 1)
                *out++ = in[base + j];
        }
    }
}

/** Inverse of punctureBlocks(): erasures (0) at dropped offsets. */
template <size_t Period, std::uint8_t Mask>
void
depunctureBlocks(const SoftBit *in, size_t n, SoftBit *out)
{
    for (size_t base = 0; base < n; base += Period) {
#pragma GCC unroll 8
        for (size_t j = 0; j < Period; ++j)
            out[base + j] = ((Mask >> j) & 1) ? *in++ : 0;
    }
}

} // namespace

Puncturer::Puncturer(CodeRate rate_) : rate(rate_)
{
    switch (rate) {
      case CodeRate::R12:
        keep_mask = kMaskR12;
        period_ = 2;
        break;
      case CodeRate::R23:
        keep_mask = kMaskR23;
        period_ = 4;
        break;
      case CodeRate::R34:
        keep_mask = kMaskR34;
        period_ = 6;
        break;
    }
    wilis_assert(period_ != 0, "bad code rate");
    for (size_t j = 0; j < period_; ++j) {
        if (kept(j))
            keep_at[n_keep++] = static_cast<std::uint8_t>(j);
    }
}

BitVec
Puncturer::puncture(const BitVec &coded) const
{
    BitVec out(puncturedLength(coded.size()));
    puncture(BitView(coded), BitSpan(out));
    return out;
}

void
Puncturer::puncture(BitView coded, BitSpan out) const
{
    wilis_assert(coded.size() % period_ == 0,
                 "coded length %zu not a multiple of puncture period "
                 "%zu", coded.size(), period_);
    wilis_assert(out.size() == puncturedLength(coded.size()),
                 "puncture output span size %zu, expected %zu",
                 out.size(), puncturedLength(coded.size()));
    switch (rate) {
      case CodeRate::R12:
        std::copy(coded.begin(), coded.end(), out.begin());
        return;
      case CodeRate::R23:
        punctureBlocks<4, kMaskR23>(coded.data(), coded.size(),
                                    out.data());
        return;
      case CodeRate::R34:
        punctureBlocks<6, kMaskR34>(coded.data(), coded.size(),
                                    out.data());
        return;
    }
}

SoftVec
Puncturer::depuncture(const SoftVec &soft) const
{
    SoftVec out(unpuncturedLength(soft.size()));
    depuncture(SoftView(soft), SoftSpan(out));
    return out;
}

void
Puncturer::depuncture(SoftView soft, SoftSpan out) const
{
    wilis_assert(soft.size() % n_keep == 0,
                 "punctured length %zu not a multiple of %zu",
                 soft.size(), n_keep);
    wilis_assert(out.size() == unpuncturedLength(soft.size()),
                 "depuncture output span size %zu, expected %zu",
                 out.size(), unpuncturedLength(soft.size()));
    // Erasures (soft value 0) carry no channel information.
    switch (rate) {
      case CodeRate::R12:
        std::copy(soft.begin(), soft.end(), out.begin());
        return;
      case CodeRate::R23:
        depunctureBlocks<4, kMaskR23>(soft.data(), out.size(),
                                      out.data());
        return;
      case CodeRate::R34:
        depunctureBlocks<6, kMaskR34>(soft.data(), out.size(),
                                      out.data());
        return;
    }
}

size_t
Puncturer::puncturedLength(size_t coded_len) const
{
    wilis_assert(coded_len % period_ == 0, "bad coded length %zu",
                 coded_len);
    return coded_len / period_ * n_keep;
}

size_t
Puncturer::unpuncturedLength(size_t punct_len) const
{
    wilis_assert(punct_len % n_keep == 0, "bad punctured length %zu",
                 punct_len);
    return punct_len / n_keep * period_;
}

} // namespace phy
} // namespace wilis
