/**
 * @file
 * Unitary radix-2 FFT/IFFT used by the OFDM modulator and
 * demodulator. Both directions scale by 1/sqrt(N) so that symbol
 * energy is preserved and the AWGN variance set in the time domain
 * equals the per-subcarrier noise variance seen by the demapper.
 * The butterflies run in the kernel layer (kernels::Ops::fft) over
 * this object's per-direction twiddle tables.
 */

#ifndef WILIS_PHY_FFT_HH
#define WILIS_PHY_FFT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace wilis {
namespace phy {

/** Precomputed-twiddle unitary FFT of a fixed power-of-two size. */
class Fft
{
  public:
    /** @param size_ Transform size; must be a power of two. */
    explicit Fft(int size_);

    /** Transform size. */
    int size() const { return n; }

    /** In-place forward transform (time -> frequency), unitary. */
    void forward(SampleSpan x) const { transform(x, x, false); }

    /** In-place inverse transform (frequency -> time), unitary. */
    void inverse(SampleSpan x) const { transform(x, x, true); }

    /**
     * Forward transform of @p in into @p out (both size() samples;
     * they may alias). Bit-identical to the in-place form.
     */
    void forward(SampleView in, SampleSpan out) const
    {
        transform(in, out, false);
    }

    /** Inverse transform of @p in into @p out (may alias). */
    void inverse(SampleView in, SampleSpan out) const
    {
        transform(in, out, true);
    }

  private:
    void transform(SampleView in, SampleSpan out, bool invert) const;

    int n;
    double scale;
    std::vector<std::int32_t> bitrev;
    // Per-stage twiddles (see kernels::FftView): forward factors
    // exp(-2*pi*i*k/n), and their conjugates for the inverse.
    std::vector<double> fwd_re, fwd_im, inv_re, inv_im;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_FFT_HH
