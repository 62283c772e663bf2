#include "phy/fft.hh"

#include <cmath>
#include <numbers>

#include "common/kernels.hh"
#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {

/** Transforms up to this size keep their kernel scratch on the stack. */
constexpr int kStackPoints = 256;

} // namespace

Fft::Fft(int size_) : n(size_)
{
    wilis_assert(n >= 2 && (n & (n - 1)) == 0,
                 "FFT size %d is not a power of two", n);
    int log2n = 0;
    while ((1 << log2n) < n)
        ++log2n;
    scale = 1.0 / std::sqrt(static_cast<double>(n));

    std::vector<Sample> twiddles(static_cast<size_t>(n / 2));
    for (int k = 0; k < n / 2; ++k) {
        double ang = -2.0 * std::numbers::pi * k / n;
        twiddles[static_cast<size_t>(k)] =
            Sample(std::cos(ang), std::sin(ang));
    }
    // Stage `half` uses twiddles[j * n / (2 * half)], j < half.
    for (int half = 1; half < n; half <<= 1) {
        const int step = n / (2 * half);
        for (int j = 0; j < half; ++j) {
            const Sample w = twiddles[static_cast<size_t>(j * step)];
            const Sample wc = std::conj(w);
            fwd_re.push_back(w.real());
            fwd_im.push_back(w.imag());
            inv_re.push_back(wc.real());
            inv_im.push_back(wc.imag());
        }
    }

    bitrev.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        int r = 0;
        for (int b = 0; b < log2n; ++b)
            r |= ((i >> b) & 1) << (log2n - 1 - b);
        bitrev[static_cast<size_t>(i)] = r;
    }
}

void
Fft::transform(SampleView in, SampleSpan out, bool invert) const
{
    wilis_assert(static_cast<int>(in.size()) == n &&
                     static_cast<int>(out.size()) == n,
                 "FFT input size %zu / output size %zu != %d",
                 in.size(), out.size(), n);
    const kernels::FftView view{
        n, bitrev.data(), invert ? inv_re.data() : fwd_re.data(),
        invert ? inv_im.data() : fwd_im.data(), scale};
    double stack_work[2 * kStackPoints];
    std::vector<double> heap_work;
    double *work = stack_work;
    if (n > kStackPoints) {
        heap_work.resize(2 * static_cast<size_t>(n));
        work = heap_work.data();
    }
    kernels::ops().fft(view, in.data(), out.data(), work);
}

} // namespace phy
} // namespace wilis
