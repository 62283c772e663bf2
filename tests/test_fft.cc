/**
 * @file
 * FFT unit tests: impulse/DC responses, unitarity (Parseval),
 * roundtrip, linearity, a known analytic tone transform, and
 * byte-for-byte agreement of every kernel backend with the textbook
 * std::complex radix-2 loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "common/kernels.hh"
#include "common/random.hh"
#include "phy/fft.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

SampleVec
randomVec(int n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    SampleVec v(static_cast<size_t>(n));
    for (auto &x : v)
        x = Sample(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
    return v;
}

double
maxError(const SampleVec &a, const SampleVec &b)
{
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

double
energy(const SampleVec &v)
{
    double e = 0.0;
    for (const auto &x : v)
        e += std::norm(x);
    return e;
}

/**
 * The textbook in-place unitary radix-2 DIT over std::complex: the
 * reference whose exact operation sequence the kernel reproduces.
 */
void
referenceTransform(SampleVec &x, bool invert)
{
    const int n = static_cast<int>(x.size());
    int log2n = 0;
    while ((1 << log2n) < n)
        ++log2n;
    for (int i = 0; i < n; ++i) {
        int j = 0;
        for (int b = 0; b < log2n; ++b)
            j |= ((i >> b) & 1) << (log2n - 1 - b);
        if (i < j)
            std::swap(x[static_cast<size_t>(i)],
                      x[static_cast<size_t>(j)]);
    }
    for (int len = 2; len <= n; len <<= 1) {
        const int half = len >> 1;
        for (int i = 0; i < n; i += len) {
            for (int j = 0; j < half; ++j) {
                const double ang =
                    -2.0 * std::numbers::pi * (j * (n / len)) / n;
                Sample w(std::cos(ang), std::sin(ang));
                if (invert)
                    w = std::conj(w);
                const Sample u = x[static_cast<size_t>(i + j)];
                const Sample v = x[static_cast<size_t>(i + j + half)] * w;
                x[static_cast<size_t>(i + j)] = u + v;
                x[static_cast<size_t>(i + j + half)] = u - v;
            }
        }
    }
    const double scale = 1.0 / std::sqrt(static_cast<double>(n));
    for (auto &v : x)
        v *= scale;
}

/** Random input with signed zeros and mixed magnitudes mixed in. */
SampleVec
edgyVec(int n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    SampleVec v(static_cast<size_t>(n));
    auto part = [&]() {
        switch (rng.nextBelow(6)) {
          case 0:
            return 0.0;
          case 1:
            return -0.0;
          case 2:
            return (rng.nextDouble() - 0.5) * 1e-300;
          case 3:
            return (rng.nextDouble() - 0.5) * 1e6;
          default:
            return rng.nextDouble() - 0.5;
        }
    };
    for (auto &x : v)
        x = Sample(part(), part());
    return v;
}

} // namespace

TEST(Fft, BitIdenticalToReferenceOnEveryBackend)
{
    const kernels::Backend prev = kernels::activeBackend();
    for (kernels::Backend b : kernels::availableBackends()) {
        ASSERT_TRUE(kernels::setBackend(b));
        for (int n : {2, 4, 8, 16, 64, 256, 512}) {
            Fft fft(n);
            for (std::uint64_t t = 0; t < 50; ++t) {
                for (bool invert : {false, true}) {
                    SampleVec x = edgyVec(n, 1000 * n + t);
                    SampleVec want = x;
                    referenceTransform(want, invert);
                    // In place and out of place must both match.
                    SampleVec out(x.size());
                    if (invert)
                        fft.inverse(x, out);
                    else
                        fft.forward(x, out);
                    if (invert)
                        fft.inverse(x);
                    else
                        fft.forward(x);
                    ASSERT_EQ(std::memcmp(x.data(), want.data(),
                                          x.size() * sizeof(Sample)),
                              0)
                        << kernels::backendName(b) << " n=" << n
                        << " trial " << t << " inverse " << invert;
                    ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                          out.size() * sizeof(Sample)),
                              0)
                        << kernels::backendName(b) << " n=" << n
                        << " out of place";
                }
            }
        }
    }
    kernels::setBackend(prev);
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    Fft fft(64);
    SampleVec x(64, Sample(0, 0));
    x[0] = Sample(1, 0);
    fft.forward(x);
    // Unitary: each bin = 1/sqrt(64) = 0.125.
    for (const auto &v : x) {
        EXPECT_NEAR(v.real(), 0.125, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const int n = 64;
    const int k = 5;
    Fft fft(n);
    SampleVec x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        double ang = 2.0 * std::numbers::pi * k * i / n;
        x[static_cast<size_t>(i)] = Sample(std::cos(ang), std::sin(ang));
    }
    fft.forward(x);
    for (int i = 0; i < n; ++i) {
        double expected = (i == k) ? std::sqrt(64.0) : 0.0;
        EXPECT_NEAR(std::abs(x[static_cast<size_t>(i)]), expected,
                    1e-10)
            << "bin " << i;
    }
}

TEST(Fft, RoundTripIsIdentity)
{
    for (int n : {2, 8, 64, 256}) {
        Fft fft(n);
        SampleVec x = randomVec(n, 123 + static_cast<std::uint64_t>(n));
        SampleVec orig = x;
        fft.forward(x);
        fft.inverse(x);
        EXPECT_LT(maxError(x, orig), 1e-12) << "size " << n;
    }
}

TEST(Fft, UnitaryPreservesEnergy)
{
    Fft fft(64);
    SampleVec x = randomVec(64, 7);
    double e0 = energy(x);
    fft.forward(x);
    EXPECT_NEAR(energy(x), e0, 1e-10);
    fft.inverse(x);
    EXPECT_NEAR(energy(x), e0, 1e-10);
}

TEST(Fft, Linearity)
{
    Fft fft(64);
    SampleVec a = randomVec(64, 1);
    SampleVec b = randomVec(64, 2);
    SampleVec sum(64);
    for (size_t i = 0; i < 64; ++i)
        sum[i] = a[i] + 2.0 * b[i];

    fft.forward(a);
    fft.forward(b);
    fft.forward(sum);
    SampleVec expect(64);
    for (size_t i = 0; i < 64; ++i)
        expect[i] = a[i] + 2.0 * b[i];
    EXPECT_LT(maxError(sum, expect), 1e-11);
}

TEST(FftDeath, NonPowerOfTwoPanics)
{
    EXPECT_DEATH(Fft(48), "power of two");
}

TEST(FftDeath, WrongInputSizePanics)
{
    Fft fft(64);
    SampleVec x(32);
    EXPECT_DEATH(fft.forward(x), "input size");
}
