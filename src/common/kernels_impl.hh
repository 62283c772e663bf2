/**
 * @file
 * Kernel bodies of the runtime-dispatched SIMD layer, written ONCE
 * against the portable packed types in common/simd.hh and compiled
 * three times by kernels_scalar.cc / kernels_sse42.cc /
 * kernels_avx2.cc (each defines WILIS_SIMD_LEVEL and is built with
 * the matching -m flags). The level-1 instantiation of every loop IS
 * the scalar reference: there is no separate "reference
 * implementation" to drift from.
 *
 * Bit-exactness discipline (see the policy note in kernels.hh):
 *  - integer kernels use the same i32 arithmetic at every level;
 *  - f64 kernels use only IEEE-exact ops in the same order as the
 *    scalar expressions they replace (demapper axis metrics, complex
 *    multiply as mul/mul/sub + mul/mul/add, quantization as
 *    div -> mul -> round-to-nearest -> clamp);
 *  - vector tails fall back to scalar expressions that are textually
 *    identical to the lane computation.
 *
 * The ACS kernels additionally rely on the shift-register butterfly
 * asserted by decode/trellis_kernels.cc:
 *   pred0[s] = 2*(s % (n/2)),  pred1[s] = pred0[s] + 1,
 *   next0[s] = s / 2,          next1[s] = n/2 + s / 2.
 *
 * libm policy: kernel bodies may call at most one transcendental
 * per lane and only from the whitelist on the next line, which the
 * determinism linter (tools/wilis_lint.py, CI lint job) parses and
 * enforces -- every listed function is required to be IEEE-exact or
 * used identically in the scalar tail and the vector lane, so the
 * backends cannot drift. Extending the whitelist is a policy
 * change: update this directive AND the bit-exactness argument in
 * docs/ARCHITECTURE.md together.
 *
 * wilis-lint: kernel-libm-whitelist: exp floor log log10 nearbyint sqrt
 */

#ifndef WILIS_COMMON_KERNELS_IMPL_HH
#define WILIS_COMMON_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace wilis {
namespace kernels {
namespace WILIS_SIMD_NS {

using simd::WILIS_SIMD_NS::VecF64;
using simd::WILIS_SIMD_NS::VecI32;
using simd::WILIS_SIMD_NS::VecU64;

using i32 = std::int32_t;
using u8 = std::uint8_t;
using u64 = std::uint64_t;

// ---------------------------------------------------------- trellis

inline void
acsForwardKernel(const TrellisView &tv, const i32 *pm_in,
                 const i32 bm[4], i32 *pm_out, u64 *choices,
                 i32 *delta)
{
    const int n = tv.nStates;
    const int half = n / 2;
    constexpr int L = VecI32::kLanes;
    u64 ch = 0;
    for (int s = 0; s < n; s += L) {
        const int base = 2 * (s & (half - 1));
        VecI32 m0 = VecI32::loadEven(pm_in + base) +
                    VecI32::lookup4(bm, VecI32::load(tv.revOut0 + s));
        VecI32 m1 = VecI32::loadOdd(pm_in + base) +
                    VecI32::lookup4(bm, VecI32::load(tv.revOut1 + s));
        VecI32 mask = VecI32::gtMask(m1, m0);
        VecI32::blend(m0, m1, mask).store(pm_out + s);
        ch |= static_cast<u64>(mask.moveMask()) << s;
        if (delta)
            VecI32::abs(m1 - m0).store(delta + s);
    }
    *choices = ch;
}

inline void
normalizeMetricsKernel(i32 *pm, int n, i32 floor_threshold,
                       i32 floor_value)
{
    constexpr int L = VecI32::kLanes;
    VecI32 mv = VecI32::load(pm);
    for (int s = L; s < n; s += L)
        mv = VecI32::max(mv, VecI32::load(pm + s));
    const VecI32 vmx = VecI32::broadcast(mv.reduceMax());
    const VecI32 thr = VecI32::broadcast(floor_threshold);
    const VecI32 fl = VecI32::broadcast(floor_value);
    for (int s = 0; s < n; s += L) {
        VecI32 p = VecI32::load(pm + s);
        // Keep impossible states pinned at the floor.
        VecI32 mask = VecI32::gtMask(p, thr);
        VecI32::blend(fl, p - vmx, mask).store(pm + s);
    }
}

inline int
bestStateKernel(const i32 *pm, int n)
{
    constexpr int L = VecI32::kLanes;
    VecI32 mv = VecI32::load(pm);
    for (int s = L; s < n; s += L)
        mv = VecI32::max(mv, VecI32::load(pm + s));
    const i32 mx = mv.reduceMax();
    for (int s = 0; s < n; ++s) {
        if (pm[s] == mx)
            return s;
    }
    return 0;
}

// ------------------------------------------------ max-log BCJR frame
//
// The whole sliding-window max-log BCJR of decode/bcjr.cc in one
// call. The 64 state metrics are held as kVecs registers in one of
// two layouts:
//   natural  lane order = state index;
//   split    the 32 even states, then the 32 odd states.
// The shift-register butterfly makes each recursion read one layout
// and write the other with contiguous operands only: the forward ACS
// of arrival state s reads predecessors 2*(s % 32) and 2*(s % 32) + 1,
// i.e. entry s % 32 of each split half, and writes natural order; the
// backward ACS of states 2k / 2k + 1 reads successors k and 32 + k,
// i.e. entry k of each natural half, and writes split order. One
// deinterleave() / interleave() per step turns the result back into
// the layout the next step reads. Alpha is stored split, which is
// also the layout of the backward branch sums, so the decision unit
// adds them lane for lane.

/** Fully unroll a loop over a metric set, so it stays in registers. */
#define WILIS_UNROLL _Pragma("GCC unroll 16")

namespace bcjr {

constexpr int kStates = 64;
constexpr int kVecs = kStates / VecI32::kLanes;
constexpr int kHalf = kVecs / 2;

/** 64 state metrics (or per-state values) in registers. */
struct Metrics {
    VecI32 v[kVecs];
};

inline Metrics
load(const i32 *p)
{
    Metrics m;
    WILIS_UNROLL
    for (int i = 0; i < kVecs; ++i)
        m.v[i] = VecI32::load(p + i * VecI32::kLanes);
    return m;
}

inline void
store(const Metrics &m, i32 *p)
{
    WILIS_UNROLL
    for (int i = 0; i < kVecs; ++i)
        m.v[i].store(p + i * VecI32::kLanes);
}

/** Every state at @p rest, state 0 (first in both layouts) at 0. */
inline Metrics
state0(i32 rest)
{
    i32 tmp[kStates];
    for (int s = 0; s < kStates; ++s)
        tmp[s] = rest;
    tmp[0] = 0;
    return load(tmp);
}

/** normalizeMetricsKernel() on registers: same max, same pinning. */
inline void
normalize(Metrics &m, VecI32 thr, VecI32 fl)
{
    VecI32 mv = m.v[0];
    WILIS_UNROLL
    for (int i = 1; i < kVecs; ++i)
        mv = VecI32::max(mv, m.v[i]);
    const VecI32 vmx = VecI32::broadcast(mv.reduceMax());
    WILIS_UNROLL
    for (int i = 0; i < kVecs; ++i) {
        const VecI32 live = VecI32::gtMask(m.v[i], thr);
        m.v[i] = VecI32::blend(fl, m.v[i] - vmx, live);
    }
}

/**
 * Branch metric per state for step @p j: bm[idx[s]] with the
 * branchMetrics() table of decode/trellis_kernels.hh. Only the
 * input-0 / choice-0 metric is formed: the code's outputs satisfy
 * out1 = out0 ^ 3 (asserted by TrellisTables::get()), and
 * bm[o ^ 3] = -bm[o], so the other branch is its negation.
 */
inline Metrics
branch(const SoftBit *soft, int j, const Metrics &idx)
{
    const i32 la0 = soft[2 * j];
    const i32 la1 = soft[2 * j + 1];
    const i32 bm[4] = {-la0 - la1, la0 - la1, -la0 + la1, la0 + la1};
    Metrics g;
    WILIS_UNROLL
    for (int i = 0; i < kVecs; ++i)
        g.v[i] = VecI32::lookup4(bm, idx.v[i]);
    return g;
}

/** Forward step: split alpha_j -> split alpha_{j+1}. */
[[gnu::always_inline]] inline void
alphaStep(Metrics &a, const Metrics &g, VecI32 thr, VecI32 fl)
{
    Metrics nat;
    WILIS_UNROLL
    for (int i = 0; i < kVecs; ++i) {
        const int k = i % kHalf;
        const VecI32 m0 = a.v[k] + g.v[i];
        const VecI32 m1 = a.v[kHalf + k] - g.v[i];
        nat.v[i] = VecI32::max(m0, m1);
    }
    normalize(nat, thr, fl);
    WILIS_UNROLL
    for (int i = 0; i < kHalf; ++i)
        VecI32::deinterleave(nat.v[2 * i], nat.v[2 * i + 1], a.v[i],
                             a.v[kHalf + i]);
}

/**
 * Backward step: natural beta_{j+1} -> natural beta_j from the
 * split branch sums t0 = bm + beta along input 0 (successor k) and
 * t1 = -bm + beta along input 1 (successor 32 + k). With @p alpha_j
 * (split) it also runs the decision unit on the same sums and
 * returns best1 - best0, best_x = max(floor, max_s alpha_j + t_x).
 */
[[gnu::always_inline]] inline i32
betaStep(Metrics &beta, const Metrics &g, const i32 *alpha_j,
         VecI32 thr, VecI32 fl)
{
    VecI32 acc0 = fl;
    VecI32 acc1 = fl;
    Metrics m;
    WILIS_UNROLL
    for (int p = 0; p < kVecs; ++p) {
        const int k = p % kHalf; // even states, then odd states
        const VecI32 t0 = g.v[p] + beta.v[k];
        const VecI32 t1 = beta.v[kHalf + k] - g.v[p];
        if (alpha_j) {
            const VecI32 a = VecI32::load(alpha_j + p * VecI32::kLanes);
            acc0 = VecI32::max(acc0, a + t0);
            acc1 = VecI32::max(acc1, a + t1);
        }
        m.v[p] = VecI32::max(t0, t1);
    }
    normalize(m, thr, fl);
    WILIS_UNROLL
    for (int i = 0; i < kHalf; ++i)
        VecI32::interleave(m.v[i], m.v[kHalf + i], beta.v[2 * i],
                           beta.v[2 * i + 1]);
    return alpha_j ? acc1.reduceMax() - acc0.reduceMax() : 0;
}

} // namespace bcjr

inline void
bcjrMaxLogKernel(const TrellisView &tv, const SoftBit *soft,
                 int steps, int block_len, i32 floor_threshold,
                 i32 floor_value, i32 *alpha, SoftDecision *out)
{
    using namespace bcjr;
    wilis_assert(tv.nStates == kStates && block_len > 0,
                 "BCJR kernel needs %d states and a window, got %d / %d",
                 kStates, tv.nStates, block_len);
    if (steps <= 0)
        return;
    const VecI32 thr = VecI32::broadcast(floor_threshold);
    const VecI32 fl = VecI32::broadcast(floor_value);

    // Branch-metric indices: natural order for the forward ACS,
    // split order for the backward one.
    i32 split_out[kStates];
    for (int k = 0; k < kStates / 2; ++k) {
        split_out[k] = tv.fwdOut0[2 * k];
        split_out[kStates / 2 + k] = tv.fwdOut0[2 * k + 1];
    }
    const Metrics fwd_idx = load(tv.revOut0);
    const Metrics bwd_idx = load(split_out);

    // --- Forward PMU: alpha_j for j < steps, stored split. The
    // trellis starts in state 0.
    Metrics a = state0(floor_value);
    store(a, alpha);
    for (int j = 0; j + 1 < steps; ++j) {
        alphaStep(a, branch(soft, j, fwd_idx), thr, fl);
        store(a, alpha + static_cast<size_t>(j + 1) * kStates);
    }

    // --- Sliding windows, last first. Window w's exact backward
    // sweep over [w, w_end) starts from the provisional metric of
    // its successor block. The provisional pass that yields window
    // w-n's entry covers the very same steps, so the sweep carries it
    // as a second, independent chain, seeded uniform (0). In the
    // tail window that pass would start from the known end state
    // (state 0 of the terminated trellis) and so equals the exact
    // chain; it is not run twice.
    const int n = block_len;
    Metrics entry = state0(floor_value);
    for (int w = ((steps - 1) / n) * n; w >= 0; w -= n) {
        const int w_end = std::min(w + n, steps);
        const bool tail = w_end == steps;
        const bool carry = w > 0 && !tail;
        Metrics beta = entry; // beta_{j+1} at step j
        Metrics prov{}; // uniform seed: every state at 0
        for (int j = w_end - 1; j >= w; --j) {
            const Metrics g = branch(soft, j, bwd_idx);
            const i32 *a_j = alpha + static_cast<size_t>(j) * kStates;
            const i32 llr = betaStep(beta, g, a_j, thr, fl);
            out[j].bit = llr > 0 ? 1 : 0;
            out[j].llr = std::abs(static_cast<double>(llr));
            if (carry)
                betaStep(prov, g, nullptr, thr, fl);
        }
        entry = tail ? beta : prov;
    }
}

// --------------------------------------------------------- demapper

/**
 * Quantize lanes of real metrics: x / full_scale * max_code, round
 * to nearest even, clamp -- the vector form of common/fixed_point.hh
 * quantize().
 */
inline VecF64
quantizeLanes(VecF64 x, VecF64 full_scale, VecF64 max_code,
              VecF64 min_code)
{
    VecF64 r = VecF64::roundNearest(x / full_scale * max_code);
    return VecF64::max(VecF64::min(r, max_code), min_code);
}

/** Scalar tail twin of quantizeLanes (same expressions, one lane). */
inline i32
quantizeOne(double x, double full_scale, double max_code,
            double min_code)
{
    double r = std::nearbyint(x / full_scale * max_code);
    if (r > max_code)
        return static_cast<i32>(max_code);
    if (r < min_code)
        return static_cast<i32>(min_code);
    return static_cast<i32>(r);
}

inline void
demapBatchKernel(int mod_kind, const Sample *ys,
                 const double *weights, size_t n, double scale,
                 int soft_width, double full_scale, SoftBit *out)
{
    const double *yd = reinterpret_cast<const double *>(ys);
    const double max_code_d =
        static_cast<double>((1 << (soft_width - 1)) - 1);
    const double min_code_d =
        static_cast<double>(-(1 << (soft_width - 1)));
    constexpr int L = VecF64::kLanes;
    const VecF64 vfs = VecF64::broadcast(full_scale);
    const VecF64 vmax = VecF64::broadcast(max_code_d);
    const VecF64 vmin = VecF64::broadcast(min_code_d);
    const VecF64 vscale = VecF64::broadcast(scale);
    const VecF64 vone = VecF64::broadcast(1.0);

    auto weight = [&](size_t i) {
        return weights ? VecF64::load(weights + i) : vone;
    };
    auto q = [&](VecF64 metric, VecF64 w) {
        return quantizeLanes((vscale * metric) * w, vfs, vmax, vmin);
    };
    auto qs = [&](double metric, double w) {
        return quantizeOne((scale * metric) * w, full_scale,
                           max_code_d, min_code_d);
    };

    size_t i = 0;
    switch (mod_kind) {
      case kDemapBpsk: {
        for (; i + L <= n; i += L) {
            i32 tmp[L];
            q(VecF64::loadEven(yd + 2 * i), weight(i)).storeAsI32(tmp);
            for (int l = 0; l < L; ++l)
                out[i + l] = tmp[l];
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            out[i] = qs(yd[2 * i], w);
        }
        return;
      }
      case kDemapQpsk: {
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            i32 tre[L], tim[L];
            q(VecF64::loadEven(yd + 2 * i), w).storeAsI32(tre);
            q(VecF64::loadOdd(yd + 2 * i), w).storeAsI32(tim);
            for (int l = 0; l < L; ++l) {
                out[2 * (i + l)] = tre[l];
                out[2 * (i + l) + 1] = tim[l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            out[2 * i] = qs(yd[2 * i], w);
            out[2 * i + 1] = qs(yd[2 * i + 1], w);
        }
        return;
      }
      case kDemapQam16: {
        const double k = 1.0 / std::sqrt(10.0);
        const double c2 = 2.0 * k;
        const VecF64 vc2 = VecF64::broadcast(c2);
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            VecF64 re = VecF64::loadEven(yd + 2 * i);
            VecF64 im = VecF64::loadOdd(yd + 2 * i);
            i32 t[4][L];
            q(re, w).storeAsI32(t[0]);
            q(vc2 - VecF64::abs(re), w).storeAsI32(t[1]);
            q(im, w).storeAsI32(t[2]);
            q(vc2 - VecF64::abs(im), w).storeAsI32(t[3]);
            for (int l = 0; l < L; ++l) {
                SoftBit *o = out + 4 * (i + l);
                o[0] = t[0][l];
                o[1] = t[1][l];
                o[2] = t[2][l];
                o[3] = t[3][l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            double re = yd[2 * i];
            double im = yd[2 * i + 1];
            SoftBit *o = out + 4 * i;
            o[0] = qs(re, w);
            o[1] = qs(c2 - std::abs(re), w);
            o[2] = qs(im, w);
            o[3] = qs(c2 - std::abs(im), w);
        }
        return;
      }
      case kDemapQam64: {
        const double k = 1.0 / std::sqrt(42.0);
        const double c4 = 4.0 * k;
        const double c2 = 2.0 * k;
        const VecF64 vc4 = VecF64::broadcast(c4);
        const VecF64 vc2 = VecF64::broadcast(c2);
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            VecF64 re = VecF64::loadEven(yd + 2 * i);
            VecF64 im = VecF64::loadOdd(yd + 2 * i);
            VecF64 are = VecF64::abs(re);
            VecF64 aim = VecF64::abs(im);
            i32 t[6][L];
            q(re, w).storeAsI32(t[0]);
            q(vc4 - are, w).storeAsI32(t[1]);
            q(vc2 - VecF64::abs(are - vc4), w).storeAsI32(t[2]);
            q(im, w).storeAsI32(t[3]);
            q(vc4 - aim, w).storeAsI32(t[4]);
            q(vc2 - VecF64::abs(aim - vc4), w).storeAsI32(t[5]);
            for (int l = 0; l < L; ++l) {
                SoftBit *o = out + 6 * (i + l);
                for (int b = 0; b < 6; ++b)
                    o[b] = t[b][l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            double re = yd[2 * i];
            double im = yd[2 * i + 1];
            SoftBit *o = out + 6 * i;
            o[0] = qs(re, w);
            o[1] = qs(c4 - std::abs(re), w);
            o[2] = qs(c2 - std::abs(std::abs(re) - c4), w);
            o[3] = qs(im, w);
            o[4] = qs(c4 - std::abs(im), w);
            o[5] = qs(c2 - std::abs(std::abs(im) - c4), w);
        }
        return;
      }
    }
}

// -------------------------------------------------------------- fft
//
// Split re/im radix-2 DIT. Stage `half` pairs element g + j with
// g + j + half in each group g of 2 * half elements, multiplying the
// second by the stage's twiddle j. Every butterfly is the same
// expression at every level; only how lanes are filled differs:
//  - half >= kLanes: lanes take consecutive j, contiguous in both
//    the data and the stage's twiddle slice;
//  - half < kLanes: lanes take 2 * kLanes consecutive elements,
//    split into group halves by VecF64::exchange<half>, with the
//    twiddles replicated to match (lane l is position l % half);
//  - a transform shorter than 2 * kLanes runs the scalar butterfly.

namespace fft {

/** One butterfly pass over lanes: (u, a) <- (u + a*w, u - a*w). */
[[gnu::always_inline]] inline void
butterfly(VecF64 &ur, VecF64 &ui, VecF64 &ar, VecF64 &ai, VecF64 wr,
          VecF64 wi)
{
    const VecF64 vr = ar * wr - ai * wi;
    const VecF64 vi = ar * wi + ai * wr;
    ar = ur - vr;
    ai = ui - vi;
    ur = ur + vr;
    ui = ui + vi;
}

/** Scalar twin of butterfly() on element pair (j, j + half). */
inline void
butterflyOne(double *r0, double *i0, double *r1, double *i1, double wr,
             double wi)
{
    const double ar = *r1;
    const double ai = *i1;
    const double vr = ar * wr - ai * wi;
    const double vi = ar * wi + ai * wr;
    const double ur = *r0;
    const double ui = *i0;
    *r0 = ur + vr;
    *i0 = ui + vi;
    *r1 = ur - vr;
    *i1 = ui - vi;
}

/** A stage narrower than a vector (half == H < kLanes). */
template <int H>
inline void
narrowStage(double *re, double *im, int n, const double *wr,
            const double *wi)
{
    constexpr int L = VecF64::kLanes;
    double tr[L], ti[L];
    for (int l = 0; l < L; ++l) {
        tr[l] = wr[l % H];
        ti[l] = wi[l % H];
    }
    const VecF64 vwr = VecF64::load(tr);
    const VecF64 vwi = VecF64::load(ti);
    for (int i = 0; i < n; i += 2 * L) {
        VecF64 ur, ar, ui, ai;
        VecF64::exchange<H>(VecF64::load(re + i),
                            VecF64::load(re + i + L), ur, ar);
        VecF64::exchange<H>(VecF64::load(im + i),
                            VecF64::load(im + i + L), ui, ai);
        butterfly(ur, ui, ar, ai, vwr, vwi);
        VecF64 a, b;
        VecF64::exchange<H>(ur, ar, a, b);
        a.store(re + i);
        b.store(re + i + L);
        VecF64::exchange<H>(ui, ai, a, b);
        a.store(im + i);
        b.store(im + i + L);
    }
}

/** All butterfly stages over the split arrays, then scale out. */
template <int L>
inline void
stages(const FftView &fv, double *re, double *im, Sample *out)
{
    const int n = fv.n;
    const bool lanes_fit = n >= 2 * L;
    for (int half = 1; half < n; half <<= 1) {
        const double *wr = fv.twRe + (half - 1);
        const double *wi = fv.twIm + (half - 1);
        if constexpr (L >= 2) {
            if (half == 1 && lanes_fit) {
                narrowStage<1>(re, im, n, wr, wi);
                continue;
            }
        }
        if constexpr (L >= 4) {
            if (half == 2 && lanes_fit) {
                narrowStage<2>(re, im, n, wr, wi);
                continue;
            }
        }
        for (int g = 0; g < n; g += 2 * half) {
            double *r0 = re + g;
            double *i0 = im + g;
            double *r1 = r0 + half;
            double *i1 = i0 + half;
            int j = 0;
            for (; j + L <= half; j += L) {
                VecF64 ur = VecF64::load(r0 + j);
                VecF64 ui = VecF64::load(i0 + j);
                VecF64 ar = VecF64::load(r1 + j);
                VecF64 ai = VecF64::load(i1 + j);
                butterfly(ur, ui, ar, ai, VecF64::load(wr + j),
                          VecF64::load(wi + j));
                ur.store(r0 + j);
                ui.store(i0 + j);
                ar.store(r1 + j);
                ai.store(i1 + j);
            }
            for (; j < half; ++j)
                butterflyOne(r0 + j, i0 + j, r1 + j, i1 + j, wr[j],
                             wi[j]);
        }
    }

    // Scale and re-interleave: (re[i] * scale, im[i] * scale).
    double *dst = reinterpret_cast<double *>(out);
    const VecF64 vs = VecF64::broadcast(fv.scale);
    int i = 0;
    if constexpr (L >= 2) {
        for (; i + L <= n; i += L) {
            const VecF64 r = VecF64::load(re + i) * vs;
            const VecF64 m = VecF64::load(im + i) * vs;
            VecF64 lo, hi;
            VecF64::exchange<1>(r, m, lo, hi);
            if constexpr (L >= 4) {
                VecF64 a, b;
                VecF64::exchange<2>(lo, hi, a, b);
                lo = a;
                hi = b;
            }
            lo.store(dst + 2 * i);
            hi.store(dst + 2 * i + L);
        }
    }
    for (; i < n; ++i) {
        dst[2 * i] = re[i] * fv.scale;
        dst[2 * i + 1] = im[i] * fv.scale;
    }
}

} // namespace fft

inline void
fftKernel(const FftView &fv, const Sample *in, Sample *out, double *work)
{
    const int n = fv.n;
    double *re = work;
    double *im = work + n;
    const double *src = reinterpret_cast<const double *>(in);
    for (int i = 0; i < n; ++i) {
        const int j = fv.bitrev[i];
        re[i] = src[2 * j];
        im[i] = src[2 * j + 1];
    }
    fft::stages<VecF64::kLanes>(fv, re, im, out);
}

// ---------------------------------------------------------- channel

inline void
scaleComplexKernel(Sample *s, size_t n, Sample h)
{
    const double hr = h.real();
    const double hi = h.imag();
    constexpr int L = VecF64::kLanes;
    double *d = reinterpret_cast<double *>(s);
    const size_t total = 2 * n;
    size_t i = 0;
    if (L > 1) {
        // (re, im) pairs in lanes: a = v*hr, b = swap(v)*hi,
        // addsub -> (re*hr - im*hi, im*hr + re*hi), the exact
        // product/sum set of the scalar complex multiply.
        const VecF64 vhr = VecF64::broadcast(hr);
        const VecF64 vhi = VecF64::broadcast(hi);
        for (; i + L <= total; i += L) {
            VecF64 v = VecF64::load(d + i);
            VecF64::addsub(v * vhr, v.swapPairs() * vhi)
                .store(d + i);
        }
    }
    for (; i < total; i += 2) {
        double re = d[i];
        double im = d[i + 1];
        d[i] = re * hr - im * hi;
        d[i + 1] = im * hr + re * hi;
    }
}

inline void
axpyNoiseKernel(Sample *s, size_t n, double sigma,
                const double *gauss)
{
    constexpr int L = VecF64::kLanes;
    double *d = reinterpret_cast<double *>(s);
    const size_t total = 2 * n;
    const VecF64 vsig = VecF64::broadcast(sigma);
    size_t i = 0;
    for (; i + L <= total; i += L) {
        (VecF64::load(d + i) + vsig * VecF64::load(gauss + i))
            .store(d + i);
    }
    for (; i < total; ++i)
        d[i] = d[i] + sigma * gauss[i];
}

// ---------------------------------- SoA analytic-engine kernels
//
// Batched twins of the multi-cell analytic fast path's scalar
// expressions (Ops doc comments in kernels.hh give the contract).
// The integer counter mixing -- the CounterRng recipe from
// common/random.hh -- runs in u64 lanes, where exactness is free.
// Everything that touches a libm transcendental (log, log10, exp,
// floor) stays ONE scalar call per lane in every backend, because
// vectorized transcendental approximations would break the
// bit-exactness guarantee the golden per-user pins hold.

/** Scalar twin of CounterRng::at(counter) for key @p key. */
inline u64
mixKeyedOne(u64 key, u64 counter)
{
    u64 z = key + 0x9e3779b97f4a7c15ull * (counter + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z ^= key >> 32;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Lane form of mixKeyedOne: kLanes keys, one shared counter. */
inline VecU64
mixKeyedLanes(VecU64 keys, u64 counter)
{
    VecU64 z = keys +
               VecU64::broadcast(0x9e3779b97f4a7c15ull * (counter + 1));
    z = VecU64::mulLo(z ^ z.template shr<30>(),
                      VecU64::broadcast(0xbf58476d1ce4e5b9ull));
    z = z ^ keys.template shr<32>();
    z = VecU64::mulLo(z ^ z.template shr<27>(),
                      VecU64::broadcast(0x94d049bb133111ebull));
    return z ^ z.template shr<31>();
}

/** CounterRng::doubleAt's raw-bits -> [0, 1) conversion. */
inline double
u01FromBits(u64 bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

inline void
rngU01KeyedKernel(const u64 *keys, size_t n, u64 counter, double *out)
{
    constexpr int L = VecU64::kLanes;
    u64 bits[L];
    size_t i = 0;
    for (; i + L <= n; i += L) {
        mixKeyedLanes(VecU64::load(keys + i), counter).store(bits);
        for (int l = 0; l < L; ++l)
            out[i + l] = u01FromBits(bits[l]);
    }
    for (; i < n; ++i)
        out[i] = u01FromBits(mixKeyedOne(keys[i], counter));
}

inline void
sinrAccumBatchKernel(const double *const *gain_rows,
                     const i32 *serving, const u64 *fade_keys,
                     const u8 *active, int cells, u64 t,
                     const double *sig, size_t n, double zero_sinr_db,
                     double *sinr_db)
{
    constexpr int L = VecU64::kLanes;
    const u64 base = t * static_cast<u64>(cells);
    u64 bits[L];
    size_t i = 0;
    for (; i + L <= n; i += L) {
        // Interference accumulates per lane in ascending cell
        // order, like the scalar tail (FP addition is order-
        // sensitive); only the counter mixing vectorizes across
        // the block's entries.
        double interf[L] = {};
        const VecU64 keys = VecU64::load(fade_keys + i);
        for (int c = 0; c < cells; ++c) {
            if (!active[c])
                continue;
            mixKeyedLanes(keys, base + static_cast<u64>(c))
                .store(bits);
            for (int l = 0; l < L; ++l) {
                if (serving[i + l] == c)
                    continue;
                double u = 1.0 - u01FromBits(bits[l]);
                if (u < 1e-300)
                    u = 1e-300;
                const double fade = -std::log(u);
                interf[l] = interf[l] + gain_rows[i + l][c] * fade;
            }
        }
        for (int l = 0; l < L; ++l) {
            const double lin = sig[i + l] / (1.0 + interf[l]);
            sinr_db[i + l] =
                lin > 0.0 ? 10.0 * std::log10(lin) : zero_sinr_db;
        }
    }
    for (; i < n; ++i) {
        double interf = 0.0;
        for (int c = 0; c < cells; ++c) {
            if (!active[c] || serving[i] == c)
                continue;
            double u = 1.0 -
                       u01FromBits(mixKeyedOne(
                           fade_keys[i], base + static_cast<u64>(c)));
            if (u < 1e-300)
                u = 1e-300;
            const double fade = -std::log(u);
            interf = interf + gain_rows[i][c] * fade;
        }
        const double lin = sig[i] / (1.0 + interf);
        sinr_db[i] = lin > 0.0 ? 10.0 * std::log10(lin) : zero_sinr_db;
    }
}

/**
 * Per-entry core of perDrawBatch: textual twin of
 * CalibrationTable::lerpCoords() + per() + pberFeedback() plus the
 * Bernoulli frame draw from AnalyticLink::drawAt(), reading the
 * flattened table rows instead of calling back into softphy.
 */
inline void
perDrawOne(const PerTableView &tv, i32 rate, double snr, u64 bits,
           u8 *ok, double *pber)
{
    const double x = (snr - tv.snrLoDb) / tv.snrStepDb - 0.5;
    int b0, b1;
    double frac;
    if (x <= 0.0) {
        b0 = b1 = 0;
        frac = 0.0;
    } else if (x >= static_cast<double>(tv.numBins - 1)) {
        b0 = b1 = tv.numBins - 1;
        frac = 0.0;
    } else {
        b0 = static_cast<int>(std::floor(x));
        b1 = b0 + 1;
        frac = x - static_cast<double>(b0);
    }
    const int row = rate * tv.numBins;
    const double p0 = tv.per[row + b0];
    const double p1 = tv.per[row + b1];
    const double per = p0 + (p1 - p0) * frac;
    const bool frame_ok = u01FromBits(bits) >= per;
    const double *logs = frame_ok ? tv.logPberOk : tv.logPberBad;
    const double l0 = logs[row + b0];
    const double l1 = logs[row + b1];
    *ok = frame_ok ? 1 : 0;
    *pber = std::exp(l0 + (l1 - l0) * frac);
}

inline void
perDrawBatchKernel(const PerTableView &tv, const i32 *rates,
                   const double *snr_db, const u64 *keys, u64 t,
                   size_t n, u8 *ok, double *pber)
{
    constexpr int L = VecU64::kLanes;
    u64 bits[L];
    size_t i = 0;
    for (; i + L <= n; i += L) {
        mixKeyedLanes(VecU64::load(keys + i), t).store(bits);
        for (int l = 0; l < L; ++l)
            perDrawOne(tv, rates[i + l], snr_db[i + l], bits[l],
                       ok + i + l, pber + i + l);
    }
    for (; i < n; ++i)
        perDrawOne(tv, rates[i], snr_db[i], mixKeyedOne(keys[i], t),
                   ok + i, pber + i);
}

inline void
pfDecayKernel(double *avg, size_t n, double a, i32 granted,
              double served_bits)
{
    constexpr int L = VecF64::kLanes;
    const double keep = 1.0 - a;
    // Compute the granted element from its pre-decay value first,
    // exactly as the scheduler's single-pass scalar loop would.
    double g = 0.0;
    if (granted >= 0)
        g = keep * avg[granted] + a * served_bits;
    const VecF64 vkeep = VecF64::broadcast(keep);
    const VecF64 vzero = VecF64::broadcast(a * 0.0);
    size_t i = 0;
    for (; i + L <= n; i += L)
        (vkeep * VecF64::load(avg + i) + vzero).store(avg + i);
    for (; i < n; ++i)
        avg[i] = keep * avg[i] + a * 0.0;
    if (granted >= 0)
        avg[granted] = g;
}

// -------------------------------------------------------- the table

#if WILIS_SIMD_LEVEL == 2
inline constexpr Backend kBackend = Backend::Avx2;
#elif WILIS_SIMD_LEVEL == 1
inline constexpr Backend kBackend = Backend::Sse42;
#else
inline constexpr Backend kBackend = Backend::Scalar;
#endif

inline const Ops kOps = {
    kBackend,
    simd::WILIS_SIMD_NS::kLevelName,
    &acsForwardKernel,
    &bcjrMaxLogKernel,
    &normalizeMetricsKernel,
    &bestStateKernel,
    &demapBatchKernel,
    &fftKernel,
    &scaleComplexKernel,
    &axpyNoiseKernel,
    &rngU01KeyedKernel,
    &sinrAccumBatchKernel,
    &perDrawBatchKernel,
    &pfDecayKernel,
};

} // namespace WILIS_SIMD_NS
} // namespace kernels
} // namespace wilis

#endif // WILIS_COMMON_KERNELS_IMPL_HH
