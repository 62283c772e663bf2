/**
 * @file
 * Runtime-dispatched SIMD kernel registry for the PHY/decoder hot
 * paths.
 *
 * The three hottest inner loops of the simulator -- soft-LLR
 * demapping, the trellis add-compare-select sweeps of the decoders,
 * and the per-sample complex channel arithmetic -- are expressed
 * once against the portable packed-vector layer in
 * common/simd.hh and compiled three times: scalar, SSE4.2 and AVX2
 * (kernels_scalar.cc / kernels_sse42.cc / kernels_avx2.cc). At
 * startup the dispatcher picks the widest backend the host supports
 * (CPUID via common/cpu_features.hh); tests, benches and scenario
 * specs can force a backend through WILIS_KERNEL_BACKEND or a
 * KernelPolicy.
 *
 * Numerical-equivalence policy: every backend is BIT-EXACT with the
 * scalar reference. Integer kernels use identical i32 arithmetic;
 * floating kernels use only IEEE-exact f64 operations (add, sub, mul,
 * div, abs, min, max, round-to-nearest) in the same order as the
 * scalar code, and never fuse into FMA. Backend selection therefore
 * changes simulation *speed* only, never simulation *physics* --
 * pinned by tests/test_simd_kernels.cc on randomized inputs and by
 * the rate x channel grid. Narrower lanes (saturating i16 path
 * metrics, packed f32) would buy width at the price of that
 * guarantee, so the layer has none.
 *
 * The OFDM (I)FFT is one entry too (fft): split re/im butterflies
 * over per-direction twiddle tables, vectorized across each stage's
 * butterflies once a stage spans a full vector.
 *
 * Granularity: Viterbi and SOVA call the per-step ACS entries; the
 * max-log BCJR calls one whole-frame entry (bcjrMaxLog) that keeps
 * the state metrics in registers across steps. It relies on the
 * shift-register butterfly and on the code's complement outputs
 * (fwdOut1 = fwdOut0 ^ 3, revOut1 = revOut0 ^ 3, so the second
 * branch metric is the negated first), both asserted when
 * decode::TrellisTables builds the view, and sweeps each window's
 * exact backward chain together with the provisional chain of the
 * preceding window, which covers the same steps (see
 * docs/ARCHITECTURE.md "The SIMD kernel layer").
 */

#ifndef WILIS_COMMON_KERNELS_HH
#define WILIS_COMMON_KERNELS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wilis {
namespace kernels {

/** Kernel backend identifiers, in increasing vector width. */
enum class Backend {
    /** Portable scalar reference (the semantic ground truth). */
    Scalar = 0,
    /** SSE4.2, 128-bit lanes. */
    Sse42 = 1,
    /** AVX2, 256-bit lanes. */
    Avx2 = 2,
};

/** Registry name of a backend ("scalar", "sse4.2", "avx2"). */
const char *backendName(Backend b);

/**
 * Parse a backend name ("scalar", "sse4.2"/"sse42", "avx2"). "auto"
 * and "" return no value (meaning: best supported).
 */
bool parseBackend(const std::string &name, Backend *out);

/**
 * Per-scenario kernel selection, threaded through sim::ScenarioSpec /
 * sim::NetworkSpec so sweeps can A/B backends from configuration
 * alone. "auto" keeps the process-wide default (the widest supported
 * backend, or whatever WILIS_KERNEL_BACKEND forced).
 */
struct KernelPolicy {
    /** Requested backend name: "auto", "scalar", "sse4.2", "avx2". */
    std::string backend = "auto";
};

/**
 * Trellis structure handed to the ACS kernels as flat i32 arrays (one
 * entry per state, SIMD-friendly). The vector backends additionally
 * rely on the butterfly layout of a shift-register code --
 * pred0[s] = 2*(s % (n/2)), pred1[s] = pred0[s] + 1,
 * next0[s] = s / 2, next1[s] = n/2 + s / 2 -- and bcjrMaxLog on
 * complementary branch outputs, fwdOut1[s] = fwdOut0[s] ^ 3 and
 * revOut1[s] = revOut0[s] ^ 3; decode/trellis_kernels.cc asserts
 * both once when building the view.
 */
struct TrellisView {
    /** Number of states (a multiple of the widest vector width). */
    int nStates;
    /** Predecessor state of arrival state s via choice 0. */
    const std::int32_t *pred0;
    /** Predecessor state of arrival state s via choice 1. */
    const std::int32_t *pred1;
    /** Branch-metric index (0..3) of reverse transition choice 0. */
    const std::int32_t *revOut0;
    /** Branch-metric index (0..3) of reverse transition choice 1. */
    const std::int32_t *revOut1;
    /** Forward next state for input 0. */
    const std::int32_t *next0;
    /** Forward next state for input 1. */
    const std::int32_t *next1;
    /** Branch-metric index (0..3) of the forward transition for 0. */
    const std::int32_t *fwdOut0;
    /** Branch-metric index (0..3) of the forward transition for 1. */
    const std::int32_t *fwdOut1;
};

/** Modulation kind for the batched demapper (matches phy::Modulation). */
enum : int {
    /** BPSK, 1 bit per subcarrier. */
    kDemapBpsk = 0,
    /** QPSK, 2 bits per subcarrier. */
    kDemapQpsk = 1,
    /** QAM-16, 4 bits per subcarrier. */
    kDemapQam16 = 2,
    /** QAM-64, 6 bits per subcarrier. */
    kDemapQam64 = 3,
};

/**
 * Flattened view of a softphy::CalibrationTable consumed by the
 * batched PER-interpolation kernel (perDrawBatch): per (rate, bin)
 * cell the measured frame error rate and the log geometric-mean
 * packet BERs of clean/errored frames, precomputed through the same
 * call chain CalibrationTable::pberFeedback() uses inline, so the
 * batched draw is bit-identical to the scalar one. The arrays are
 * indexed [rate * num_bins + bin] and owned by the caller (see
 * CalibrationTable::flatten()).
 */
struct PerTableView {
    /** CalibrationCell::per() per cell. */
    const double *per;
    /** std::log(CalibrationCell::pberOkGeo()) per cell. */
    const double *logPberOk;
    /** std::log(CalibrationCell::pberBadGeo()) per cell. */
    const double *logPberBad;
    /** SNR bins per rate row. */
    int numBins;
    /** Lower edge of SNR bin 0, in dB. */
    double snrLoDb;
    /** SNR bin width in dB. */
    double snrStepDb;
};

/**
 * One direction of a unitary radix-2 decimation-in-time FFT plan
 * (phy::Fft owns the arrays and builds one view per direction). The
 * twiddles are stored stage by stage: the stage with butterfly span
 * 2 * half reads its half factors w[j * n / (2 * half)], j < half,
 * contiguously at offset half - 1 of twRe / twIm. The inverse plan
 * stores the conjugated factors.
 */
struct FftView {
    /** Transform size (a power of two, at least 2). */
    int n;
    /** Bit-reversal permutation of 0..n-1. */
    const std::int32_t *bitrev;
    /** Real parts of the per-stage twiddles (n - 1 entries). */
    const double *twRe;
    /** Imaginary parts of the per-stage twiddles (n - 1 entries). */
    const double *twIm;
    /** Output scale, 1 / sqrt(n) for the unitary transform. */
    double scale;
};

/**
 * One backend's kernel table. All entries are non-null; the scalar
 * table is the semantic reference for every function.
 */
struct Ops {
    /** Which backend this table implements. */
    Backend backend;
    /** Registry name, e.g. "avx2". */
    const char *name;

    /**
     * Forward add-compare-select over all states: pm_out[s] =
     * max over b of (pm_in[pred_b[s]] + bm[revOut_b[s]]), recording
     * the winning choice bit per state in @p choices and, when
     * @p delta is non-null, the |winner - loser| margin per state.
     */
    void (*acsForward)(const TrellisView &tv,
                       const std::int32_t *pm_in,
                       const std::int32_t bm[4], std::int32_t *pm_out,
                       std::uint64_t *choices, std::int32_t *delta);

    /**
     * Whole-frame sliding-window max-log BCJR (decode/bcjr.cc's
     * max-log path) over @p steps trellis steps of @p soft (two soft
     * values per step) with window @p block_len: the forward PMU,
     * each window's provisional and exact backward PMUs, and the
     * decision unit, writing out[j].bit and out[j].llr =
     * |best1 - best0| per step. Every step normalizes like
     * normalizeMetrics(@p floor_threshold, @p floor_value). @p alpha
     * is caller scratch for steps * nStates metrics. Requires a
     * 64-state trellis whose outputs satisfy fwdOut1 = fwdOut0 ^ 3
     * and revOut1 = revOut0 ^ 3 (asserted when the view is built).
     */
    void (*bcjrMaxLog)(const TrellisView &tv, const SoftBit *soft,
                       int steps, int block_len,
                       std::int32_t floor_threshold,
                       std::int32_t floor_value, std::int32_t *alpha,
                       SoftDecision *out);

    /**
     * Subtract the maximum from every metric; entries at or below
     * @p floor_threshold are pinned to @p floor_value instead.
     */
    void (*normalizeMetrics)(std::int32_t *pm, int n,
                             std::int32_t floor_threshold,
                             std::int32_t floor_value);

    /** Index of the first maximum element. */
    int (*bestState)(const std::int32_t *pm, int n);

    /**
     * Batched soft demap of @p n equalized symbols: per symbol the
     * Tosato-Bisaglia axis metrics of @p mod_kind (kDemap*), scaled
     * by @p scale then the per-symbol weight (null = 1.0), quantized
     * to @p soft_width bits with @p full_scale mapped to the
     * positive rail. Writes bitsPerSubcarrier() values per symbol,
     * symbol-major, to @p out.
     */
    void (*demapBatch)(int mod_kind, const Sample *ys,
                       const double *weights, size_t n, double scale,
                       int soft_width, double full_scale,
                       SoftBit *out);

    /**
     * Unitary radix-2 DIT FFT of fv.n points from @p in to @p out
     * (which may alias): a bit-reversed gather into split re/im
     * arrays in @p work (2 * fv.n doubles of caller scratch), the
     * butterfly stages in textbook order (span, group, j), each
     * twiddle product formed as (ar*wr - ai*wi, ar*wi + ai*wr) with
     * no FMA, then both parts scaled by fv.scale on the way out --
     * the exact operation sequence of the std::complex loop it
     * replaced, so every backend is bit-identical to it.
     */
    void (*fft)(const FftView &fv, const Sample *in, Sample *out,
                double *work);

    /** In-place complex scale: s[i] *= h (flat-fading application). */
    void (*scaleComplex)(Sample *s, size_t n, Sample h);

    /**
     * Noise injection: s[i] += sigma * (gauss[2i] + j*gauss[2i+1])
     * for @p n complex samples (gauss holds 2n unit deviates).
     */
    void (*axpyNoise)(Sample *s, size_t n, double sigma,
                      const double *gauss);

    // ---- structure-of-arrays analytic-engine kernels -------------
    // (see docs/ARCHITECTURE.md "Structure-of-arrays analytic
    // engine"). Transcendentals (log, log10, exp) are evaluated by
    // the ONE libm call the scalar code makes, per lane, in every
    // backend -- only the surrounding integer mixing and IEEE-exact
    // f64 arithmetic is vectorized, which is what keeps the batched
    // paths bit-identical to the per-user scalar walks they replace.

    /**
     * Batched keyed counter-RNG draw: out[i] = the u01 double
     * common::CounterRng(keys[i]).doubleAt(counter) yields -- many
     * independent per-user streams sampled at one shared counter
     * (one slot), the multi-cell engine's (seed, user, cell, slot)
     * key scheme evaluated in lanes.
     */
    void (*rngU01Keyed)(const std::uint64_t *keys, size_t n,
                        std::uint64_t counter, double *out);

    /**
     * Batched SINR accumulation over the users x cells linear gain
     * matrix, one granted user per lane entry: per entry i with
     * serving cell serving[i] and gain row gain_rows[i],
     *
     *   interf = sum over c != serving[i], active[c] != 0, ascending
     *            of gain_rows[i][c] * fade(keys[i], t * cells + c)
     *   fade(k, ctr) = -log(max(1 - u01(k, ctr), 1e-300))  (iid exp)
     *   lin = sig[i] / (1 + interf)
     *   sinr_db[i] = lin > 0 ? 10 * log10(lin) : zero_sinr_db
     *
     * The interference sum stays sequential in ascending cell order
     * in every backend (FP addition is not associative); lanes
     * vectorize the u64 counter mixing across entries.
     */
    void (*sinrAccumBatch)(const double *const *gain_rows,
                           const std::int32_t *serving,
                           const std::uint64_t *fade_keys,
                           const std::uint8_t *active, int cells,
                           std::uint64_t t, const double *sig,
                           size_t n, double zero_sinr_db,
                           double *sinr_db);

    /**
     * Batched PER-table interpolation + Bernoulli frame draw over a
     * flattened calibration table: per entry i, replicate
     * AnalyticLink::drawAt(rates[i], t, snr_db[i]) for a draw stream
     * keyed keys[i] -- linear-interpolated PER lookup, ok[i] =
     * (u01(keys[i], t) >= per), and the log-interpolated calibrated
     * packet-BER feedback conditioned on the outcome.
     */
    void (*perDrawBatch)(const PerTableView &tv,
                         const std::int32_t *rates,
                         const double *snr_db,
                         const std::uint64_t *keys, std::uint64_t t,
                         size_t n, std::uint8_t *ok, double *pber);

    /**
     * Proportional-fair EWMA decay over a cell's users: avg[i] =
     * (1 - a) * avg[i] + a * served_i, where served_i is
     * served_bits for i == granted and 0.0 otherwise (the
     * mac::CellScheduler::update() recurrence, element-parallel).
     */
    void (*pfDecay)(double *avg, size_t n, double a,
                    std::int32_t granted, double served_bits);
};

/**
 * The active kernel table. First use resolves WILIS_KERNEL_BACKEND
 * (unknown names are fatal; a known but unsupported backend warns and
 * falls back) and defaults to the widest host-supported backend.
 */
const Ops &ops();

/** Backend of the active table. */
Backend activeBackend();

/** True if @p b is compiled in and executable on this host. */
bool backendSupported(Backend b);

/** All backends executable on this host, narrowest first. */
std::vector<Backend> availableBackends();

/**
 * Switch the active table. Returns false (and leaves the table
 * unchanged) if the backend is unsupported on this host. Not safe
 * to call while worker threads are mid-kernel; switch between runs.
 */
bool setBackend(Backend b);

/**
 * Apply a scenario's KernelPolicy: "auto" keeps the current table,
 * anything else selects that backend. WILIS_KERNEL_BACKEND, when
 * set, wins over per-scenario policies so CI can force a backend
 * globally. Unknown names are fatal; unsupported ones warn and keep
 * the current table. Returns the backend active afterwards.
 *
 * The table is process-global: a non-"auto" policy affects every
 * harness in the process, so A/B comparisons must run one backend
 * at a time (see ScenarioSpec::kernel), and backend-comparison
 * benches/tests select tables explicitly via setBackend() instead.
 */
Backend applyPolicy(const KernelPolicy &policy);

} // namespace kernels
} // namespace wilis

#endif // WILIS_COMMON_KERNELS_HH
