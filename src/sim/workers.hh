/**
 * @file
 * The sim module's worker-count rule and its order-free range
 * split, shared by the slot loops and the deployment build.
 *
 * Every per-user and per-link derivation of a deployment is keyed
 * by (seed, user[, cell]) -- never drawn in sequence -- so a loop
 * over users can be cut into contiguous ranges and run on any
 * number of workers without changing a bit. forEachRange() is that
 * cut. A minimum grain per worker keeps small deployments on the
 * calling thread, where spawning workers would cost more than the
 * loop itself.
 */

#ifndef WILIS_SIM_WORKERS_HH
#define WILIS_SIM_WORKERS_HH

#include <algorithm>
#include <thread>

#include "common/lockstep.hh"

namespace wilis {
namespace sim {
namespace detail {

/**
 * Worker threads for a run asking for @p threads (0 = hardware
 * concurrency), capped at its @p work_items independent items.
 */
inline int
workerCount(int threads, int work_items)
{
    const int n = threads > 0
                      ? threads
                      : static_cast<int>(std::max(
                            1u, std::thread::hardware_concurrency()));
    return std::min(n, work_items);
}

/**
 * Fewest users worth a worker of their own in a per-user
 * derivation (stream keys and fader banks, the horizon drain: about
 * a microsecond each), so a spawned worker always has about a
 * millisecond of work.
 */
constexpr int kUserGrain = 1024;

/**
 * Fewest links (one user x cell link budget, ~0.13 us each) worth a
 * worker of their own in a gain-matrix fill.
 */
constexpr int kLinkGrain = 16384;

/** Half-open index range [lo, hi). */
struct Range {
    /** First index. */
    int lo = 0;
    /** One past the last index. */
    int hi = 0;
};

/**
 * Worker @p w's share of @p items split over @p workers: contiguous
 * chunks of ceil(items / workers), the last one short (or empty).
 */
inline Range
workerRange(int w, int workers, int items)
{
    const int chunk = (items + workers - 1) / workers;
    const int lo = std::min(items, w * chunk);
    return Range{lo, std::min(items, lo + chunk)};
}

/**
 * Workers for a loop over @p items that needs at least @p grain
 * items per worker: workerCount() of items / grain, at least 1.
 */
inline int
rangeWorkers(int threads, int items, int grain)
{
    return workerCount(threads, std::max(1, items / grain));
}

/**
 * Run body(workerRange(w, workers, items)) for every worker w of
 * @p workers. Worker 0 is the calling thread; a single worker
 * spawns no thread. The body must touch disjoint state per range.
 */
template <typename Body>
void
forEachRange(int workers, int items, const Body &body)
{
    if (workers <= 1) {
        body(Range{0, items});
        return;
    }
    LockstepTeam team(workers);
    team.run([&](int w) { body(workerRange(w, workers, items)); });
}

} // namespace detail
} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_WORKERS_HH
