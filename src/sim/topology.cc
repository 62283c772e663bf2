#include "sim/topology.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/workers.hh"

namespace wilis {
namespace sim {

Topology::Topology(const TopologySpec &spec, int num_users,
                   std::uint64_t seed, int threads)
    : spec_(spec), seed_(seed),
      pathloss_(spec.pathloss,
                CounterRng(seed).at(0x70B0ull)) // shadowing stream
{
    wilis_assert(spec_.rows >= 1 && spec_.cols >= 1,
                 "topology grid %dx%d needs >= 1 cell", spec_.rows,
                 spec_.cols);
    wilis_assert(num_users >= 1, "topology needs >= 1 user, got %d",
                 num_users);
    wilis_assert(spec_.cellSpacingM > 0.0,
                 "cell spacing %g m <= 0 (all base stations would "
                 "coincide)",
                 spec_.cellSpacingM);
    wilis_assert(spec_.cellRadiusM > 0.0,
                 "cell radius %g m <= 0", spec_.cellRadiusM);
    wilis_assert(spec_.minDistanceM >= 0.0 &&
                     spec_.minDistanceM < spec_.cellRadiusM,
                 "min distance %g m outside [0, radius %g m)",
                 spec_.minDistanceM, spec_.cellRadiusM);

    const int cells = numCells();
    users_.resize(static_cast<size_t>(num_users));
    gains_.resize(static_cast<size_t>(num_users) *
                  static_cast<size_t>(cells));
    // Round-robin association: cell c serves users c, c + cells,
    // c + 2 * cells, ... in increasing order.
    cell_users_.resize(static_cast<size_t>(cells));
    for (int u = 0; u < num_users; ++u)
        cell_users_[static_cast<size_t>(u % cells)].push_back(u);

    const CounterRng root(seed_);
    const size_t cn = static_cast<size_t>(cells);
    auto place_user = [&](int u) {
        User &usr = users_[static_cast<size_t>(u)];
        usr.cell = u % cells;

        // Uniform drop over the serving annulus [minDistance,
        // radius): r = sqrt(lerp(min^2, R^2, u1)) gives uniform
        // area density, theta uniform. Both draws come from the
        // user's own counter stream (chained forks -- XOR-ing the
        // user id into the purpose constant would alias against
        // other purpose families at large user counts), so
        // placement never depends on construction order.
        const CounterRng place =
            root.fork(0x9D0Cull)
                .fork(static_cast<std::uint64_t>(u));
        const double lo2 = spec_.minDistanceM * spec_.minDistanceM;
        const double hi2 = spec_.cellRadiusM * spec_.cellRadiusM;
        const double r =
            std::sqrt(lo2 + (hi2 - lo2) * place.doubleAt(0));
        const double theta =
            2.0 * std::numbers::pi * place.doubleAt(1);
        const Position center = cellCenter(usr.cell);
        usr.pos.x = center.x + r * std::cos(theta);
        usr.pos.y = center.y + r * std::sin(theta);
        usr.servingDistanceM = r;

        double *row = gains_.data() + static_cast<size_t>(u) * cn;
        shadowRow(u, row);
        fillGainRow(usr.pos, row, row);
    };
    // A user's placement and row depend on its id and the keyed
    // streams only, so users fill in parallel ranges,
    // bit-identically for any worker count.
    const int grain = std::max(1, detail::kLinkGrain / cells);
    const int workers = detail::rangeWorkers(threads, num_users, grain);
    detail::forEachRange(workers, num_users, [&](detail::Range range) {
        for (int u = range.lo; u < range.hi; ++u)
            place_user(u);
    });
}

int
Topology::at(int u) const
{
    wilis_assert(u >= 0 && u < numUsers(), "user %d out of %d", u,
                 numUsers());
    return u;
}

Position
Topology::cellCenter(int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return Position{(c % spec_.cols) * spec_.cellSpacingM,
                    (c / spec_.cols) * spec_.cellSpacingM};
}

const std::vector<int> &
Topology::cellUsers(int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return cell_users_[static_cast<size_t>(c)];
}

void
Topology::shadowRow(int u, double *out) const
{
    for (int c = 0; c < numCells(); ++c)
        out[c] = pathloss_.shadowingDb(u, c);
}

void
Topology::fillGainRow(const Position &pos, const double *shadowDb,
                      double *row) const
{
    for (int c = 0; c < numCells(); ++c) {
        const Position bs = cellCenter(c);
        const double dx = pos.x - bs.x;
        const double dy = pos.y - bs.y;
        const double d = std::sqrt(dx * dx + dy * dy);
        row[c] = std::pow(
            10.0, pathloss_.linkSnrDbAt(d, shadowDb[c]) / 10.0);
    }
}

double
Topology::linkSnrDb(int u, int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return 10.0 * std::log10(linkGainLin(u, c));
}

double
Topology::staticSinrDb(int u) const
{
    const int serv = servingCell(u);
    double interference = 0.0;
    for (int c = 0; c < numCells(); ++c) {
        if (c != serv)
            interference += linkGainLin(u, c);
    }
    const double sinr =
        linkGainLin(u, serv) / (1.0 + interference);
    return 10.0 * std::log10(sinr);
}

} // namespace sim
} // namespace wilis
