/**
 * @file
 * The one evaluation core shared by every design-space search.
 *
 * The tuner (mapping search on one configuration) and the explorer
 * (hardware x mapping co-search) differ only in *which* points they
 * pick; how a picked point is evaluated is the same: build its cache
 * key, serve it from the ResultCache when known, otherwise simulate it
 * cycle-level on the SweepRunner pool under the wall deadline and
 * record the outcome. That step lives here, once, together with the
 * analytical tile ranking both searches start from.
 *
 * Cache ownership: a search only looks up and inserts. It never
 * constructs, loads or saves a cache file; whoever owns the cache (the
 * CLI, a model runner, the service daemon, a benchmark) persists it.
 */

#ifndef STONNE_DSE_SEARCH_HPP
#define STONNE_DSE_SEARCH_HPP

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "dse/cache.hpp"

namespace stonne::dse {

/** Knobs every search shares (tune and explore add their own). */
struct SearchOptions {
    /** Worker threads for candidate simulation (0 = hardware). */
    unsigned threads = 0;

    /** Operand sparsity/seed for the synthetic evaluation data. */
    double sparsity = 0.0;
    std::uint64_t seed = 1;

    /** Host wall-clock deadline armed on every candidate simulation
     *  (nullopt = unbounded); crossing it throws BudgetExceededError. */
    std::optional<std::chrono::steady_clock::time_point> wall_deadline;
};

/**
 * Data-policy part of every cache key: the knobs that shape operands.
 * The tuner, the explorer and the service's run envelope all key with
 * this, so the same point is one cache entry whoever evaluated it.
 */
std::string policyText(std::uint64_t seed, double sparsity);

/** One point to evaluate: hardware, the layer as executed, a mapping. */
struct SearchPoint {
    HardwareConfig cfg;
    LayerSpec layer;
    /** Explicit tile; nullopt runs the controller's own mapping (the
     *  sparse fabric has no tile space) and keys the default Tile. */
    std::optional<Tile> tile;
};

/** Outcome of one evaluated point. */
struct PointOutcome {
    CachedOutcome outcome;
    bool from_cache = false;
};

/** Outcomes of one simulateCandidates() call. */
struct Evaluation {
    std::vector<PointOutcome> points; //!< one per input point, in order
    std::uint64_t cache_hits = 0;
    std::uint64_t simulations_run = 0;
};

/**
 * Evaluate `points` cache first: hits are served from `cache`, the
 * misses are simulated on a SweepRunner of `opts.threads` workers (one
 * operand bundle per distinct executed layer, the wall deadline armed
 * on every instance) and inserted into `cache`. Configurations are
 * silenced before keying and simulating.
 */
Evaluation simulateCandidates(const std::vector<SearchPoint> &points,
                              const SearchOptions &opts,
                              ResultCache &cache);

/** One tile of a layer's space with its analytical MAERI cycles. */
struct RankedTile {
    Tile tile;
    cycle_t analytical = 0;
    std::string canonical;
};

/**
 * The legal tile space of `layer` on `cfg` (TileSpace::enumerate),
 * sorted by analytical cycles, ties broken by canonical form: front()
 * is the analytically best mapping.
 */
std::vector<RankedTile> rankTiles(const LayerSpec &layer,
                                  const HardwareConfig &cfg);

} // namespace stonne::dse

#endif // STONNE_DSE_SEARCH_HPP
