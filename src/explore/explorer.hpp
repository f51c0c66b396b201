/**
 * @file
 * Two-fidelity hardware x mapping co-search (Pareto explorer).
 *
 * The explorer ranks every structural variant of a DesignSpace with
 * the analytical cycle models (src/analytical) plus the closed-form
 * energy/area estimates, prunes the analytically dominated variants,
 * and cycle-simulates only the predicted frontier (the analytically
 * non-dominated set united with the top-K per objective). The exact
 * frontier it reports is therefore built purely from cycle-level
 * simulation outcomes; the analytical fidelity only decides *which*
 * points earn a simulation. Every cycle-level evaluation goes through
 * the evaluation core the tuner uses (dse/search.hpp) and is memoized
 * in the dse::ResultCache (keyed on structural config text), so a
 * repeated exploration answers entirely from the cache.
 */

#ifndef STONNE_EXPLORE_EXPLORER_HPP
#define STONNE_EXPLORE_EXPLORER_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "dse/search.hpp"
#include "explore/design_space.hpp"
#include "explore/pareto.hpp"

namespace stonne::explore {

/** Knobs of one exploration: the shared search knobs plus its own. */
struct ExploreOptions : dse::SearchOptions {
    /** Simulated candidates per objective beyond the predicted front. */
    index_t top_k = 4;
    /** Axes spec of the design space (axes.hpp grammar). */
    std::string axes =
        "ms_size,dn_bandwidth,rn_bandwidth,accumulator_size";
};

/** One cycle-simulated candidate of the exploration. */
struct ExplorePoint {
    std::string label;        //!< axis assignment of the variant
    Tile tile;                //!< mapping chosen for the variant
    cycle_t analytical_cycles = 0;
    double analytical_energy_uj = 0.0;
    cycle_t simulated_cycles = 0;
    double energy_uj = 0.0;   //!< cycle-level energy
    double area_um2 = 0.0;    //!< exact area (pure function of the config)
    double ms_utilization = 0.0;
    bool from_cache = false;
    bool on_frontier = false;
    /** Full config text of the variant; directly runnable. */
    std::string config_text;
};

/** Outcome of one exploreLayer() call. */
struct ExploreReport {
    std::size_t variants = 0;   //!< structural hardware variants
    std::size_t space_size = 0; //!< (variant, tile) points ranked
    std::size_t cache_hits = 0;
    std::size_t simulations_run = 0;
    /** Every simulated candidate, frontier first, then by cycles. */
    std::vector<ExplorePoint> points;
    /** Indices into `points` of the exact Pareto frontier. */
    std::vector<std::size_t> frontier;

    /** JSON block for run summaries (`explore` object). */
    JsonValue json() const;
};

/**
 * Run the two-fidelity co-search around `base` for one dense layer
 * (Convolution, Linear or Gemm). The base must use the dense
 * controller (its tile space is the mapping dimension); the fabric
 * axis derives sparse variants from it. Candidates are evaluated
 * through `cache` (dse::simulateCandidates), which is never saved
 * here; its owner persists it.
 */
ExploreReport exploreLayer(const HardwareConfig &base,
                           const LayerSpec &layer,
                           const ExploreOptions &opts,
                           dse::ResultCache &cache);

} // namespace stonne::explore

#endif // STONNE_EXPLORE_EXPLORER_HPP
