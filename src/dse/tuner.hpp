/**
 * @file
 * Mapping auto-tuning: design-space exploration of the tile space of
 * one layer on one accelerator configuration.
 *
 * The search combines the two simulation fidelities the codebase
 * already has. The analytical model (src/analytical) costs microseconds
 * per candidate but misses bandwidth serialization; the cycle-level
 * simulator is exact but costs milliseconds-to-seconds. The tuner
 * enumerates the legal tile space (TileSpace), ranks every candidate
 * with the analytical model, and simulates only the top K analytical
 * picks (plus the greedy mapper's tile, so the result can never be
 * worse than the status quo) through the shared evaluation core
 * (search.hpp). Simulated outcomes are served from / recorded into a
 * content-addressed ResultCache, so re-tuning a known point costs a
 * hash lookup instead of a simulation.
 *
 * The report keeps both orderings and their Spearman rank correlation —
 * the paper's Figure 1 argument (analytical models misrank mappings
 * once bandwidth matters) becomes a measurable number per layer.
 */

#ifndef STONNE_DSE_TUNER_HPP
#define STONNE_DSE_TUNER_HPP

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "dse/dse_stats.hpp"
#include "dse/search.hpp"

namespace stonne::dse {

/** Knobs of one tuning run: the shared search knobs plus the cut. */
struct TuneOptions : SearchOptions {
    /** Candidates simulated cycle-level per layer (>= 1). */
    index_t top_k = 8;
};

/** One evaluated candidate in a tuning report. */
struct EvaluatedTile {
    Tile tile;
    cycle_t analytical_cycles = 0;
    cycle_t simulated_cycles = 0;
    double energy_uj = 0.0;
    double area_um2 = 0.0;
    double ms_utilization = 0.0;
    bool from_cache = false;
};

/** Outcome of tuning one layer. */
struct TuneReport {
    Tile best;
    cycle_t best_cycles = 0;

    /** The greedy Mapper::generateTile baseline, always evaluated. */
    Tile greedy_tile;
    cycle_t greedy_cycles = 0;

    /** Legal candidates enumerated (before the top-K cut). */
    std::uint64_t space_size = 0;

    std::uint64_t cache_hits = 0;
    std::uint64_t simulations_run = 0;

    /** Spearman correlation of analytical vs simulated ordering. */
    double rank_correlation = 0.0;

    /** Every evaluated candidate, fastest simulated first. */
    std::vector<EvaluatedTile> ranked;

    /** The summary block a SimulationResult carries for this run. */
    DseSummary summary() const;

    /** JSON report of a service `tune` job. */
    JsonValue json() const;
};

/**
 * Tune one dense-controller layer (Convolution / Linear / Gemm) on
 * `cfg`: enumerate, pre-filter analytically, evaluate the top-K plus
 * the greedy tile cycle-level through `cache` (simulateCandidates).
 * Deterministic: same layer, configuration and options always pick the
 * same tile. Never saves the cache; its owner persists it.
 */
TuneReport tuneLayer(const HardwareConfig &cfg, const LayerSpec &layer,
                     const TuneOptions &opts, ResultCache &cache);

/**
 * Spearman rank correlation of two paired samples (average ranks on
 * ties; 1.0 for degenerate inputs shorter than 2). Exposed for tests.
 */
double spearmanCorrelation(const std::vector<double> &a,
                           const std::vector<double> &b);

} // namespace stonne::dse

#endif // STONNE_DSE_TUNER_HPP
