/**
 * @file
 * AutoTuner: mapping design-space exploration for one accelerator
 * configuration.
 *
 * The search combines the two simulation fidelities the codebase
 * already has. The analytical model (src/analytical) costs microseconds
 * per candidate but misses bandwidth serialization; the cycle-level
 * simulator is exact but costs milliseconds-to-seconds. The tuner
 * enumerates the legal tile space (TileSpace), ranks every candidate
 * with the analytical model, and simulates only the top K analytical
 * picks (plus the greedy mapper's tile, so the result can never be
 * worse than the status quo) on the SweepRunner thread pool. Simulated
 * outcomes are served from / recorded into a content-addressed
 * ResultCache, so re-tuning a known point costs a hash lookup instead
 * of a simulation.
 *
 * The report keeps both orderings and their Spearman rank correlation —
 * the paper's Figure 1 argument (analytical models misrank mappings
 * once bandwidth matters) becomes a measurable number per layer.
 */

#ifndef STONNE_DSE_TUNER_HPP
#define STONNE_DSE_TUNER_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "dse/cache.hpp"
#include "dse/dse_stats.hpp"

namespace stonne::dse {

/** Knobs of one tuning run. */
struct TuneOptions {
    /** Candidates simulated cycle-level per layer (>= 1). */
    index_t top_k = 8;

    /** Worker threads for candidate evaluation (0 = hardware). */
    unsigned threads = 0;

    /** Result-cache file ("" keeps the cache in memory only). */
    std::string cache_file;

    /** Operand sparsity/seed for the synthetic evaluation data. */
    double sparsity = 0.0;
    std::uint64_t seed = 1;

    /** Host wall-clock deadline armed on every candidate simulation
     *  (nullopt = unbounded); crossing it throws BudgetExceededError. */
    std::optional<std::chrono::steady_clock::time_point> wall_deadline;
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
};

/** Mapping auto-tuner bound to one hardware configuration. */
class AutoTuner
{
  public:
    explicit AutoTuner(const HardwareConfig &cfg, TuneOptions opts = {});

    /**
     * Tuner over an externally owned (thread-safe) result cache: the
     * simulation service shares one ResultCache between all concurrent
     * jobs this way. `opts.cache_file` is ignored — persistence
     * belongs to the cache's owner, so this tuner never calls save().
     */
    AutoTuner(const HardwareConfig &cfg, TuneOptions opts,
              ResultCache &shared_cache);

    /**
     * Tune one dense-controller layer (Convolution / Linear / Gemm):
     * enumerate, pre-filter analytically, evaluate top-K cycle-level,
     * persist new outcomes to the cache. Deterministic: same layer,
     * configuration and options always pick the same tile.
     */
    TuneReport tuneLayer(const LayerSpec &layer);

    const ResultCache &cache() const { return *cache_; }

    /** Cycle-level simulations run over this tuner's lifetime. */
    std::uint64_t totalSimulations() const { return total_simulations_; }

  private:
    HardwareConfig cfg_; //!< evaluation config (policy knobs silenced)
    TuneOptions opts_;
    std::unique_ptr<ResultCache> own_cache_; //!< null when shared
    ResultCache *cache_;                     //!< owned or shared
    std::uint64_t total_simulations_ = 0;
};

/**
 * Spearman rank correlation of two paired samples (average ranks on
 * ties; 1.0 for degenerate inputs shorter than 2). Exposed for tests.
 */
double spearmanCorrelation(const std::vector<double> &a,
                           const std::vector<double> &b);

} // namespace stonne::dse

#endif // STONNE_DSE_TUNER_HPP
