#include "dse/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analytical/maeri_model.hpp"
#include "common/logging.hpp"
#include "controller/mapper.hpp"

namespace stonne::dse {

namespace {

/** 1-based ranks of v, ties sharing their average rank. */
std::vector<double>
averageRanks(const std::vector<double> &v)
{
    const std::size_t n = v.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> ranks(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && v[idx[j + 1]] == v[idx[i]])
            ++j;
        const double rank = (static_cast<double>(i + j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[idx[k]] = rank;
        i = j + 1;
    }
    return ranks;
}

} // namespace

double
spearmanCorrelation(const std::vector<double> &a,
                    const std::vector<double> &b)
{
    fatalIf(a.size() != b.size(),
            "spearmanCorrelation: sample sizes differ (", a.size(), " vs ",
            b.size(), ")");
    if (a.size() < 2)
        return 1.0;
    const std::vector<double> ra = averageRanks(a);
    const std::vector<double> rb = averageRanks(b);
    const double n = static_cast<double>(a.size());
    const double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
    const double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        const double da = ra[i] - ma;
        const double db = rb[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va == 0.0 && vb == 0.0)
        return 1.0; // both orderings degenerate: trivially agree
    if (va == 0.0 || vb == 0.0)
        return 0.0; // one side carries no ordering information
    return cov / std::sqrt(va * vb);
}

DseSummary
TuneReport::summary() const
{
    DseSummary s;
    s.enabled = true;
    s.space_size = space_size;
    s.evaluated = ranked.size();
    s.cache_hits = cache_hits;
    s.simulations_run = simulations_run;
    s.rank_correlation = rank_correlation;
    s.chosen_tile = best.canonical();
    s.chosen_cycles = best_cycles;
    s.greedy_cycles = greedy_cycles;
    s.cycles_saved_vs_greedy = static_cast<std::int64_t>(greedy_cycles) -
                               static_cast<std::int64_t>(best_cycles);
    return s;
}

JsonValue
TuneReport::json() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("chosen_tile", best.canonical());
    v.set("chosen_cycles", static_cast<std::uint64_t>(best_cycles));
    v.set("greedy_tile", greedy_tile.canonical());
    v.set("greedy_cycles", static_cast<std::uint64_t>(greedy_cycles));
    v.set("space_size", space_size);
    v.set("evaluated", static_cast<std::uint64_t>(ranked.size()));
    v.set("cache_hits", cache_hits);
    v.set("simulations_run", simulations_run);
    v.set("rank_correlation", rank_correlation);
    return v;
}

TuneReport
tuneLayer(const HardwareConfig &cfg, const LayerSpec &layer,
          const TuneOptions &opts, ResultCache &cache)
{
    fatalIf(opts.top_k <= 0, "tuneLayer: top_k must be positive, got ",
            opts.top_k);
    cfg.silenced().validate();

    // Analytical pre-filter: the whole space, ranked deterministically.
    const std::vector<RankedTile> cands = rankTiles(layer, cfg);
    const Tile greedy = Mapper(cfg.ms_size).generateTile(layer);

    // Evaluation set: the analytical top-K, plus the greedy baseline so
    // the tuned pick can never regress below the status quo.
    const std::size_t k = std::min<std::size_t>(
        cands.size(), static_cast<std::size_t>(opts.top_k));
    std::vector<RankedTile> eval(
        cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(k));
    const bool greedy_in_top = std::any_of(
        eval.begin(), eval.end(),
        [&](const RankedTile &c) { return c.tile == greedy; });
    if (!greedy_in_top)
        eval.push_back({greedy, analytical::maeriCycles(layer, greedy, cfg),
                        greedy.canonical()});

    std::vector<SearchPoint> points;
    points.reserve(eval.size());
    for (const RankedTile &c : eval)
        points.push_back({cfg, layer, c.tile});
    const Evaluation ev = simulateCandidates(points, opts, cache);

    TuneReport rep;
    rep.space_size = cands.size();
    rep.cache_hits = ev.cache_hits;
    rep.simulations_run = ev.simulations_run;

    std::vector<double> analytical_v, simulated_v;
    rep.ranked.reserve(eval.size());
    for (std::size_t i = 0; i < eval.size(); ++i) {
        EvaluatedTile et;
        et.tile = eval[i].tile;
        et.analytical_cycles = eval[i].analytical;
        et.simulated_cycles = ev.points[i].outcome.cycles;
        et.energy_uj = ev.points[i].outcome.energy_uj;
        et.area_um2 = ev.points[i].outcome.area_um2;
        et.ms_utilization = ev.points[i].outcome.ms_utilization;
        et.from_cache = ev.points[i].from_cache;
        analytical_v.push_back(static_cast<double>(et.analytical_cycles));
        simulated_v.push_back(static_cast<double>(et.simulated_cycles));
        rep.ranked.push_back(et);
    }
    rep.rank_correlation = spearmanCorrelation(analytical_v, simulated_v);

    std::sort(rep.ranked.begin(), rep.ranked.end(),
              [](const EvaluatedTile &a, const EvaluatedTile &b) {
                  if (a.simulated_cycles != b.simulated_cycles)
                      return a.simulated_cycles < b.simulated_cycles;
                  if (a.analytical_cycles != b.analytical_cycles)
                      return a.analytical_cycles < b.analytical_cycles;
                  return a.tile.canonical() < b.tile.canonical();
              });

    rep.best = rep.ranked.front().tile;
    rep.best_cycles = rep.ranked.front().simulated_cycles;
    rep.greedy_tile = greedy;
    for (const EvaluatedTile &et : rep.ranked)
        if (et.tile == greedy) {
            rep.greedy_cycles = et.simulated_cycles;
            break;
        }
    return rep;
}

} // namespace stonne::dse
