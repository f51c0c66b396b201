#include "dse/search.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "analytical/maeri_model.hpp"
#include "common/sweep_pool.hpp"
#include "dse/tile_space.hpp"
#include "engine/workload.hpp"

namespace stonne::dse {

std::string
policyText(std::uint64_t seed, double sparsity)
{
    std::ostringstream os;
    os << "seed=" << seed << " sparsity=" << sparsity;
    return os.str();
}

Evaluation
simulateCandidates(const std::vector<SearchPoint> &points,
                   const SearchOptions &opts, ResultCache &cache)
{
    const std::string policy = policyText(opts.seed, opts.sparsity);
    Evaluation ev;
    ev.points.resize(points.size());
    std::vector<HardwareConfig> cfgs;
    std::vector<std::string> keys;
    cfgs.reserve(points.size());
    keys.reserve(points.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SearchPoint &p = points[i];
        cfgs.push_back(p.cfg.silenced());
        keys.push_back(ResultCache::keyText(
            cfgs.back(), p.layer, p.tile.value_or(Tile{}), policy));
        if (const auto hit = cache.lookup(keys.back())) {
            ev.points[i].outcome = *hit;
            ev.points[i].from_cache = true;
        } else {
            misses.push_back(i);
        }
    }
    ev.cache_hits = points.size() - misses.size();
    ev.simulations_run = misses.size();
    if (misses.empty())
        return ev;

    // One operand bundle per distinct executed layer; every worker
    // copies it into its own accelerator instance, so outcomes are
    // written race-free.
    std::map<std::string, LayerData> data;
    std::vector<const LayerData *> operands(points.size(), nullptr);
    for (const std::size_t i : misses) {
        const LayerSpec &layer = points[i].layer;
        const std::string text = ResultCache::layerKeyText(layer);
        auto it = data.find(text);
        if (it == data.end())
            it = data.emplace(text, makeLayerData(layer, opts.sparsity,
                                                  opts.seed))
                     .first;
        operands[i] = &it->second;
    }

    std::vector<std::function<void()>> work;
    work.reserve(misses.size());
    for (const std::size_t i : misses)
        work.push_back([&, i] {
            Stonne st(cfgs[i]);
            st.accelerator().watchdog().setWallDeadline(opts.wall_deadline);
            const SimulationResult r =
                runLayer(st, points[i].layer, *operands[i], points[i].tile);
            ev.points[i].outcome = CachedOutcome{
                r.cycles, r.energy.total(), r.area.total(),
                r.ms_utilization};
        });
    SweepRunner(opts.threads).run(work);
    for (const std::size_t i : misses)
        cache.insert(keys[i], ev.points[i].outcome);
    return ev;
}

std::vector<RankedTile>
rankTiles(const LayerSpec &layer, const HardwareConfig &cfg)
{
    std::vector<RankedTile> ranked;
    for (const Tile &t : TileSpace::enumerate(layer, cfg))
        ranked.push_back(
            {t, analytical::maeriCycles(layer, t, cfg), t.canonical()});
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedTile &a, const RankedTile &b) {
                  if (a.analytical != b.analytical)
                      return a.analytical < b.analytical;
                  return a.canonical < b.canonical;
              });
    return ranked;
}

} // namespace stonne::dse
