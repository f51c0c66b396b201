/**
 * @file
 * Co-search benchmark: the two-fidelity hardware x mapping explorer
 * over a representative dense layer.
 *
 * Runs one cold exploration (analytical ranking of the whole space,
 * cycle-level simulation of the predicted frontier) and one warm
 * repeat against the same result cache, and reports:
 *
 *   - the design-space size and the fraction pruned analytically
 *     (candidates that never earn a cycle-level simulation),
 *   - simulations executed cold vs. warm (warm must be zero),
 *   - cold vs. warm wall time (the memoization speedup),
 *   - the exact Pareto frontier.
 *
 * Results go to stdout and to BENCH_explore.json.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "engine/output_module.hpp"
#include "explore/explorer.hpp"

namespace {

using namespace stonne;
using namespace stonne::bench;

constexpr const char *kCacheFile = "BENCH_explore.cache";

explore::ExploreOptions
options()
{
    explore::ExploreOptions o;
    o.top_k = 4;
    o.axes = "ms_size,dn_bandwidth,rn_bandwidth,accumulator_size,fabric";
    o.seed = 42;
    return o;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main()
{
    // Fresh cache: the cold leg must really simulate.
    std::filesystem::remove(kCacheFile);

    const HardwareConfig base = HardwareConfig::maeriLike(64, 32);
    // The S-EC shape of Figure 1, shrunk to keep the frontier sweep in
    // benchmark time while exercising every axis.
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 16;
    c.X = 8;
    c.Y = 8;
    c.stride = 1;
    c.padding = 1;
    const LayerSpec layer = LayerSpec::convolution("bench_sec", c);

    // Each leg owns a cache on the same file, as two CLI runs would:
    // the warm leg loads what the cold leg saved.
    const auto t_cold = std::chrono::steady_clock::now();
    dse::ResultCache cold_cache(kCacheFile);
    const explore::ExploreReport cold_rep =
        explore::exploreLayer(base, layer, options(), cold_cache);
    if (cold_rep.simulations_run > 0)
        cold_cache.save();
    const double cold_s = secondsSince(t_cold);

    const auto t_warm = std::chrono::steady_clock::now();
    dse::ResultCache warm_cache(kCacheFile);
    const explore::ExploreReport warm_rep =
        explore::exploreLayer(base, layer, options(), warm_cache);
    if (warm_rep.simulations_run > 0)
        warm_cache.save();
    const double warm_s = secondsSince(t_warm);

    const double pruned =
        cold_rep.variants > 0
            ? 1.0 - static_cast<double>(cold_rep.points.size()) /
                        static_cast<double>(cold_rep.variants)
            : 0.0;

    banner("Hardware x mapping co-search (" +
           std::to_string(cold_rep.variants) + " variants, " +
           std::to_string(cold_rep.space_size) + " mapping points)");
    TablePrinter t({"metric", "cold", "warm"});
    t.addRow({"candidates simulated",
              TablePrinter::num(static_cast<count_t>(
                  cold_rep.simulations_run)),
              TablePrinter::num(static_cast<count_t>(
                  warm_rep.simulations_run))});
    t.addRow({"cache hits",
              TablePrinter::num(static_cast<count_t>(cold_rep.cache_hits)),
              TablePrinter::num(static_cast<count_t>(
                  warm_rep.cache_hits))});
    t.addRow({"wall [s]", TablePrinter::num(cold_s, 3),
              TablePrinter::num(warm_s, 3)});
    t.addRow({"frontier size",
              TablePrinter::num(static_cast<count_t>(
                  cold_rep.frontier.size())),
              TablePrinter::num(static_cast<count_t>(
                  warm_rep.frontier.size()))});
    t.print();

    banner("Exact Pareto frontier (cycles / energy / area)");
    TablePrinter f({"variant", "cycles", "energy [uJ]", "area [um^2]"});
    for (const std::size_t i : cold_rep.frontier) {
        const explore::ExplorePoint &p = cold_rep.points[i];
        f.addRow({p.label,
                  TablePrinter::num(static_cast<count_t>(
                      p.simulated_cycles)),
                  TablePrinter::num(p.energy_uj, 3),
                  TablePrinter::num(p.area_um2, 0)});
    }
    f.print();

    JsonValue j = JsonValue::makeObject();
    j.set("benchmark", std::string("explore"));
    j.set("variants", static_cast<std::uint64_t>(cold_rep.variants));
    j.set("space_size", static_cast<std::uint64_t>(cold_rep.space_size));
    j.set("candidates_simulated",
          static_cast<std::uint64_t>(cold_rep.points.size()));
    j.set("analytically_pruned_fraction", pruned);
    j.set("cold_simulations",
          static_cast<std::uint64_t>(cold_rep.simulations_run));
    j.set("warm_simulations",
          static_cast<std::uint64_t>(warm_rep.simulations_run));
    j.set("cold_wall_seconds", cold_s);
    j.set("warm_wall_seconds", warm_s);
    j.set("frontier_size",
          static_cast<std::uint64_t>(cold_rep.frontier.size()));
    JsonValue frontier = JsonValue::makeArray();
    for (const std::size_t i : cold_rep.frontier) {
        const explore::ExplorePoint &p = cold_rep.points[i];
        JsonValue e = JsonValue::makeObject();
        e.set("label", p.label);
        e.set("cycles", static_cast<std::uint64_t>(p.simulated_cycles));
        e.set("energy_uj", p.energy_uj);
        e.set("area_um2", p.area_um2);
        frontier.append(std::move(e));
    }
    j["frontier"] = std::move(frontier);
    OutputModule::writeFile("BENCH_explore.json", j.dump() + "\n");
    std::printf("wrote BENCH_explore.json\n");
    return 0;
}
