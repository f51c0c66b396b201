/**
 * @file
 * Single-module probes: Table V timing fidelity, and timings of calls
 * into the tensor, common and dse modules on the workload's own shapes.
 * Each probe times public functions from outside the library.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "common/rng.hpp"
#include "dse/cache.hpp"
#include "e2ebench.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "tensor/im2col.hpp"
#include "tensor/prune.hpp"

namespace e2e {

using namespace stonne;

namespace {

/** One Table V micro-layer with its published RTL cycle count. */
struct TableVRow {
    const char *design;
    const char *layer;
    index_t m, n, k;
    cycle_t rtl;
};

// The rows of bench/bench_table5.cpp, run the same way.
const TableVRow kTableV[] = {
    {"MAERI", "MAERI-1", 6, 25, 54, 1338},
    {"MAERI", "MAERI-2", 20, 25, 180, 16120},
    {"MAERI", "MAERI-3", 6, 400, 54, 26178},
    {"SIGMA", "SIGMA-1", 64, 128, 32, 2321},
    {"SIGMA", "SIGMA-2", 256, 64, 64, 8594},
    {"SIGMA", "SIGMA-3", 256, 128, 64, 17192},
    {"SIGMA", "SIGMA-4", 128, 1, 64, 139},
    {"TPU", "TPU-1", 16, 16, 32, 66},
    {"TPU", "TPU-2", 16, 16, 16, 50},
    {"TPU", "TPU-3", 32, 32, 16, 200},
    {"TPU", "TPU-4", 64, 64, 32, 1056},
};

cycle_t
runTableVRow(const TableVRow &row)
{
    const std::string design = row.design;
    if (design == "MAERI") {
        // M filters of a 3x3x(K/9) window over N output positions, with
        // the BSV microbenchmarks' tile.
        Conv2dShape s;
        s.R = 3;
        s.S = 3;
        s.C = row.k / 9;
        s.K = row.m;
        const index_t out_dim = static_cast<index_t>(
            std::llround(std::sqrt(static_cast<double>(row.n))));
        s.X = out_dim + 2;
        s.Y = out_dim + 2;
        const LayerSpec layer = LayerSpec::convolution(row.layer, s);
        Tile tile;
        tile.t_r = 3;
        tile.t_s = 3;
        tile.t_c = 1;
        tile.t_x = 3;
        Stonne st(HardwareConfig::maeriLike(32, 4));
        const LayerData data = makeLayerData(layer, 0.0, 42);
        st.configureConv(layer, tile);
        st.configureData(data.input, data.weights, data.bias);
        return st.runOperation().cycles;
    }
    if (design == "SIGMA") {
        const LayerSpec layer =
            LayerSpec::sparseGemm(row.layer, row.m, row.n, row.k);
        Stonne st(HardwareConfig::sigmaLike(128, 128));
        const LayerData data = makeLayerData(layer, 0.0, 42);
        st.configureSpmm(layer);
        st.configureData(data.input, data.weights);
        return st.runOperation().cycles;
    }
    const LayerSpec layer =
        LayerSpec::gemmLayer(row.layer, row.m, row.n, row.k);
    Stonne st(HardwareConfig::tpuLike(256));
    const LayerData data = makeLayerData(layer, 0.0, 42);
    st.configureDmm(layer);
    st.configureData(data.input, data.weights);
    return st.runOperation().cycles;
}

} // namespace

double
fidelityPct(const std::vector<std::string> &designs,
            std::vector<std::string> *rows_used)
{
    double sum_err = 0.0;
    int n = 0;
    for (const TableVRow &row : kTableV) {
        bool wanted = false;
        for (const std::string &d : designs)
            wanted = wanted || d == row.design;
        if (!wanted)
            continue;
        const double ours = static_cast<double>(runTableVRow(row));
        const double rtl = static_cast<double>(row.rtl);
        sum_err += 100.0 * std::abs(ours - rtl) / rtl;
        ++n;
        if (rows_used)
            rows_used->push_back(row.layer);
    }
    return n ? 100.0 - sum_err / n : 0.0;
}

double
rngNormalNs()
{
    constexpr int kDraws = 4'000'000;
    Rng rng(12345);
    float acc = 0.0f;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kDraws; ++i)
        acc += rng.normal();
    const double s = secondsSince(t0);
    volatile float sink = acc;
    (void)sink;
    return 1e9 * s / kDraws;
}

double
pruneSeconds(const std::vector<std::vector<index_t>> &shapes,
             double sparsity, SpanRecorder *rec)
{
    Rng rng(777);
    double total = 0.0;
    for (const std::vector<index_t> &shape : shapes) {
        Tensor t(shape);
        t.fillNormal(rng);
        ScopedSpan span(rec, "tensor.prune");
        const Clock::time_point t0 = Clock::now();
        pruneFiltersWithJitter(t, sparsity, 0.15, rng);
        total += secondsSince(t0);
    }
    return total;
}

LoweringTimes
loweringSeconds(const std::vector<LayerSpec> &convs, SpanRecorder *rec)
{
    LoweringTimes out;
    for (const LayerSpec &layer : convs) {
        const Conv2dShape &s = layer.conv;
        const LayerData data = makeLayerData(layer, 0.0, 42);
        std::vector<Tensor> results;
        {
            ScopedSpan span(rec, "tensor.im2col");
            const Clock::time_point t0 = Clock::now();
            for (index_t g = 0; g < s.G; ++g) {
                const Tensor cols = im2col(data.input, s, g);
                results.emplace_back(
                    std::vector<index_t>{s.kPerGroup(), cols.dim(1)});
            }
            out.im2col_s += secondsSince(t0);
        }
        {
            ScopedSpan span(rec, "tensor.filters_to_matrix");
            const Clock::time_point t0 = Clock::now();
            for (index_t g = 0; g < s.G; ++g) {
                const Tensor m = filtersToMatrix(data.weights, s, g);
                (void)m;
            }
            out.filters_to_matrix_s += secondsSince(t0);
        }
        Tensor output({s.N, s.K, s.outX(), s.outY()});
        {
            ScopedSpan span(rec, "tensor.col2im");
            const Clock::time_point t0 = Clock::now();
            for (index_t g = 0; g < s.G; ++g)
                col2im(results[static_cast<std::size_t>(g)], s, g, output);
            out.col2im_s += secondsSince(t0);
        }
    }
    return out;
}

CacheTimes
cacheSeconds(const std::vector<std::string> &keys, const std::string &path,
             SpanRecorder *rec)
{
    CacheTimes out;
    std::filesystem::remove(path);
    const double n = static_cast<double>(std::max<std::size_t>(1, keys.size()));
    dse::ResultCache cache(path);
    {
        ScopedSpan span(rec, "dse.cache_insert");
        const Clock::time_point t0 = Clock::now();
        cycle_t c = 1;
        for (const std::string &k : keys)
            cache.insert(k, dse::CachedOutcome{c++, 1.0, 2.0, 0.5});
        out.insert_us = 1e6 * secondsSince(t0) / n;
    }
    {
        ScopedSpan span(rec, "dse.cache_lookup");
        const Clock::time_point t0 = Clock::now();
        std::size_t hits = 0;
        for (const std::string &k : keys)
            hits += cache.lookup(k).has_value();
        out.lookup_us = 1e6 * secondsSince(t0) / n;
        if (hits != keys.size())
            throw std::runtime_error("result cache lost entries");
    }
    {
        ScopedSpan span(rec, "dse.cache_save");
        const Clock::time_point t0 = Clock::now();
        cache.save();
        out.save_s = secondsSince(t0);
    }
    {
        ScopedSpan span(rec, "dse.cache_load");
        const Clock::time_point t0 = Clock::now();
        const dse::ResultCache loaded(path);
        out.load_s = secondsSince(t0);
        out.entries = static_cast<double>(loaded.size());
    }
    std::filesystem::remove(path);
    return out;
}

} // namespace e2e
