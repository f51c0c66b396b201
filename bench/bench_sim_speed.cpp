/**
 * @file
 * Simulator-speed benchmark: tick vs. event engine.
 *
 * Unlike the bench_fig* binaries (whose metric is the simulated cycle
 * count), this harness measures the *simulator's own* wall-clock
 * throughput. Every Figure 1 workload below runs under both engines on
 * the same operands:
 *
 *  - `engine = TICK`: the reference tick-everything per-cycle loop,
 *  - `engine = EVENT`: the wakeup scheduler (steady spans skipped in
 *    exact closed form).
 *
 * The harness panics unless both engines produce bit-identical
 * results: same cycle count, same activity-counter snapshot, same
 * output tensor. Each engine runs one untimed warm-up, then kReps timed
 * runs interleaved with the other engine's; the median wall time, with
 * min and max as the spread, and the median per-pair speedup go to
 * stdout and to BENCH_sim_speed.json. The CI perf-smoke job gates on
 * the event engine's S-EC throughput at the median.
 *
 * Points are timed serially on one sweep thread, so the figures do not
 * depend on how many cores the host has.
 *
 * Functional-kernel points time the register-blocked kernels that
 * compute the flexible controllers' outputs (src/tensor/kernel.hpp)
 * against the naive ref:: oracles on ResNet-50 and BERT shapes. The
 * harness panics unless both produce the same bytes; the MAC rate of
 * each and the median per-pair speedup go to the same JSON. The CI
 * perf-smoke job gates on the median speedup over these points.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "engine/output_module.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"
#include "multicore/multicore_runner.hpp"
#include "tensor/kernel.hpp"
#include "tensor/reference.hpp"
#include "sweep.hpp"

namespace {

using namespace stonne;
using namespace stonne::bench;

/** Timed repetitions per engine, after one untimed warm-up. */
constexpr int kReps = 31;

/** Median and range of a sample (wall times, or speedup ratios). */
struct Spread {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Spread
spreadOf(std::vector<double> sample)
{
    std::sort(sample.begin(), sample.end());
    return {sample[sample.size() / 2], sample.front(), sample.back()};
}

JsonValue
spreadJson(const Spread &s)
{
    JsonValue o = JsonValue::makeObject();
    o.set("median", s.median);
    o.set("min", s.min);
    o.set("max", s.max);
    return o;
}

double
cyclesPerSecond(cycle_t cycles, double wall)
{
    return wall > 0.0 ? static_cast<double>(cycles) / wall : 0.0;
}

struct Workload {
    std::string name;   //!< point label, e.g. "S-EC @ maeri-128/bw8"
    std::string tag;    //!< Figure 1 layer tag
    HardwareConfig cfg; //!< base config; engine overridden per run
    double sparsity;
};

/**
 * Low-bandwidth points maximize the steady-state fraction of the
 * run — exactly the regime where per-cycle simulation wastes the most
 * host time and the closed forms pay off.
 */
std::vector<Workload>
workloads()
{
    std::vector<Workload> w;
    auto add = [&](const std::string &tag, HardwareConfig cfg,
                   double sparsity) {
        char name[96];
        std::snprintf(name, sizeof(name), "%s @ %s/bw%lld", tag.c_str(),
                      cfg.name.c_str(),
                      static_cast<long long>(cfg.dn_bandwidth));
        w.push_back({name, tag, std::move(cfg), sparsity});
    };
    add("S-SC", HardwareConfig::maeriLike(128, 1), 0.0);
    add("S-EC", HardwareConfig::maeriLike(128, 1), 0.0);
    add("R-L", HardwareConfig::sigmaLike(256, 1), 0.9);
    add("M-L", HardwareConfig::sigmaLike(128, 1), 0.9);
    add("B-TR", HardwareConfig::sigmaLike(128, 1), 0.0);
    add("B-L", HardwareConfig::sigmaLike(128, 1), 0.3);
    return w;
}

struct ModeResult {
    SimulationResult sim;
    std::deque<StatCounter> counters;
    Tensor output;
    Spread wall;
};

struct PointResult {
    ModeResult tick;  //!< TICK engine (per-cycle reference)
    ModeResult event; //!< EVENT engine
    double speedup = 0.0; //!< median over reps of tick wall / event wall
};

const LayerSpec &
layerByTag(const std::string &tag)
{
    static const std::vector<Fig1Layer> layers = fig1Layers();
    for (const Fig1Layer &l : layers)
        if (l.tag == tag)
            return l.spec;
    fatal("no Figure 1 layer tagged '", tag, "'");
}

/** One run of the point under `engine`; @return its wall seconds. */
double
runEngine(const Workload &w, const LayerData &data, EngineType engine,
          ModeResult *keep = nullptr)
{
    HardwareConfig cfg = w.cfg;
    cfg.engine_type = engine;
    Stonne st(cfg);
    const SimulationResult r = runLayer(st, layerByTag(w.tag), data);
    if (keep != nullptr) {
        keep->sim = r;
        keep->counters = st.stats().counters();
        keep->output = st.output();
    }
    return r.wall_seconds;
}

/**
 * One untimed warm-up per engine (kept for the parity check), then
 * kReps timed pairs. The engines alternate which runs first and the
 * speedup is the median of the per-pair ratios, so a host whose speed
 * drifts during the sweep slows both sides of a pair alike.
 */
PointResult
runPoint(const Workload &w, const LayerData &data)
{
    PointResult p;
    (void)runEngine(w, data, EngineType::Tick, &p.tick);
    (void)runEngine(w, data, EngineType::Event, &p.event);
    std::vector<double> tick, event, ratio;
    for (int rep = 0; rep < kReps; ++rep) {
        double t = 0.0, e = 0.0;
        if (rep % 2 == 0) {
            t = runEngine(w, data, EngineType::Tick);
            e = runEngine(w, data, EngineType::Event);
        } else {
            e = runEngine(w, data, EngineType::Event);
            t = runEngine(w, data, EngineType::Tick);
        }
        tick.push_back(t);
        event.push_back(e);
        if (e > 0.0)
            ratio.push_back(t / e);
    }
    p.tick.wall = spreadOf(std::move(tick));
    p.event.wall = spreadOf(std::move(event));
    p.speedup = ratio.empty() ? 0.0 : spreadOf(std::move(ratio)).median;
    return p;
}

/** Panic unless the two modes were bit-identical on this point. */
void
checkParity(const Workload &w, const ModeResult &ref, const ModeResult &got)
{
    panicIf(ref.sim.cycles != got.sim.cycles, "'", w.name,
            "': cycle mismatch (reference ", ref.sim.cycles,
            ", compared mode ", got.sim.cycles, ")");
    panicIf(ref.counters.size() != got.counters.size(), "'", w.name,
            "': counter set size mismatch");
    for (std::size_t i = 0; i < ref.counters.size(); ++i) {
        panicIf(ref.counters[i].name != got.counters[i].name, "'", w.name,
                "': counter order mismatch at '", ref.counters[i].name,
                "'");
        panicIf(ref.counters[i].value != got.counters[i].value, "'",
                w.name, "': counter '", ref.counters[i].name,
                "' mismatch (reference ", ref.counters[i].value,
                ", compared mode ", got.counters[i].value, ")");
    }
    panicIf(ref.output.shape() != got.output.shape(), "'", w.name,
            "': output shape mismatch");
    panicIf(ref.output.size() > 0 &&
                std::memcmp(ref.output.data(), got.output.data(),
                            static_cast<std::size_t>(ref.output.size()) *
                                sizeof(float)) != 0,
            "'", w.name, "': output tensor mismatch");
}

/** One full-model throughput point (the multi-core/batch regimes the
 *  per-layer sweep above cannot reach). */
struct ModelPoint {
    std::string name;
    cycle_t cycles = 0;      //!< composed makespan (or total cycles)
    Spread wall{};        //!< simulator wall seconds over kReps
    count_t dram_stalls = 0; //!< summed shared-DRAM stall cycles
};

/** 2-core pipeline of SqueezeNet-tiny behind one shared DRAM channel. */
ModelPoint
runMulticorePoint()
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny, 7, 1);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny, 11, 1);
    HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
    cfg.cores = 2;
    cfg.dram_channels = 1;
    cfg.partition = PartitionStrategy::Pipeline;

    ModelPoint p{"squeezenet-tiny x2 pipeline"};
    std::vector<double> walls;
    for (int rep = 0; rep <= kReps; ++rep) {
        MulticoreRunner runner(model, cfg);
        const Tensor out = runner.run(input);
        if (rep == 0) { // warm-up: checked, untimed
            panicIf(!out.equals(runner.runNative(input)),
                    "multicore bench point diverged from the native path");
            p.cycles = runner.makespanCycles();
            for (index_t c = 0; c < cfg.cores; ++c)
                p.dram_stalls += runner.arbiter().stallCycles(c);
        } else {
            walls.push_back(runner.total().wall_seconds);
        }
    }
    p.wall = spreadOf(std::move(walls));
    return p;
}

/** Batched inference (N = 4) through the single-accelerator runner. */
ModelPoint
runBatchPoint()
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny, 7, 4);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny, 11, 4);
    const HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);

    ModelPoint p{"squeezenet-tiny batch4"};
    std::vector<double> walls;
    for (int rep = 0; rep <= kReps; ++rep) {
        ModelRunner runner(model, cfg);
        const Tensor out = runner.run(input);
        if (rep == 0) { // warm-up: checked, untimed
            panicIf(!out.equals(runner.runNative(input)),
                    "batch bench point diverged from the native path");
            p.cycles = runner.total().cycles;
        } else {
            walls.push_back(runner.total().wall_seconds);
        }
    }
    p.wall = spreadOf(std::move(walls));
    return p;
}

/** Timed pairs per functional-kernel point. Each pair runs the naive
 *  reference once (about 0.1-0.5 s on these shapes), so it is small. */
constexpr int kKernelReps = 5;

/** One functional kernel against its reference oracle. */
struct KernelPoint {
    std::string name;
    double macs = 0.0;
    Spread kernel_wall{};
    Spread reference_wall{};
    double speedup = 0.0; //!< median over pairs of reference / kernel
};

template <typename Fn>
double
wallOf(const Fn &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    (void)fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * One untimed pair whose outputs must match byte for byte, then
 * kKernelReps timed pairs in alternating order. Both callables return
 * their output tensor, so allocation is timed on both sides.
 */
template <typename Kernel, typename Reference>
KernelPoint
timeKernel(std::string name, index_t macs, const Kernel &kernel,
           const Reference &reference)
{
    KernelPoint p{std::move(name), static_cast<double>(macs)};
    const Tensor got = kernel();
    const Tensor want = reference();
    panicIf(got.shape() != want.shape() ||
                std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.size()) *
                                sizeof(float)) != 0,
            "'", p.name, "': functional kernel differs from the reference");
    std::vector<double> k, r, ratio;
    for (int rep = 0; rep < kKernelReps; ++rep) {
        double kw = 0.0, rw = 0.0;
        if (rep % 2 == 0) {
            kw = wallOf(kernel);
            rw = wallOf(reference);
        } else {
            rw = wallOf(reference);
            kw = wallOf(kernel);
        }
        k.push_back(kw);
        r.push_back(rw);
        if (kw > 0.0)
            ratio.push_back(rw / kw);
    }
    p.kernel_wall = spreadOf(std::move(k));
    p.reference_wall = spreadOf(std::move(r));
    p.speedup = ratio.empty() ? 0.0 : spreadOf(std::move(ratio)).median;
    return p;
}

KernelPoint
convKernelPoint(std::string name, const Conv2dShape &s)
{
    Rng rng(5);
    Tensor input({s.N, s.C, s.X, s.Y});
    Tensor weights({s.K, s.cPerGroup(), s.R, s.S});
    Tensor bias({s.K});
    input.fillUniform(rng);
    weights.fillUniform(rng);
    bias.fillUniform(rng, -0.1f, 0.1f);
    return timeKernel(
        std::move(name), s.macs(),
        [&] {
            Tensor out({s.N, s.K, s.outX(), s.outY()});
            kernel::conv2d(s, input, weights, bias, out);
            return out;
        },
        [&] { return ref::conv2d(input, weights, bias, s); });
}

/** A GEMM as DenseController::runGemm maps it onto the convolution
 *  pipeline: M filters of a 1x1 window over K channels, N columns. */
KernelPoint
gemmKernelPoint(std::string name, index_t m, index_t n, index_t k)
{
    Rng rng(6);
    Tensor a({m, k}), b({k, n});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Conv2dShape s;
    s.C = k;
    s.K = m;
    s.Y = n;
    const Tensor input = b.reshaped({1, k, 1, n});
    const Tensor weights = a.reshaped({m, k, 1, 1});
    return timeKernel(
        std::move(name), s.macs(),
        [&] {
            Tensor out({1, m, 1, n});
            kernel::conv2d(s, input, weights, Tensor(), out);
            return out.reshaped({m, n});
        },
        [&] { return ref::gemm(a, b); });
}

Conv2dShape
convShape(index_t r, index_t c, index_t k, index_t xy, index_t stride,
          index_t pad)
{
    Conv2dShape s;
    s.R = r;
    s.S = r;
    s.C = c;
    s.K = k;
    s.X = xy;
    s.Y = xy;
    s.stride = stride;
    s.padding = pad;
    return s;
}

/** ResNet-50 Full layers (the 14x14 stage and conv1) and a BERT-base
 *  attention projection (hidden 768, sequence 128). */
std::vector<KernelPoint>
runKernelPoints()
{
    return {
        convKernelPoint("resnet50 1x1 C1024->256 14x14",
                        convShape(1, 1024, 256, 14, 1, 0)),
        convKernelPoint("resnet50 3x3 C256->256 14x14 pad 1",
                        convShape(3, 256, 256, 14, 1, 1)),
        convKernelPoint("resnet50 conv1 7x7/2 C3->64 224x224 pad 3",
                        convShape(7, 3, 64, 224, 2, 3)),
        gemmKernelPoint("bert gemm M768 N128 K768", 768, 128, 768),
    };
}

} // namespace

int
main()
{
    const std::vector<Workload> points = workloads();
    std::vector<PointResult> results(points.size());

    // The recovering runner retries a failing point from its last
    // snapshot instead of aborting the sweep; a healthy run completes
    // every point on attempt 1 and the recovery summary records that.
    // One sweep thread: points are timed serially, never contending
    // with each other for cores or memory bandwidth.
    RecoveringSweepRunner runner(1);
    std::vector<RecoveringSweepRunner::Point> sweep;
    sweep.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        sweep.push_back(
            {points[i].name, points[i].cfg,
             [&, i](const HardwareConfig &cfg, const SweepAttempt &) {
                 Workload w = points[i];
                 w.cfg = cfg;
                 const LayerData data =
                     makeLayerData(layerByTag(w.tag), w.sparsity, 42);
                 results[i] = runPoint(w, data);
                 checkParity(w, results[i].tick, results[i].event);
             }});
    }
    const std::vector<PointOutcome> outcomes = runner.run(sweep);
    for (const PointOutcome &o : outcomes)
        fatalIf(!o.completed, "sweep point '", o.name, "' failed all ",
                o.attempts, " attempts; last cause: ",
                o.failures.empty() ? "unknown"
                                   : o.failures.back().cause.c_str());

    banner("Simulator speed — tick vs. event engine (median of " +
           std::to_string(kReps) + " reps, serial)");
    TablePrinter t({"workload", "cycles", "tick wall [s]",
                    "event wall [s]", "event min..max [s]", "speedup",
                    "event cycles/s"});
    double max_speedup = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = results[i];
        max_speedup = std::max(max_speedup, p.speedup);
        t.addRow({points[i].name,
                  TablePrinter::num(static_cast<count_t>(p.tick.sim.cycles)),
                  TablePrinter::num(p.tick.wall.median, 5),
                  TablePrinter::num(p.event.wall.median, 5),
                  TablePrinter::num(p.event.wall.min, 5) + ".." +
                      TablePrinter::num(p.event.wall.max, 5),
                  TablePrinter::num(p.speedup, 2),
                  TablePrinter::num(cyclesPerSecond(p.event.sim.cycles,
                                                    p.event.wall.median),
                                    0)});
    }
    t.print();
    std::printf("\nmax event-engine speedup: %.2fx (parity held on all "
                "%zu points)\n",
                max_speedup, points.size());

    JsonValue j = JsonValue::makeObject();
    j.set("benchmark", std::string("sim_speed"));
    j.set("reps", static_cast<std::int64_t>(kReps));
    j.set("warmup_reps", std::int64_t{1});
    j.set("sweep_threads",
          static_cast<std::uint64_t>(runner.threadCount()));
    JsonValue arr = JsonValue::makeArray();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = results[i];
        JsonValue o = JsonValue::makeObject();
        o.set("workload", points[i].name);
        o.set("layer", points[i].tag);
        o.set("config", points[i].cfg.name);
        o.set("dn_bandwidth", points[i].cfg.dn_bandwidth);
        o.set("sparsity", points[i].sparsity);
        o.set("cycles", static_cast<std::uint64_t>(p.tick.sim.cycles));
        o["tick_wall_seconds"] = spreadJson(p.tick.wall);
        o["event_wall_seconds"] = spreadJson(p.event.wall);
        o.set("event_speedup", p.speedup);
        // Both engines are exact; the key keeps its historical name
        // because the CI throughput floor reads it.
        o.set("exact_cycles_per_second",
              cyclesPerSecond(p.event.sim.cycles, p.event.wall.median));
        o.set("parity", true);
        arr.append(std::move(o));
    }
    j["points"] = arr;
    j.set("max_event_speedup", max_speedup);

    // Full-model points: the multi-core and batched regimes.
    const std::vector<ModelPoint> model_points = {runMulticorePoint(),
                                                  runBatchPoint()};
    TablePrinter mt({"model point", "cycles", "wall [s]", "min..max [s]",
                     "cycles/s", "dram stalls"});
    JsonValue marr = JsonValue::makeArray();
    for (const ModelPoint &p : model_points) {
        mt.addRow({p.name, TablePrinter::num(static_cast<count_t>(p.cycles)),
                   TablePrinter::num(p.wall.median, 4),
                   TablePrinter::num(p.wall.min, 4) + ".." +
                       TablePrinter::num(p.wall.max, 4),
                   TablePrinter::num(cyclesPerSecond(p.cycles,
                                                     p.wall.median),
                                     0),
                   TablePrinter::num(p.dram_stalls)});
        JsonValue o = JsonValue::makeObject();
        o.set("workload", p.name);
        o.set("cycles", static_cast<std::uint64_t>(p.cycles));
        o["wall_seconds"] = spreadJson(p.wall);
        o.set("dram_stall_cycles", static_cast<std::uint64_t>(p.dram_stalls));
        o.set("parity", true);
        marr.append(std::move(o));
    }
    std::printf("\n");
    mt.print();
    j["model_points"] = marr;

    // Functional-kernel points: the outputs' compute, not the cycles.
    const std::vector<KernelPoint> kernel_points = runKernelPoints();
    TablePrinter kt({"functional kernel", "MACs", "kernel MAC/s",
                     "reference MAC/s", "speedup"});
    JsonValue karr = JsonValue::makeArray();
    std::vector<double> speedups;
    for (const KernelPoint &p : kernel_points) {
        const double kernel_rate = p.macs / p.kernel_wall.median;
        const double ref_rate = p.macs / p.reference_wall.median;
        kt.addRow({p.name, TablePrinter::num(static_cast<count_t>(p.macs)),
                   TablePrinter::num(kernel_rate, 0),
                   TablePrinter::num(ref_rate, 0),
                   TablePrinter::num(p.speedup, 2)});
        JsonValue o = JsonValue::makeObject();
        o.set("workload", p.name);
        o.set("macs", p.macs);
        o["kernel_wall_seconds"] = spreadJson(p.kernel_wall);
        o["reference_wall_seconds"] = spreadJson(p.reference_wall);
        o.set("kernel_macs_per_second", kernel_rate);
        o.set("reference_macs_per_second", ref_rate);
        o.set("speedup", p.speedup);
        o.set("byte_exact", true);
        karr.append(std::move(o));
        speedups.push_back(p.speedup);
    }
    const double median_kernel_speedup = spreadOf(speedups).median;
    std::printf("\n");
    kt.print();
    std::printf("median functional-kernel speedup over the reference: "
                "%.2fx (byte-exact on all %zu points)\n",
                median_kernel_speedup, kernel_points.size());
    j["kernel_points"] = karr;
    j.set("kernel_reps", static_cast<std::int64_t>(kKernelReps));
    j.set("median_kernel_speedup", median_kernel_speedup);

    j["recovery"] = RecoveringSweepRunner::summary(outcomes);
    OutputModule::writeFile("BENCH_sim_speed.json", j.dump() + "\n");
    std::printf("wrote BENCH_sim_speed.json\n");
    return 0;
}
