/**
 * @file
 * Whole-model workloads: a Full-scale Table I model built, run through
 * ModelRunner on each of the workload's architectures and reported via
 * OutputModule::modelReport, repeated for the run's duration.
 *
 * One pass is one job: time to result runs from model construction to
 * the last report file being written. Every pass is checked against the
 * golden file (output CRC32, total and per-op cycles, every counter).
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "controller/mapper.hpp"
#include "dse/cache.hpp"
#include "e2ebench.hpp"
#include "engine/output_module.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"

namespace e2e {

using namespace stonne;

namespace {

struct Arch {
    std::string tag;    //!< metric-name key: tpu | maeri | sigma
    std::string design; //!< Table V design name
    HardwareConfig cfg;
};

struct ModelWorkload {
    std::string name;
    ModelId model;
    std::vector<Arch> archs;
};

const std::vector<ModelWorkload> &
modelWorkloads()
{
    static const std::vector<ModelWorkload> w = {
        {"mobilenet_tpu_full", ModelId::MobileNetV1,
         {{"tpu", "TPU", HardwareConfig::tpuLike(256)}}},
        {"resnet50_flex_full", ModelId::ResNet50,
         {{"maeri", "MAERI", HardwareConfig::maeriLike(256, 128)},
          {"sigma", "SIGMA", HardwareConfig::sigmaLike(256, 128)}}},
    };
    return w;
}

const ModelWorkload &
findWorkload(const std::string &name)
{
    for (const ModelWorkload &w : modelWorkloads())
        if (w.name == name)
            return w;
    throw std::runtime_error("unknown model workload " + name);
}

/** Weight and input seeds of a seed-bank entry (entry 0 = zoo defaults). */
std::uint64_t modelSeed(std::uint64_t bank) { return 7 + 100 * bank; }
std::uint64_t inputSeed(std::uint64_t bank) { return 11 + 100 * bank; }

/** One model x architecture inference of a pass. */
struct ArchRun {
    ArchGolden got;
    std::vector<LayerRunRecord> records;
    SimulationResult total;
    double run_s = 0.0;
    double run_adj_s = 0.0; //!< run_s, host-adjusted
};

/** One pass; `*_adj_s` figures are host-adjusted (see HostSpeed). */
struct Pass {
    double build_s = 0.0;
    double input_s = 0.0;
    double report_s = 0.0;
    double ttr_s = 0.0;
    double setup_adj_s = 0.0;
    double ttr_adj_s = 0.0;
    std::vector<ArchRun> archs;

    double setup() const { return build_s + input_s; }
};

/** Seconds of [from, to], raw and host-adjusted. */
std::pair<double, double>
timed(Clock::time_point from, Clock::time_point to)
{
    const double raw = std::chrono::duration<double>(to - from).count();
    return {raw, raw * HostSpeed::factor(from, to)};
}

/** Shapes of the built model the single-module probes run on. */
struct ModelShapes {
    std::vector<std::vector<index_t>> weights;
    std::vector<LayerSpec> convs;
    std::vector<LayerSpec> offloaded;
    double sparsity = 0.0;
};

ModelShapes
shapesOf(const DnnModel &m)
{
    ModelShapes s;
    s.sparsity = m.target_weight_sparsity;
    for (const DnnLayer &l : m.layers) {
        if (l.op == OpType::Conv2d || l.op == OpType::Linear)
            s.weights.push_back(l.weights.shape());
        if (l.op == OpType::Conv2d)
            s.convs.push_back(l.spec);
        if (l.op == OpType::Conv2d || l.op == OpType::Linear)
            s.offloaded.push_back(l.spec);
    }
    return s;
}

ArchGolden
goldenOf(const ModelRunner &runner, Stonne &st, const Tensor &out)
{
    ArchGolden g;
    g.output_crc32 = tensorCrc(out);
    g.cycles = runner.total().cycles;
    for (const LayerRunRecord &r : runner.records())
        if (r.offloaded)
            g.op_cycles.push_back(r.sim.cycles);
    for (const StatCounter &c : st.stats().counters())
        g.counters[c.name] = c.value;
    return g;
}

Pass
runPass(const ModelWorkload &w, std::uint64_t bank,
        const std::string &report_dir, SpanRecorder *rec,
        ModelShapes *shapes)
{
    // Every timed section holds a calibration sample at each end, so even
    // a short one has a host-speed factor.
    Pass p;
    const Clock::time_point t0 = Clock::now();
    ScopedSpan pass_span(rec, "pass");
    HostSpeed::sampleNow();
    DnnModel model;
    {
        ScopedSpan span(rec, "frontend.build_model");
        const Clock::time_point t = Clock::now();
        model = buildModel(w.model, ModelScale::Full, modelSeed(bank));
        p.build_s = secondsSince(t);
    }
    Tensor input;
    {
        ScopedSpan span(rec, "frontend.make_input");
        const Clock::time_point t = Clock::now();
        input = makeModelInput(w.model, ModelScale::Full, inputSeed(bank));
        p.input_s = secondsSince(t);
    }
    HostSpeed::sampleNow();
    p.setup_adj_s = timed(t0, Clock::now()).second;
    for (const Arch &a : w.archs) {
        ArchRun ar;
        ModelRunner runner(model, a.cfg);
        Tensor out;
        {
            ScopedSpan span(rec, "frontend.run." + a.tag);
            const Clock::time_point t = Clock::now();
            out = runner.run(input);
            HostSpeed::sampleNow();
            std::tie(ar.run_s, ar.run_adj_s) = timed(t, Clock::now());
        }
        {
            ScopedSpan span(rec, "frontend.report." + a.tag);
            const Clock::time_point t = Clock::now();
            const JsonValue report = OutputModule::modelReport(
                model.name, a.cfg, runner.records(), runner.total());
            OutputModule::writeFile(report_dir + "/" + w.name + "-" +
                                        a.tag + ".json",
                                    report.dump() + "\n");
            p.report_s += secondsSince(t);
        }
        ar.got = goldenOf(runner, runner.stonne(), out);
        ar.records = runner.records();
        ar.total = runner.total();
        p.archs.push_back(std::move(ar));
    }
    HostSpeed::sampleNow();
    std::tie(p.ttr_s, p.ttr_adj_s) = timed(t0, Clock::now());
    if (shapes)
        *shapes = shapesOf(model);
    return p;
}

/** Host-adjusted seconds of one standalone set-up (build + input). */
double
setUp(const ModelWorkload &w, std::uint64_t bank)
{
    const Clock::time_point t = Clock::now();
    HostSpeed::sampleNow();
    const DnnModel m =
        buildModel(w.model, ModelScale::Full, modelSeed(bank));
    const Tensor in =
        makeModelInput(w.model, ModelScale::Full, inputSeed(bank));
    HostSpeed::sampleNow();
    return timed(t, Clock::now()).second;
}

/** Per-layer metrics of one architecture's inference. */
void
setArchMetrics(Metrics &m, const std::string &tag,
               const std::vector<const ArchRun *> &runs)
{
    std::vector<double> run_s, native_s, conv_s, linear_s, pool_s, slow_s,
        ns_per_cycle;
    for (const ArchRun *r : runs) {
        double ops_s = 0.0, conv = 0.0, lin = 0.0, pool = 0.0, slow = 0.0;
        for (const LayerRunRecord &rec : r->records) {
            if (!rec.offloaded)
                continue;
            const double s = rec.sim.wall_seconds;
            ops_s += s;
            slow = std::max(slow, s);
            if (rec.op == OpType::Conv2d)
                conv += s;
            else if (rec.op == OpType::Linear)
                lin += s;
            else if (rec.op == OpType::MaxPool2d)
                pool += s;
        }
        run_s.push_back(r->run_s);
        native_s.push_back(r->run_s - ops_s);
        conv_s.push_back(conv);
        linear_s.push_back(lin);
        pool_s.push_back(pool);
        slow_s.push_back(slow);
        ns_per_cycle.push_back(
            r->total.cycles ? 1e9 * ops_s / static_cast<double>(
                                                r->total.cycles)
                            : 0.0);
    }
    const ArchRun &last = *runs.back();
    m.set("frontend.run_s." + tag, median(run_s));
    m.set("frontend.native_ops_s." + tag, median(native_s));
    const std::string e = "engine." + tag;
    m.set(e + ".conv_s", median(conv_s));
    m.set(e + ".linear_s", median(linear_s));
    if (tag == "maeri")
        m.set(e + ".maxpool_s", median(pool_s));
    m.set(e + ".ops", static_cast<double>(last.got.op_cycles.size()));
    m.set(e + ".ns_per_cycle", median(ns_per_cycle));
    m.set(e + ".slowest_op_s", median(slow_s));
    m.set("sim." + tag + ".cycles", static_cast<double>(last.total.cycles));
    m.set("sim." + tag + ".macs", static_cast<double>(last.total.macs));
    m.set("sim." + tag + ".ms_utilization", last.total.ms_utilization);
    auto ctr = [&last](const char *name) {
        const auto it = last.got.counters.find(name);
        return it == last.got.counters.end()
            ? 0.0
            : static_cast<double>(it->second);
    };
    m.set("mem." + tag + ".dram_bytes", ctr("dram.bytes"));
    m.set("mem." + tag + ".dram_stall_cycles", ctr("dram.stall_cycles"));
    m.set("mem." + tag + ".gb_reads", ctr("gb.reads"));
    m.set("network." + tag + ".dn_stalls", ctr("dn.stalls"));
}

} // namespace

bool
isModelWorkload(const std::string &name)
{
    for (const ModelWorkload &w : modelWorkloads())
        if (w.name == name)
            return true;
    return false;
}

JsonValue
verifyModelWorkload(const std::string &workload, std::uint64_t bank)
{
    const ModelWorkload &w = findWorkload(workload);
    const DnnModel model =
        buildModel(w.model, ModelScale::Full, modelSeed(bank));
    const Tensor input =
        makeModelInput(w.model, ModelScale::Full, inputSeed(bank));
    const Tensor native = ModelRunner(model, w.archs[0].cfg).runNative(input);
    JsonValue archs = JsonValue::makeObject();
    for (const Arch &a : w.archs) {
        ModelRunner runner(model, a.cfg);
        const Tensor out = runner.run(input);
        if (!out.equals(native))
            throw std::runtime_error(
                workload + " on " + a.tag +
                ": simulated output differs from runNative (max |diff| " +
                std::to_string(out.maxAbsDiff(native)) + ")");
        archs[a.tag] = goldenOf(runner, runner.stonne(), out).toJson();
    }
    JsonValue frag = JsonValue::makeObject();
    frag.set("workload", workload);
    frag.set("bank_index", bank);
    frag.set("model_seed", modelSeed(bank));
    frag.set("input_seed", inputSeed(bank));
    frag["archs"] = std::move(archs);
    return frag;
}

RunResult
runModelWorkload(const RunOptions &opts)
{
    const ModelWorkload &w = findWorkload(opts.workload);
    const std::uint64_t bank = opts.seed % kSeedBank;
    RunResult r;
    r.info.set("bank_index", bank);
    r.info.set("model_seed", modelSeed(bank));
    r.info.set("input_seed", inputSeed(bank));

    // Table V fidelity of the workload's own architectures; micro-layers
    // run before, and outside, every timed section.
    std::vector<std::string> designs, rows;
    for (const Arch &a : w.archs)
        designs.push_back(a.design);
    r.e2e.set("fidelity_pct", fidelityPct(designs, &rows));
    JsonValue rows_j = JsonValue::makeArray();
    for (const std::string &row : rows)
        rows_j.append(JsonValue::makeString(row));
    r.info["fidelity_rows"] = std::move(rows_j);

    // Expected results: the golden entry of this seed-bank index, else
    // the native reference (output CRC only), computed untimed.
    std::map<std::string, ArchGolden> golden;
    std::optional<std::uint32_t> native_crc;
    const JsonValue golden_file = readGolden(opts.golden_path);
    const JsonValue *sec = golden_file.find(w.name);
    const JsonValue *seeds = sec ? sec->find("seeds") : nullptr;
    const JsonValue *entry =
        seeds ? seeds->find(std::to_string(bank)) : nullptr;
    if (entry) {
        for (const auto &[tag, g] : entry->find("archs")->members())
            golden[tag] = ArchGolden::fromJson(g);
        r.info.set("checked_against", "golden");
    } else {
        std::fprintf(stderr, "e2ebench: no golden entry for %s bank %llu; "
                             "checking against runNative\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(bank));
        const DnnModel model =
            buildModel(w.model, ModelScale::Full, modelSeed(bank));
        native_crc = tensorCrc(ModelRunner(model, w.archs[0].cfg)
                                   .runNative(makeModelInput(
                                       w.model, ModelScale::Full,
                                       inputSeed(bank))));
        r.info.set("checked_against", "runNative");
    }

    const double steal0 = hostStealSeconds();
    std::unique_ptr<SpanRecorder> rec;
    if (opts.trace)
        rec = std::make_unique<SpanRecorder>(w.name + "/seed" +
                                             std::to_string(opts.seed));

    // Every pass is checked against the golden entry (or runNative).
    auto check = [&](const Pass &p, const std::string &label) {
        for (std::size_t k = 0; k < w.archs.size(); ++k) {
            ++r.attempted;
            const ArchGolden &got = p.archs[k].got;
            std::vector<std::string> diffs;
            if (native_crc) {
                if (got.output_crc32 != *native_crc)
                    diffs.push_back("output_crc32 differs from runNative");
            } else {
                diffs = golden[w.archs[k].tag].diff(got);
            }
            if (!diffs.empty()) {
                ++r.failed;
                r.correct = false;
                for (const std::string &d : diffs)
                    r.errors.push_back(label + " " + w.archs[k].tag + ": " +
                                       d);
            }
        }
    };

    // The calibration kernel samples this thread from here on.
    const Clock::time_point t_sampling = Clock::now();
    HostSpeed::startSampling({currentThreadId()});
    const SamplingGuard sampling;

    // A warm-up pass first: it grows the heap to the model's working
    // set and warms the code paths, so the first measured pass does not
    // also pay the process warm-up. Only its set-up time is kept.
    ModelShapes shapes;
    const Pass warm_up = runPass(w, bank, opts.out_dir, nullptr, &shapes);
    check(warm_up, "warm-up pass");
    std::vector<double> setups = {warm_up.setup_adj_s};

    // Passes run until the duration is spent; a traced run alternates
    // untraced and traced passes so it can report the tracing overhead.
    std::vector<Pass> plain, traced;
    double offcpu = 0.0;
    const Clock::time_point t_start = Clock::now();
    for (int i = 0;; ++i) {
        const bool traced_pass = opts.trace && i % 2 == 1;
        const double cpu0 = threadCpuSeconds();
        Pass p = runPass(w, bank, opts.out_dir,
                         traced_pass ? rec.get() : nullptr, nullptr);
        offcpu += p.ttr_s - (threadCpuSeconds() - cpu0);
        std::fprintf(stderr,
                     "e2ebench: %s pass %d%s: setup %.3f s, time to result "
                     "%.3f s (host-adjusted %.3f s)\n",
                     w.name.c_str(), i, traced_pass ? " (traced)" : "",
                     p.setup(), p.ttr_s, p.ttr_adj_s);
        check(p, "pass " + std::to_string(i));
        (traced_pass ? traced : plain).push_back(std::move(p));
        if (secondsSince(t_start) >= opts.seconds &&
            (!opts.trace || !traced.empty()))
            break;
    }

    // Set-up time is the median of at least three set-ups: the warm-up
    // pass's, one per untraced pass, and more if the passes were few.
    for (const Pass &p : plain)
        setups.push_back(p.setup_adj_s);
    while (!opts.trace && setups.size() < 3)
        setups.push_back(setUp(w, bank));
    HostSpeed::stopSampling();

    // End-to-end figures are host-adjusted.
    std::vector<double> ttr, cps;
    double ttr_sum = 0.0;
    for (const Pass &p : plain) {
        ttr.push_back(p.ttr_adj_s);
        ttr_sum += p.ttr_adj_s;
        double cycles = 0.0, run_s = 0.0;
        for (const ArchRun &a : p.archs) {
            cycles += static_cast<double>(a.total.cycles);
            run_s += a.run_adj_s;
        }
        cps.push_back(run_s > 0.0 ? cycles / run_s : 0.0);
    }
    r.e2e.set("setup_s", median(setups));
    r.e2e.set("time_to_result_s", median(ttr));
    r.e2e.set("sim_cycles_per_s", median(cps));
    r.e2e.set("jobs_per_s", static_cast<double>(plain.size()) / ttr_sum);
    r.e2e.set("latency_p50_ms", 1e3 * percentile(ttr, 0.50));
    r.e2e.set("latency_p99_ms", 1e3 * percentile(ttr, 0.99));

    // Per-layer metrics: from the traced passes in a traced run.
    const std::vector<Pass> &src = opts.trace ? traced : plain;
    Metrics &m = r.layer;
    std::vector<double> build_s, input_s, report_s, ttr_src;
    for (const Pass &p : src) {
        build_s.push_back(p.build_s);
        input_s.push_back(p.input_s);
        report_s.push_back(p.report_s);
        ttr_src.push_back(p.ttr_adj_s);
    }
    m.set("frontend.build_model_s", median(build_s));
    m.set("frontend.make_input_s", median(input_s));
    m.set("frontend.report_s", median(report_s));
    for (std::size_t k = 0; k < w.archs.size(); ++k) {
        std::vector<const ArchRun *> runs;
        for (const Pass &p : src)
            runs.push_back(&p.archs[k]);
        setArchMetrics(m, w.archs[k].tag, runs);
    }

    if (opts.trace) {
        m.set("host.trace_overhead_pct",
              100.0 * (median(ttr_src) / median(ttr) - 1.0));
        m.set("common.rng_normal_ns", rngNormalNs());
        m.set("tensor.prune_s",
              pruneSeconds(shapes.weights, shapes.sparsity, rec.get()));
        const LoweringTimes lt = loweringSeconds(shapes.convs, rec.get());
        m.set("tensor.im2col_s", lt.im2col_s);
        m.set("tensor.filters_to_matrix_s", lt.filters_to_matrix_s);
        m.set("tensor.col2im_s", lt.col2im_s);
        std::vector<std::string> keys;
        for (const Arch &a : w.archs)
            for (const LayerSpec &l : shapes.offloaded)
                keys.push_back(dse::ResultCache::keyText(
                    a.cfg, l, Mapper(a.cfg.ms_size).generateTile(l),
                    "seed=" + std::to_string(inputSeed(bank)) +
                        " sparsity=0"));
        const CacheTimes ct =
            cacheSeconds(keys, opts.out_dir + "/probe.cache", rec.get());
        m.set("dse.cache_lookup_us", ct.lookup_us);
        m.set("dse.cache_insert_us", ct.insert_us);
        m.set("dse.cache_save_s", ct.save_s);
        m.set("dse.cache_load_s", ct.load_s);
        m.set("dse.cache_entries", ct.entries);

        const std::string trace_path = opts.out_dir + "/" + w.name +
            "-seed" + std::to_string(opts.seed) + ".trace.json";
        rec->write(trace_path);
        r.info.set("span_file", trace_path);
        r.info["spans"] = rec->summary();
        // How much of the traced time to result its child spans cover.
        r.info.set("span_coverage", rec->coverage("pass"));
    }

    const Clock::time_point t_done = Clock::now();
    m.set("host.control_ms",
          median(HostSpeed::samplesMs(t_sampling, t_done)));
    m.set("host.speed_factor", HostSpeed::factor(t_sampling, t_done));
    m.set("host.steal_s", hostStealSeconds() - steal0);
    m.set("host.offcpu_s", offcpu);
    r.e2e.set("peak_rss_mb", peakRssMb());
    JsonValue pass_s = JsonValue::makeArray(), pass_adj_s = pass_s;
    for (const Pass &p : plain) {
        pass_s.append(JsonValue::makeDouble(p.ttr_s));
        pass_adj_s.append(JsonValue::makeDouble(p.ttr_adj_s));
    }
    r.info["pass_seconds"] = std::move(pass_s);
    r.info["pass_adjusted_seconds"] = std::move(pass_adj_s);
    r.info.set("traced_passes", static_cast<std::uint64_t>(traced.size()));
    return r;
}

} // namespace e2e
