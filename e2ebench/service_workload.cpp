/**
 * @file
 * service_mix: an in-process ServiceDaemon (2 workers, MAERI-256/128)
 * driven closed-loop by one generator thread that keeps 4 requests
 * outstanding.
 *
 * Requests are `run` jobs on the Full-scale SqueezeNet convolutions and
 * the BERT GEMM/linear shapes. Three cold jobs (fresh data seed, so a
 * cache miss) go out for every warm job (a key filled during set-up,
 * so a cache hit). Latency runs from submit to the reply line reaching
 * the generator's stream sink.
 *
 * Checks: each cold reply's cycles equal the golden per-shape cycles;
 * each warm reply's cycles and output_crc32 equal those of the cold
 * reply that filled its key. Any mismatch is a failed job.
 *
 * The calibration kernel samples the daemon's worker threads, and the
 * end-to-end figures are host-adjusted per block (see HostSpeed).
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "common/rng.hpp"
#include "controller/mapper.hpp"
#include "dse/cache.hpp"
#include "e2ebench.hpp"
#include "engine/workload.hpp"
#include "frontend/model_zoo.hpp"
#include "service/daemon.hpp"
#include "tensor/reference.hpp"

namespace e2e {

using namespace stonne;

namespace {

constexpr const char *kWorkload = "service_mix";
constexpr int kOutstanding = 4;
constexpr index_t kWorkers = 2;
/** Cold jobs per warm job. */
constexpr std::size_t kColdPerWarm = 3;
/** Step of the shape order; must be coprime with the shape count. */
constexpr std::size_t kStride = 7;
constexpr int kSetups = 3;
/**
 * Nominal seconds of one block. A run has a fixed number of blocks,
 * --seconds over this, so that every run of a seed submits the same
 * jobs and meets the same checks however fast the host is.
 */
constexpr double kBlockSeconds = 3.5;

struct Shape {
    LayerSpec spec;
    std::string json; //!< the request's "layer" object
};

std::string
layerJson(const LayerSpec &l)
{
    std::ostringstream os;
    if (l.kind == LayerKind::Convolution) {
        const Conv2dShape &c = l.conv;
        os << R"({"kind":"conv","name":")" << l.name << R"(","R":)" << c.R
           << R"(,"S":)" << c.S << R"(,"C":)" << c.C << R"(,"K":)" << c.K
           << R"(,"G":)" << c.G << R"(,"N":)" << c.N << R"(,"X":)" << c.X
           << R"(,"Y":)" << c.Y << R"(,"stride":)" << c.stride
           << R"(,"pad":)" << c.padding << "}";
    } else if (l.kind == LayerKind::Linear) {
        // Protocol view: N = batch, K = inputs, M = outputs.
        os << R"({"kind":"linear","name":")" << l.name << R"(","M":)"
           << l.gemm.m << R"(,"N":)" << l.gemm.n << R"(,"K":)" << l.gemm.k
           << "}";
    } else {
        os << R"({"kind":"gemm","name":")" << l.name << R"(","M":)"
           << l.gemm.m << R"(,"N":)" << l.gemm.n << R"(,"K":)" << l.gemm.k
           << "}";
    }
    return os.str();
}

/** The Full-scale SqueezeNet convolutions and BERT GEMM/linear shapes. */
std::vector<Shape>
serviceShapes()
{
    std::vector<LayerSpec> specs;
    for (const DnnLayer &l :
         buildModel(ModelId::SqueezeNet, ModelScale::Full).layers)
        if (l.op == OpType::Conv2d)
            specs.push_back(l.spec);
    // BERT at Full scale (seq 128, hidden 768, 12 heads, FFN 3072, 1000
    // classes), lowered as LayerExecutor lowers an encoder block.
    specs.push_back(LayerSpec::linear("bert_proj", 128, 768, 768));
    specs.push_back(LayerSpec::linear("bert_ff1", 128, 768, 3072));
    specs.push_back(LayerSpec::linear("bert_ff2", 128, 3072, 768));
    specs.push_back(LayerSpec::linear("bert_classifier", 128, 768, 1000));
    specs.push_back(LayerSpec::gemmLayer("bert_scores", 128, 128, 64));
    specs.push_back(LayerSpec::gemmLayer("bert_context", 128, 64, 128));
    std::vector<Shape> out;
    for (LayerSpec &s : specs)
        out.push_back({s, layerJson(s)});
    return out;
}

HardwareConfig
serviceConfig()
{
    HardwareConfig c = HardwareConfig::maeriLike(256, 128);
    c.service_workers = kWorkers;
    return c;
}

/**
 * Stream sink of the daemon's output: timestamps each reply line as it
 * arrives and hands it to the generator thread.
 */
class LineSink : public std::streambuf
{
  public:
    struct Line {
        Clock::time_point t;
        std::string text;
    };

    /** Block until at least one line arrived; return all queued lines. */
    std::deque<Line>
    take()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !lines_.empty(); });
        std::deque<Line> out;
        out.swap(lines_);
        return out;
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c != traits_type::eof())
            put(static_cast<char>(c));
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    // The daemon serializes writes under its output lock, so cur_ has
    // one writer at a time.
    void
    put(char c)
    {
        if (c != '\n') {
            cur_ += c;
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            lines_.push_back({Clock::now(), std::move(cur_)});
        }
        cur_.clear();
        cv_.notify_one();
    }

    std::string cur_;
    std::mutex mu_; //!< guards lines_
    std::condition_variable cv_;
    std::deque<Line> lines_;
};

struct Job {
    std::string id;
    std::string line;
    std::size_t shape = 0;
    bool warm = false;
};

/** What the generator saw of one finished job. */
struct Outcome {
    const Job *job = nullptr;
    double latency_ms = 0.0;
    double handle_us = 0.0;
    double queue_wait_ms = 0.0;
    double wall_ms = 0.0;
    bool done = false;
    bool cache_hit = false;
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
    double ms_utilization = 0.0;
    double sim_wall_s = 0.0;
    std::uint32_t crc = 0;
    std::string error;
};

std::string
requestLine(const std::string &id, const Shape &s, std::uint64_t seed)
{
    return R"({"type":"run","id":")" + id + R"(","seed":)" +
           std::to_string(seed) + R"(,"layer":)" + s.json + "}";
}

Outcome
parseReply(const Job &job, const std::string &text)
{
    Outcome o;
    o.job = &job;
    const JsonValue r = JsonValue::parse(text);
    const std::string status = r.find("status")->asString();
    o.done = status == "done";
    if (!o.done) {
        const JsonValue *err = r.find("error");
        if (!err)
            err = r.find("message");
        o.error = status + (err ? ": " + err->asString() : "");
        return o;
    }
    const JsonValue &svc = *r.find("service");
    o.queue_wait_ms = svc.find("queue_wait_ms")->asDouble();
    o.wall_ms = svc.find("wall_ms")->asDouble();
    o.cache_hit = svc.find("cache_hit")->asBool();
    o.crc = static_cast<std::uint32_t>(svc.find("output_crc32")->asUint64());
    const JsonValue &sum = *r.find("summary");
    if (const JsonValue *perf = sum.find("performance")) {
        o.cycles = perf->find("cycles")->asUint64();
        o.macs = perf->find("macs")->asUint64();
        o.ms_utilization = perf->find("ms_utilization")->asDouble();
        o.sim_wall_s = perf->find("wall_seconds")->asDouble();
    } else {
        // Cache hits carry the reduced, flat summary.
        o.cycles = sum.find("cycles")->asUint64();
        o.ms_utilization = sum.find("ms_utilization")->asDouble();
    }
    return o;
}

/**
 * Closed loop: keep `outstanding` jobs in flight until all are answered.
 * Job spans go on tracks 1..outstanding (one per in-flight slot).
 */
std::vector<Outcome>
runJobs(service::ServiceDaemon &daemon, LineSink &sink,
        const std::vector<Job> &jobs, int outstanding, SpanRecorder *rec)
{
    struct InFlight {
        Clock::time_point submitted;
        double handle_us;
        int slot;
        int span;
    };
    std::map<std::string, std::pair<const Job *, InFlight>> live;
    std::vector<int> free_slots;
    for (int s = outstanding; s >= 1; --s)
        free_slots.push_back(s);
    std::vector<Outcome> out;
    out.reserve(jobs.size());
    std::size_t next = 0;
    while (out.size() < jobs.size()) {
        while (next < jobs.size() &&
               static_cast<int>(live.size()) < outstanding) {
            const Job &j = jobs[next++];
            InFlight f{};
            f.slot = free_slots.back();
            free_slots.pop_back();
            f.span = rec ? rec->begin(j.warm ? "service.warm_job"
                                             : "service.cold_job",
                                      f.slot)
                         : -1;
            live[j.id] = {&j, f};
            auto &slot = live[j.id].second;
            slot.submitted = Clock::now();
            daemon.handleLine(j.line);
            slot.handle_us = 1e6 * secondsSince(slot.submitted);
        }
        for (LineSink::Line &l : sink.take()) {
            if (l.text.find(R"("type":"result")") == std::string::npos) {
                if (l.text.find(R"("type":"error")") != std::string::npos)
                    throw std::runtime_error("service error: " + l.text);
                continue; // status line
            }
            const JsonValue r = JsonValue::parse(l.text);
            const auto it = live.find(r.find("id")->asString());
            if (it == live.end())
                throw std::runtime_error("reply for unknown job: " + l.text);
            const InFlight f = it->second.second;
            Outcome o = parseReply(*it->second.first, l.text);
            o.latency_ms =
                std::chrono::duration<double, std::milli>(l.t - f.submitted)
                    .count();
            o.handle_us = f.handle_us;
            if (rec)
                rec->end(f.span);
            free_slots.push_back(f.slot);
            live.erase(it);
            out.push_back(std::move(o));
        }
    }
    return out;
}

/**
 * Cycles of every shape run directly on one accelerator instance; throws
 * unless each simulated output equals the reference kernel's.
 */
std::map<std::string, std::uint64_t>
directShapeCycles(const std::vector<Shape> &shapes, std::uint64_t seed)
{
    std::map<std::string, std::uint64_t> cycles;
    for (const Shape &s : shapes) {
        Stonne st(serviceConfig());
        const LayerData d = makeLayerData(s.spec, 0.0, seed);
        cycles[s.spec.name] = runLayer(st, s.spec, d).cycles;
        Tensor ref;
        if (s.spec.kind == LayerKind::Convolution)
            ref = ref::conv2d(d.input, d.weights, d.bias, s.spec.conv);
        else if (s.spec.kind == LayerKind::Linear)
            ref = ref::linear(d.input, d.weights, d.bias);
        else
            ref = ref::gemm(d.weights, d.input);
        if (!st.output().equals(ref))
            throw std::runtime_error(s.spec.name +
                                     ": simulated output differs from "
                                     "the reference");
    }
    return cycles;
}

} // namespace

bool
isServiceWorkload(const std::string &name)
{
    return name == kWorkload;
}

JsonValue
verifyServiceWorkload()
{
    const std::vector<Shape> shapes = serviceShapes();
    const auto a = directShapeCycles(shapes, 42);
    const auto b = directShapeCycles(shapes, 4242);
    if (a != b)
        throw std::runtime_error("service shape cycles depend on the data "
                                 "seed; a per-shape golden cannot hold");
    JsonValue cyc = JsonValue::makeObject();
    for (const auto &[name, c] : a)
        cyc.set(name, c);
    JsonValue frag = JsonValue::makeObject();
    frag.set("workload", kWorkload);
    frag["shape_cycles"] = std::move(cyc);
    return frag;
}

RunResult
runServiceWorkload(const RunOptions &opts)
{
    RunResult r;
    const std::vector<Shape> shapes = serviceShapes();
    const std::size_t n_shapes = shapes.size();

    std::vector<std::string> rows;
    r.e2e.set("fidelity_pct", fidelityPct({"MAERI"}, &rows));
    JsonValue rows_j = JsonValue::makeArray();
    for (const std::string &row : rows)
        rows_j.append(JsonValue::makeString(row));
    r.info["fidelity_rows"] = std::move(rows_j);

    std::map<std::string, std::uint64_t> golden;
    const JsonValue golden_file = readGolden(opts.golden_path);
    const JsonValue *sec = golden_file.find(kWorkload);
    const JsonValue *shape_cycles = sec ? sec->find("shape_cycles") : nullptr;
    if (!shape_cycles)
        throw std::runtime_error("no service shape cycles in " +
                                 opts.golden_path +
                                 "; run `run.py --verify` to write them");
    for (const auto &[name, c] : shape_cycles->members())
        golden[name] = c.asUint64();
    for (const Shape &s : shapes)
        if (!golden.count(s.spec.name))
            throw std::runtime_error("no golden cycles for service shape " +
                                     s.spec.name +
                                     "; run `run.py --verify`");
    r.info.set("checked_against", "golden");
    auto fail = [&r](const std::string &why, bool wrong_result) {
        ++r.failed;
        if (wrong_result)
            r.correct = false;
        r.errors.push_back(why);
    };
    auto checkCold = [&](const Outcome &o) {
        const std::string &name = shapes[o.job->shape].spec.name;
        if (!o.done)
            fail(o.job->id + " " + o.error, true);
        else if (o.cache_hit)
            fail(o.job->id + ": fresh-seed job served from the cache",
                 true);
        else if (o.cycles != golden[name])
            fail(o.job->id + " " + name + ": cycles " +
                     std::to_string(o.cycles) + " != golden " +
                     std::to_string(golden[name]),
                 true);
    };

    // Seeds: per-run generator plus disjoint data-seed ranges for the
    // warm keys and the cold jobs.
    Rng gen(0xE2EB0000ull + opts.seed);
    const std::uint64_t seed_base = 1'000'000ull * (opts.seed + 1);

    service::ServiceOptions so;
    so.base = serviceConfig();
    int job_counter = 0;
    auto jobId = [&job_counter](const char *kind) {
        return std::string(kind) + std::to_string(job_counter++);
    };

    std::unique_ptr<SpanRecorder> rec;
    if (opts.trace)
        rec = std::make_unique<SpanRecorder>(std::string(kWorkload) +
                                             "/seed" +
                                             std::to_string(opts.seed));

    // Set-up: daemon start plus a serial warm-up pass that fills the
    // keys the timed phase re-requests. Repeated; the last one serves.
    std::unique_ptr<LineSink> sink;
    std::unique_ptr<std::ostream> stream;
    std::unique_ptr<service::ServiceDaemon> daemon;
    // Declared after the daemon: sampling stops before its workers exit.
    const SamplingGuard sampling;
    std::vector<Job> warm_keys(n_shapes);
    std::vector<Outcome> fills;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetups; ++rep) {
        HostSpeed::stopSampling();
        daemon.reset(); // drains and joins the previous set-up's daemon
        stream.reset();
        sink = std::make_unique<LineSink>();
        stream = std::make_unique<std::ostream>(sink.get());
        for (std::size_t s = 0; s < n_shapes; ++s) {
            const std::string id = jobId("fill");
            warm_keys[s] =
                Job{id, requestLine(id, shapes[s], seed_base + s), s, false};
        }
        ScopedSpan span(rec.get(), "service.setup");
        const std::vector<pid_t> before = processThreadIds();
        const Clock::time_point t0 = Clock::now();
        daemon = std::make_unique<service::ServiceDaemon>(so, *stream);
        // Sample the threads the daemon started: its workers.
        std::vector<pid_t> workers;
        for (pid_t id : processThreadIds())
            if (!std::binary_search(before.begin(), before.end(), id))
                workers.push_back(id);
        HostSpeed::startSampling(workers);
        fills = runJobs(*daemon, *sink, warm_keys, 1, rec.get());
        const Clock::time_point t1 = Clock::now();
        setups.push_back(std::chrono::duration<double>(t1 - t0).count() *
                         HostSpeed::factor(t0, t1));
        for (const Outcome &o : fills) {
            ++r.attempted;
            checkCold(o);
        }
    }
    std::vector<const Outcome *> fill_of(n_shapes);
    for (const Outcome &o : fills)
        fill_of[o.job->shape] = &o;

    // Timed phase: blocks with an identical shape mix, until the
    // duration is spent; a traced run alternates untraced and traced
    // blocks. Shapes go out in a fixed stride order that spreads the
    // large BERT jobs through each round; the seed only rotates it, so
    // queueing (and hence the latency tail) does not hinge on whether a
    // seed happens to put two large jobs side by side.
    if (std::gcd(kStride, n_shapes) != 1)
        throw std::runtime_error("shape stride must be coprime with the "
                                 "shape count");
    const std::size_t rotation = gen.engine()() % n_shapes;
    auto strideOrder = [&](std::size_t offset) {
        std::vector<std::size_t> order(n_shapes);
        for (std::size_t i = 0; i < n_shapes; ++i)
            order[i] = (rotation + offset + i * kStride) % n_shapes;
        return order;
    };
    // One block: every shape three times cold and once warm, with one
    // warm job after every three cold ones.
    auto makeBlock = [&]() {
        std::vector<std::size_t> cold_order;
        for (std::size_t c = 0; c < kColdPerWarm; ++c) {
            const std::vector<std::size_t> o = strideOrder(c * 11);
            cold_order.insert(cold_order.end(), o.begin(), o.end());
        }
        const std::vector<std::size_t> warm_order = strideOrder(5);
        std::vector<Job> jobs;
        for (std::size_t i = 0; i < n_shapes; ++i) {
            for (std::size_t k = 0; k < kColdPerWarm; ++k) {
                const std::size_t s = cold_order[i * kColdPerWarm + k];
                const std::string id = jobId("cold");
                // The job counter keeps every cold data seed fresh.
                const std::uint64_t seed = seed_base + n_shapes +
                    static_cast<std::uint64_t>(job_counter);
                jobs.push_back(
                    {id, requestLine(id, shapes[s], seed), s, false});
            }
            const std::size_t s = warm_order[i];
            const std::string id = jobId("warm");
            jobs.push_back(
                {id, requestLine(id, shapes[s], seed_base + s), s, true});
        }
        return jobs;
    };

    struct Block {
        double wall_s = 0.0;
        double factor = 1.0; //!< host-speed factor over the block
        std::vector<Job> jobs;
        std::vector<Outcome> outcomes;
    };
    std::vector<Block> plain, traced;
    std::uint64_t warm_mismatch = 0;
    const int n_blocks =
        std::max(2, static_cast<int>(std::lround(opts.seconds /
                                                 kBlockSeconds)));
    const double steal0 = hostStealSeconds();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t_start = Clock::now();
    for (int i = 0; i < n_blocks; ++i) {
        const bool traced_block = opts.trace && i % 2 == 1;
        SpanRecorder *brec = traced_block ? rec.get() : nullptr;
        Block b;
        b.jobs = makeBlock();
        {
            ScopedSpan span(brec, "service.block");
            const Clock::time_point t0 = Clock::now();
            b.outcomes = runJobs(*daemon, *sink, b.jobs, kOutstanding, brec);
            const Clock::time_point t1 = Clock::now();
            b.wall_s = std::chrono::duration<double>(t1 - t0).count();
            b.factor = HostSpeed::factor(t0, t1);
        }
        for (const Outcome &o : b.outcomes) {
            ++r.attempted;
            if (!o.job->warm) {
                checkCold(o);
                continue;
            }
            const Outcome &fill = *fill_of[o.job->shape];
            if (!o.done)
                fail(o.job->id + " " + o.error, true);
            else if (!o.cache_hit)
                fail(o.job->id + ": warm key missed the cache", false);
            else if (o.cycles != fill.cycles)
                fail(o.job->id + ": warm cycles " +
                         std::to_string(o.cycles) + " != cold " +
                         std::to_string(fill.cycles),
                     true);
            else if (o.crc != fill.crc) {
                ++warm_mismatch;
                fail(o.job->id + ": warm output_crc32 " +
                         std::to_string(o.crc) + " != cold " +
                         std::to_string(fill.crc),
                     false);
            }
        }
        std::fprintf(stderr,
                     "e2ebench: %s block %d%s: %zu jobs in %.3f s "
                     "(host-adjusted %.3f s)\n",
                     kWorkload, i, traced_block ? " (traced)" : "",
                     b.jobs.size(), b.wall_s, b.wall_s * b.factor);
        (traced_block ? traced : plain).push_back(std::move(b));
    }
    const double timed_wall = secondsSince(t_start);
    const double timed_cpu = processCpuSeconds() - cpu0;
    HostSpeed::stopSampling();
    const Clock::time_point t_done = Clock::now();
    const service::ServiceCounters counters = daemon->counters();
    double finish_s = 0.0;
    {
        ScopedSpan span(rec.get(), "service.finish");
        const Clock::time_point t0 = Clock::now();
        daemon->finish();
        finish_s = secondsSince(t0);
    }

    // End-to-end metrics from the untraced blocks, host-adjusted.
    std::vector<double> block_s, latency;
    double jobs = 0.0, wall = 0.0, cold_cycles = 0.0;
    for (const Block &b : plain) {
        block_s.push_back(b.wall_s * b.factor);
        wall += b.wall_s * b.factor;
        for (const Outcome &o : b.outcomes) {
            latency.push_back(o.latency_ms * b.factor);
            jobs += 1.0;
            if (!o.job->warm)
                cold_cycles += static_cast<double>(o.cycles);
        }
    }
    r.e2e.set("setup_s", median(setups));
    r.e2e.set("time_to_result_s", median(block_s));
    r.e2e.set("sim_cycles_per_s", cold_cycles / wall);
    r.e2e.set("jobs_per_s", jobs / wall);
    r.e2e.set("latency_p50_ms", percentile(latency, 0.50));
    r.e2e.set("latency_p99_ms", percentile(latency, 0.99));

    // Per-layer metrics: from the traced blocks in a traced run.
    const std::vector<Block> &src = opts.trace ? traced : plain;
    Metrics &m = r.layer;
    std::vector<double> handle_us, queue_ms, cold_ms, warm_ms, conv_s,
        linear_s, slow_s, nspc, cyc, macs, util, src_wall;
    double hits = 0.0, n_jobs = 0.0;
    for (const Block &b : src) {
        src_wall.push_back(b.wall_s * b.factor);
        double bc = 0, bl = 0, bslow = 0, bcyc = 0, bmacs = 0, butil = 0;
        double bops_s = 0;
        for (const Outcome &o : b.outcomes) {
            handle_us.push_back(o.handle_us);
            queue_ms.push_back(o.queue_wait_ms);
            n_jobs += 1.0;
            hits += o.cache_hit ? 1.0 : 0.0;
            if (o.job->warm) {
                warm_ms.push_back(o.wall_ms);
                continue;
            }
            cold_ms.push_back(o.wall_ms);
            const LayerKind k = shapes[o.job->shape].spec.kind;
            (k == LayerKind::Convolution ? bc : bl) += o.sim_wall_s;
            bops_s += o.sim_wall_s;
            bslow = std::max(bslow, o.sim_wall_s);
            bcyc += static_cast<double>(o.cycles);
            bmacs += static_cast<double>(o.macs);
            butil += o.ms_utilization * static_cast<double>(o.cycles);
        }
        conv_s.push_back(bc);
        linear_s.push_back(bl);
        slow_s.push_back(bslow);
        nspc.push_back(bcyc > 0 ? 1e9 * bops_s / bcyc : 0.0);
        cyc.push_back(bcyc);
        macs.push_back(bmacs);
        util.push_back(bcyc > 0 ? butil / bcyc : 0.0);
    }
    m.set("service.handle_line_us_p50", percentile(handle_us, 0.50));
    m.set("service.handle_line_us_p99", percentile(handle_us, 0.99));
    m.set("service.queue_wait_ms_p50", percentile(queue_ms, 0.50));
    m.set("service.queue_wait_ms_p99", percentile(queue_ms, 0.99));
    m.set("service.cold_run_ms_p50", percentile(cold_ms, 0.50));
    m.set("service.cold_run_ms_p99", percentile(cold_ms, 0.99));
    m.set("service.warm_run_ms_p50", percentile(warm_ms, 0.50));
    m.set("service.cache_hit_ratio", n_jobs > 0 ? hits / n_jobs : 0.0);
    m.set("service.retries", static_cast<double>(counters.retries));
    m.set("service.rejected", static_cast<double>(counters.rejected));
    m.set("service.warm_mismatch", static_cast<double>(warm_mismatch));
    m.set("service.finish_s", finish_s);
    // Engine figures of the cold jobs, per block.
    m.set("engine.maeri.conv_s", median(conv_s));
    m.set("engine.maeri.linear_s", median(linear_s));
    m.set("engine.maeri.ops",
          static_cast<double>(kColdPerWarm * n_shapes));
    m.set("engine.maeri.ns_per_cycle", median(nspc));
    m.set("engine.maeri.slowest_op_s", median(slow_s));
    m.set("sim.maeri.cycles", median(cyc));
    m.set("sim.maeri.macs", median(macs));
    m.set("sim.maeri.ms_utilization", median(util));

    if (opts.trace) {
        m.set("host.trace_overhead_pct",
              100.0 * (median(src_wall) / median(block_s) - 1.0));
        m.set("common.rng_normal_ns", rngNormalNs());
        std::vector<std::vector<index_t>> weight_shapes;
        std::vector<LayerSpec> convs;
        for (const Shape &s : shapes) {
            const GemmDims g = s.spec.gemmView();
            if (s.spec.kind == LayerKind::Convolution) {
                const Conv2dShape &c = s.spec.conv;
                weight_shapes.push_back({c.K, c.cPerGroup(), c.R, c.S});
                convs.push_back(s.spec);
            } else {
                weight_shapes.push_back({g.m, g.k});
            }
        }
        m.set("tensor.prune_s", pruneSeconds(weight_shapes,
                                             modelSparsity(
                                                 ModelId::SqueezeNet),
                                             rec.get()));
        const LoweringTimes lt = loweringSeconds(convs, rec.get());
        m.set("tensor.im2col_s", lt.im2col_s);
        m.set("tensor.filters_to_matrix_s", lt.filters_to_matrix_s);
        m.set("tensor.col2im_s", lt.col2im_s);
        // The keys this run put in the daemon's cache.
        std::vector<std::string> keys;
        const HardwareConfig cfg = serviceConfig();
        const Mapper mapper(cfg.ms_size);
        for (const std::vector<Block> *bs : {&plain, &traced})
            for (const Block &b : *bs)
                for (const Job &j : b.jobs) {
                    const JsonValue req = JsonValue::parse(j.line);
                    const LayerSpec &l = shapes[j.shape].spec;
                    keys.push_back(dse::ResultCache::keyText(
                        cfg, l, mapper.generateTile(l),
                        "seed=" + std::to_string(
                                      req.find("seed")->asUint64()) +
                            " sparsity=0"));
                }
        const CacheTimes ct =
            cacheSeconds(keys, opts.out_dir + "/probe.cache", rec.get());
        m.set("dse.cache_lookup_us", ct.lookup_us);
        m.set("dse.cache_insert_us", ct.insert_us);
        m.set("dse.cache_save_s", ct.save_s);
        m.set("dse.cache_load_s", ct.load_s);
        m.set("dse.cache_entries", ct.entries);

        const std::string trace_path = opts.out_dir + "/" + kWorkload +
            "-seed" + std::to_string(opts.seed) + ".trace.json";
        rec->write(trace_path);
        r.info.set("span_file", trace_path);
        r.info["spans"] = rec->summary();
        // How much of the traced block time its job spans cover.
        r.info.set("span_coverage", rec->coverage("service.block"));
    }

    m.set("host.control_ms", median(HostSpeed::samplesMs(t_start, t_done)));
    m.set("host.speed_factor", HostSpeed::factor(t_start, t_done));
    m.set("host.steal_s", hostStealSeconds() - steal0);
    m.set("host.offcpu_s",
          std::max(0.0, static_cast<double>(kWorkers) * timed_wall -
                            timed_cpu));
    r.e2e.set("peak_rss_mb", peakRssMb());
    JsonValue blocks_j = JsonValue::makeArray(), blocks_adj_j = blocks_j;
    for (const Block &b : plain) {
        blocks_j.append(JsonValue::makeDouble(b.wall_s));
        blocks_adj_j.append(JsonValue::makeDouble(b.wall_s * b.factor));
    }
    r.info["block_seconds"] = std::move(blocks_j);
    r.info["block_adjusted_seconds"] = std::move(blocks_adj_j);
    r.info.set("traced_blocks", static_cast<std::uint64_t>(traced.size()));
    r.info.set("cache_hits", counters.cache_hits);
    return r;
}

} // namespace e2e
