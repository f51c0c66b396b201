/**
 * @file
 * e2ebench entry point: parses the run options, runs one workload and prints
 * the result line (the last line of stdout) in the form
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * with the end-to-end metrics for `--trace 0` and the per-layer metrics
 * for `--trace 1`. A fuller run record (host, build, check details)
 * goes to `<out-dir>/<workload>-seed<n>-trace<t>.json`.
 *
 * `--verify <index>` instead proves the simulated outputs equal the
 * native reference and prints golden-file entry `index` of the workload;
 * `--verify count` prints how many entries it has (run.py --verify
 * collects them all into golden.json).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "checkpoint/archive.hpp"
#include "e2ebench.hpp"
#include "engine/output_module.hpp"

namespace e2e {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint32_t
tensorCrc(const stonne::Tensor &t)
{
    return stonne::crc32(reinterpret_cast<const std::uint8_t *>(t.data()),
                         static_cast<std::size_t>(t.size()) * sizeof(float));
}

Metrics::Metrics(
    const std::vector<std::pair<std::string, std::string>> &catalogue)
{
    for (const auto &[name, unit] : catalogue) {
        order_.push_back(name);
        values_[name] = Metric{0.0, unit};
    }
}

void
Metrics::set(const std::string &name, double value)
{
    const auto it = values_.find(name);
    if (it == values_.end()) {
        std::fprintf(stderr, "e2ebench: uncatalogued metric %s\n",
                     name.c_str());
        std::abort();
    }
    it->second.value = std::isfinite(value) ? value : 0.0;
}

std::string
Metrics::toText() const
{
    // Names and units are catalogue literals: nothing to escape.
    std::string out = "{";
    char num[40];
    for (const std::string &name : order_) {
        const Metric &m = values_.at(name);
        std::snprintf(num, sizeof(num), "%.17g", m.value);
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

const std::vector<std::pair<std::string, std::string>> &
endToEndCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"setup_s", "s"},
        {"time_to_result_s", "s"},
        {"sim_cycles_per_s", "1/s"},
        {"peak_rss_mb", "MB"},
        {"fidelity_pct", "%"},
        {"jobs_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
    };
    return c;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> c = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"frontend.build_model_s", "s"},
            {"frontend.make_input_s", "s"},
            {"frontend.report_s", "s"},
        };
        const char *archs[] = {"tpu", "maeri", "sigma"};
        for (const char *a : archs) {
            const std::string s(a);
            v.push_back({"frontend.run_s." + s, "s"});
            v.push_back({"frontend.native_ops_s." + s, "s"});
        }
        v.push_back({"tensor.prune_s", "s"});
        v.push_back({"common.rng_normal_ns", "ns"});
        for (const char *a : archs) {
            const std::string e = std::string("engine.") + a;
            v.push_back({e + ".conv_s", "s"});
            v.push_back({e + ".linear_s", "s"});
            // Only MAERI offloads max pooling here: MobileNet has none
            // and the sparse controller runs it natively.
            if (std::string(a) == "maeri")
                v.push_back({e + ".maxpool_s", "s"});
            v.push_back({e + ".ops", "count"});
            v.push_back({e + ".ns_per_cycle", "ns"});
            v.push_back({e + ".slowest_op_s", "s"});
        }
        for (const char *a : archs) {
            const std::string s(a);
            v.push_back({"sim." + s + ".cycles", "count"});
            v.push_back({"sim." + s + ".macs", "count"});
            v.push_back({"sim." + s + ".ms_utilization", "ratio"});
            v.push_back({"mem." + s + ".dram_bytes", "bytes"});
            v.push_back({"mem." + s + ".dram_stall_cycles", "count"});
            v.push_back({"mem." + s + ".gb_reads", "count"});
            v.push_back({"network." + s + ".dn_stalls", "count"});
        }
        v.insert(v.end(), {
            {"tensor.im2col_s", "s"},
            {"tensor.filters_to_matrix_s", "s"},
            {"tensor.col2im_s", "s"},
            {"service.handle_line_us_p50", "us"},
            {"service.handle_line_us_p99", "us"},
            {"service.queue_wait_ms_p50", "ms"},
            {"service.queue_wait_ms_p99", "ms"},
            {"service.cold_run_ms_p50", "ms"},
            {"service.cold_run_ms_p99", "ms"},
            {"service.warm_run_ms_p50", "ms"},
            {"service.cache_hit_ratio", "ratio"},
            {"service.retries", "count"},
            {"service.rejected", "count"},
            {"service.warm_mismatch", "count"},
            {"service.finish_s", "s"},
            {"dse.cache_lookup_us", "us"},
            {"dse.cache_insert_us", "us"},
            {"dse.cache_save_s", "s"},
            {"dse.cache_load_s", "s"},
            {"dse.cache_entries", "count"},
            {"host.steal_s", "s"},
            {"host.offcpu_s", "s"},
            {"host.control_ms", "ms"},
            {"host.speed_factor", "ratio"},
            {"host.trace_overhead_pct", "%"},
        });
        return v;
    }();
    return c;
}

} // namespace e2e

namespace {

using namespace e2e;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\n"
                 "usage: e2ebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --golden <file> "
                 "--out-dir <dir> [--commit <id>]\n"
                 "       e2ebench --workload <name> --verify <index|count>\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    try {
        std::size_t pos = 0;
        const unsigned long long n = std::stoull(v, &pos);
        if (pos == v.size() && v[0] != '-')
            return n;
    } catch (const std::exception &) {
    }
    usage(flag + " expects a non-negative integer, got '" + v + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string commit = "unknown";
    std::string verify; // bank index, or "count"; empty for a timed run
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            opts.workload = v;
        else if (flag == "--seed") {
            opts.seed = parseUint(flag, v);
            have_seed = true;
        } else if (flag == "--seconds")
            opts.seconds = static_cast<double>(parseUint(flag, v));
        else if (flag == "--trace")
            opts.trace = parseUint(flag, v) != 0;
        else if (flag == "--golden")
            opts.golden_path = v;
        else if (flag == "--out-dir")
            opts.out_dir = v;
        else if (flag == "--commit")
            commit = v;
        else if (flag == "--verify")
            verify = v;
        else
            usage("unknown flag " + flag);
    }
    const bool model = isModelWorkload(opts.workload);
    if (!model && !isServiceWorkload(opts.workload))
        usage("unknown workload '" + opts.workload + "'");

    try {
        // The number of golden entries: one per seed-bank entry for a
        // model workload, one for the service's shape set.
        const std::uint64_t entries = model ? kSeedBank : 1;
        if (verify == "count") {
            std::cout << entries << std::endl;
            return 0;
        }
        if (!verify.empty()) {
            const std::uint64_t index = parseUint("--verify", verify);
            if (index >= entries)
                usage("--verify expects an index below " +
                      std::to_string(entries) + " or 'count'");
            const JsonValue frag = model
                ? verifyModelWorkload(opts.workload, index)
                : verifyServiceWorkload();
            std::cout << frag.dumpLine() << std::endl;
            return 0;
        }
        if (!have_seed || opts.golden_path.empty() || opts.out_dir.empty())
            usage("--seed, --golden and --out-dir are required");
        if (opts.seconds < 1.0)
            usage("--seconds must be at least 1");
        std::filesystem::create_directories(opts.out_dir);

        RunResult r = model ? runModelWorkload(opts)
                            : runServiceWorkload(opts);

        JsonValue host = JsonValue::makeObject();
        host.set("build_type", E2EBENCH_BUILD_TYPE);
        host.set("compiler", __VERSION__);
        host.set("nproc", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()));
        host.set("commit", commit);
        r.info["host"] = std::move(host);
        r.info.set("workload", opts.workload);
        r.info.set("seed", opts.seed);
        r.info.set("trace", opts.trace);
        r.info.set("correct", r.correct);
        r.info.set("attempted", r.attempted);
        r.info.set("failed", r.failed);
        JsonValue errs = JsonValue::makeArray();
        for (const std::string &e : r.errors)
            errs.append(JsonValue::makeString(e));
        r.info["errors"] = std::move(errs);
        stonne::OutputModule::writeFile(
            opts.out_dir + "/" + opts.workload + "-seed" +
                std::to_string(opts.seed) + "-trace" +
                (opts.trace ? "1" : "0") + ".json",
            "{\"info\": " + r.info.dump() + ",\n\"end_to_end\": " +
                r.e2e.toText() + ",\n\"per_layer\": " + r.layer.toText() +
                "}\n");

        for (std::size_t i = 0; i < r.errors.size() && i < 10; ++i)
            std::fprintf(stderr, "e2ebench: check failed: %s\n",
                         r.errors[i].c_str());

        std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
                  << ", \"attempted\": " << r.attempted
                  << ", \"failed\": " << r.failed << ", \"metrics\": "
                  << (opts.trace ? r.layer : r.e2e).toText() << "}"
                  << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
