/**
 * @file
 * End-to-end benchmark of whole Table I models and the simulation
 * service (see README.md for the workloads and every metric).
 *
 * Everything here drives the simulator through its public API and times
 * those calls from outside; nothing in src/ is instrumented.
 */

#ifndef E2EBENCH_E2EBENCH_HPP
#define E2EBENCH_E2EBENCH_HPP

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"
#include "controller/layer.hpp"
#include "tensor/tensor.hpp"

namespace e2e {

using stonne::JsonValue;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty. */
double percentile(std::vector<double> v, double p);

/** Median of unsorted samples; 0 if empty. */
double median(std::vector<double> v);

/** CRC-32 of a tensor's float payload. */
std::uint32_t tensorCrc(const stonne::Tensor &t);

/** The seed bank: `--seed n` selects entry n mod kSeedBank. */
constexpr std::uint64_t kSeedBank = 8;

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** One named metric with its unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** Ordered metric set; the catalogue fixes names and units. */
class Metrics
{
  public:
    /** A set holding every metric of a catalogue at 0. */
    explicit Metrics(const std::vector<std::pair<std::string,
                                                 std::string>> &catalogue);

    /** Set a catalogued metric (an unknown name is a program bug). */
    void set(const std::string &name, double value);

    /** JSON object text, every value printed with all its digits. */
    std::string toText() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, Metric> values_;
};

/** End-to-end metrics (the `--trace 0` output). */
const std::vector<std::pair<std::string, std::string>> &endToEndCatalogue();

/** Per-layer metrics (the `--trace 1` output). */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalogue();

// ---------------------------------------------------------------------
// Host diagnostics
// ---------------------------------------------------------------------

/** Aggregate `steal` ticks of /proc/stat, in seconds (0 if unreadable). */
double hostStealSeconds();

/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/** CPU seconds of the whole process. */
double processCpuSeconds();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

/** Kernel id of the calling thread. */
pid_t currentThreadId();

/** Kernel ids of every thread of the process, sorted. */
std::vector<pid_t> processThreadIds();

/**
 * Host-speed calibration. A shared host runs the same single-thread
 * work up to about 2x slower from one stretch of seconds to the next, as
 * its other tenants come and go, and that drift shows as neither steal
 * nor off-CPU time. So a frozen calibration kernel (host.cpp) is timed
 * on the measured threads themselves: every kIntervalMs from a
 * per-thread timer signal, and at every sampleNow(). A section's
 * host-adjusted time is its wall time times factor() over the section:
 * the nominal kernel time over the mean of the fastest nine tenths of
 * the samples in it, raised to kSensitivity. The exponent is there
 * because the simulator slows down more than the kernel does: on the
 * 4-vCPU host the benchmark was tuned on, its log-slowdown was 1.5 to
 * 2.5 times the kernel's (README.md, "Host-speed adjustment"). The
 * result reads as seconds on a host that runs the kernel in kNominalMs.
 */
class HostSpeed
{
  public:
    static constexpr long kIntervalMs = 100;
    static constexpr double kNominalMs = 2.0;
    static constexpr double kSensitivity = 1.75;

    /** Sample each of these threads (at most 4) every kIntervalMs. */
    static void startSampling(const std::vector<pid_t> &threads);

    /** Stop every timer startSampling() armed. */
    static void stopSampling();

    /** Take one sample on the calling thread, which must be the first
     *  thread given to startSampling() if sampling is on. */
    static void sampleNow();

    /** Sample times (ms) that ended within [from, to]. */
    static std::vector<double> samplesMs(Clock::time_point from,
                                         Clock::time_point to);

    /** (kNominalMs / mean of the fastest 90 % of the samples that
     *  ended in [from, to])^kSensitivity; 1 if there are none. */
    static double factor(Clock::time_point from, Clock::time_point to);
};

/** Stops HostSpeed sampling when it goes out of scope. */
struct SamplingGuard {
    SamplingGuard() = default;
    ~SamplingGuard() { HostSpeed::stopSampling(); }
    SamplingGuard(const SamplingGuard &) = delete;
    SamplingGuard &operator=(const SamplingGuard &) = delete;
};

// ---------------------------------------------------------------------
// Spans (the traced run)
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. A span's parent is the innermost open span
 * of track 0, where spans nest by call order; concurrent service
 * requests get tracks of their own. Written out as Chrome trace-event
 * JSON.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string run_id);

    /** Open a span on `track`; returns its id. */
    int begin(const std::string &name, int track = 0);

    /** Close a span opened by begin(). */
    void end(int id);

    /** Self seconds per span name: duration minus the union of its
     *  children. */
    std::map<std::string, double> selfSeconds() const;

    /** Total seconds per span name. */
    std::map<std::string, double> totalSeconds() const;

    /** Share of the named spans' total time their children cover. */
    double coverage(const std::string &name) const;

    /** {name: {total_s, self_s}} over every span. */
    JsonValue summary() const;

    /** Write a Chrome trace-event JSON file (Perfetto-loadable). */
    void write(const std::string &path) const;

  private:
    /** Seconds of one span (0 while open). */
    double seconds(int id) const;

    /** Self seconds of every span, by id. */
    std::vector<double> selfOfEach() const;

    struct Span {
        std::string name;
        int parent = -1;
        int track = 0;
        Clock::time_point start;
        Clock::time_point end;
        bool open = true;
    };

    std::string run_id_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_; //!< open spans of track 0
};

/** Scoped span; a no-op when the recorder is null (tracing off). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name)
        : rec_(rec), id_(rec ? rec->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

// ---------------------------------------------------------------------
// Golden results
// ---------------------------------------------------------------------

/** Expected results of one model inference on one architecture. */
struct ArchGolden {
    std::uint32_t output_crc32 = 0;
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> op_cycles;
    std::map<std::string, std::uint64_t> counters;

    JsonValue toJson() const;
    static ArchGolden fromJson(const JsonValue &j);

    /** Differences against `actual` (empty when they match). */
    std::vector<std::string> diff(const ArchGolden &actual) const;
};

/** The golden file, keyed by workload; a missing file reads as null. */
JsonValue readGolden(const std::string &path);

// ---------------------------------------------------------------------
// Probes: single-module timings and Table V fidelity
// ---------------------------------------------------------------------

/**
 * Timing fidelity: 100 minus the mean |ours - RTL| / RTL (in %) over
 * the Table V rows of the given designs ("MAERI", "SIGMA", "TPU").
 * Also returns the row names used.
 */
double fidelityPct(const std::vector<std::string> &designs,
                   std::vector<std::string> *rows_used = nullptr);

/** Nanoseconds per stonne::Rng::normal draw. */
double rngNormalNs();

/** Seconds pruneFiltersWithJitter takes over the given weight shapes. */
double pruneSeconds(const std::vector<std::vector<stonne::index_t>> &shapes,
                    double sparsity, SpanRecorder *rec);

/** Seconds of each lowering step over a set of convolution layers. */
struct LoweringTimes {
    double im2col_s = 0.0;
    double filters_to_matrix_s = 0.0;
    double col2im_s = 0.0;
};
LoweringTimes loweringSeconds(const std::vector<stonne::LayerSpec> &convs,
                              SpanRecorder *rec);

/** ResultCache API timings on a cache holding the given keys. */
struct CacheTimes {
    double lookup_us = 0.0;
    double insert_us = 0.0;
    double save_s = 0.0;
    double load_s = 0.0;
    double entries = 0.0;
};
CacheTimes cacheSeconds(const std::vector<std::string> &keys,
                        const std::string &path, SpanRecorder *rec);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string golden_path;
    std::string out_dir;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics e2e{endToEndCatalogue()};
    Metrics layer{perLayerCatalogue()};
    /** Run record: metadata and check details (not in the result line). */
    JsonValue info = JsonValue::makeObject();
    std::vector<std::string> errors;
};

bool isModelWorkload(const std::string &name);
bool isServiceWorkload(const std::string &name);

RunResult runModelWorkload(const RunOptions &opts);
RunResult runServiceWorkload(const RunOptions &opts);

/**
 * Verify mode: prove the simulated outputs equal the native reference,
 * then return the golden JSON fragment for one seed-bank entry (model
 * workloads) or for the service's shape set. Throws on any mismatch.
 */
JsonValue verifyModelWorkload(const std::string &workload,
                              std::uint64_t bank_index);
JsonValue verifyServiceWorkload();

} // namespace e2e

#endif // E2EBENCH_E2EBENCH_HPP
