/**
 * @file
 * Host diagnostics, so a slow host can be told apart from a slow change:
 * /proc/stat steal time, thread and process CPU time and peak RSS; and
 * the host-speed calibration every timed figure is adjusted by.
 */

#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2ebench.hpp"

namespace e2e {

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double
hostStealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return 0.0;
    // cpu user nice system idle iowait irq softirq steal ...
    std::istringstream fields(line.substr(4));
    unsigned long long v = 0;
    for (int i = 0; i < 8; ++i)
        if (!(fields >> v))
            return 0.0;
    const long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(v) / static_cast<double>(hz) : 0.0;
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------

namespace {

/**
 * The calibration kernel: a toy cycle-level pipeline of processing
 * elements of three kinds behind a virtual step(), joined by ring-buffer
 * links, with a data-dependent branch per element and a lookup into a
 * 1 MiB table per cycle. It stresses the host the way the simulator
 * does (indirect calls, short queues, branches, L2-sized reads), and it
 * never allocates, so it may run inside a signal handler. The code is
 * frozen: its work is the same in every build of the simulator.
 */
struct Link {
    float buf[8] = {};
    unsigned head = 0;
    unsigned tail = 0;

    bool empty() const { return head == tail; }
    bool full() const { return tail - head == 8; }
    void push(float v) { buf[tail++ & 7] = v; }
    float pop() { return buf[head++ & 7]; }
};

struct Element {
    float weight = 0.0f;
    float acc = 0.0f;
    virtual ~Element() = default;
    virtual void step(Link &in, Link &out, float table_value) = 0;
};

struct MacElement final : Element {
    void
    step(Link &in, Link &out, float t) override
    {
        if (in.empty() || out.full())
            return;
        const float a = in.pop();
        acc += a * weight + t;
        out.push(a);
    }
};

struct MaxElement final : Element {
    void
    step(Link &in, Link &out, float t) override
    {
        if (in.empty() || out.full())
            return;
        const float a = in.pop();
        if (a > acc)
            acc = a;
        else
            acc -= t * 1e-6f;
        out.push(acc);
    }
};

struct ForwardElement final : Element {
    void
    step(Link &in, Link &out, float t) override
    {
        if (!in.empty() && !out.full())
            out.push(in.pop() * weight + t * 1e-3f);
    }
};

constexpr int kElements = 96;
constexpr int kCycles = 220;
constexpr std::size_t kTableWords = (1u << 20) / sizeof(float);

/** One thread's kernel state; state is never shared between threads. */
struct Pipeline {
    MacElement macs[kElements / 3];
    MaxElement maxes[kElements / 3];
    ForwardElement forwards[kElements / 3];
    Element *order[kElements] = {};
    Link links[kElements + 1];

    Pipeline()
    {
        for (int i = 0; i < kElements / 3; ++i) {
            order[3 * i] = &macs[i];
            order[3 * i + 1] = &forwards[i];
            order[3 * i + 2] = &maxes[i];
        }
        for (int i = 0; i < kElements; ++i)
            order[i]->weight = 0.5f + 0.01f * static_cast<float>(i % 17);
    }

    /** A fixed amount of work: refill the input and step every cycle. */
    float
    run(const float *table)
    {
        for (Link &l : links)
            l.head = l.tail = 0;
        std::uint32_t x = 0x9E3779B9u;
        float sink = 0.0f;
        for (int round = 0; round < 20; ++round) {
            for (int k = 0; k < 8; ++k)
                links[0].push(static_cast<float>(round * 8 + k));
            for (int cycle = 0; cycle < kCycles; ++cycle) {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                const float t = table[x % kTableWords];
                for (int e = kElements - 1; e >= 0; --e)
                    order[e]->step(links[e], links[e + 1], t);
                while (!links[kElements].empty())
                    sink += links[kElements].pop();
            }
        }
        for (const Element *e : order)
            sink += e->acc;
        return sink;
    }
};

/** Threads sampled at once: the model thread, or the service workers. */
constexpr int kSlots = 4;
Pipeline g_pipelines[kSlots];
float g_table[kTableWords];

struct Sample {
    std::int64_t end_ns; //!< steady clock at the sample's end
    float ms;
};
constexpr std::size_t kMaxSamples = 1u << 16;
Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_sample_count{0};
std::vector<timer_t> g_timers;
std::mutex g_timers_mu;

std::int64_t
steadyNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/** Time one kernel run on slot `slot`'s state and store the sample. */
void
sample(int slot)
{
    const Clock::time_point t0 = Clock::now();
    volatile float sink = g_pipelines[slot].run(g_table);
    (void)sink;
    const Clock::time_point t1 = Clock::now();
    const std::size_t i = g_sample_count.fetch_add(1);
    if (i < kMaxSamples)
        g_samples[i] = {steadyNs(t1),
                        static_cast<float>(
                            std::chrono::duration<double, std::milli>(t1 - t0)
                                .count())};
}

int
calibrationSignal()
{
    return SIGRTMIN;
}

void
onTimer(int, siginfo_t *info, void *)
{
    const int saved_errno = errno;
    sample(info->si_value.sival_int);
    errno = saved_errno;
}

void
installHandler()
{
    static const bool installed = [] {
        for (std::size_t i = 0; i < kTableWords; ++i)
            g_table[i] = static_cast<float>((i * 2654435761u) >> 20);
        struct sigaction sa {};
        sa.sa_sigaction = onTimer;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(calibrationSignal(), &sa, nullptr) != 0)
            throw std::runtime_error("cannot install the calibration "
                                     "signal handler");
        return true;
    }();
    (void)installed;
}

} // namespace

pid_t
currentThreadId()
{
    return static_cast<pid_t>(syscall(SYS_gettid));
}

std::vector<pid_t>
processThreadIds()
{
    std::vector<pid_t> ids;
    for (const auto &e : std::filesystem::directory_iterator("/proc/self/task"))
        ids.push_back(static_cast<pid_t>(std::stol(e.path().filename())));
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
HostSpeed::startSampling(const std::vector<pid_t> &threads)
{
    installHandler();
    if (threads.size() > static_cast<std::size_t>(kSlots))
        throw std::runtime_error("too many threads to calibrate");
    std::lock_guard<std::mutex> lock(g_timers_mu);
    for (std::size_t slot = 0; slot < threads.size(); ++slot) {
        sigevent sev{};
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = calibrationSignal();
        sev.sigev_value.sival_int = static_cast<int>(slot);
        sev._sigev_un._tid = threads[slot];
        timer_t id{};
        if (timer_create(CLOCK_MONOTONIC, &sev, &id) != 0)
            throw std::runtime_error("timer_create failed");
        itimerspec its{};
        its.it_interval.tv_nsec = kIntervalMs * 1000000L;
        its.it_value = its.it_interval;
        g_timers.push_back(id);
        if (timer_settime(id, 0, &its, nullptr) != 0)
            throw std::runtime_error("timer_settime failed");
    }
}

void
HostSpeed::stopSampling()
{
    std::lock_guard<std::mutex> lock(g_timers_mu);
    for (timer_t id : g_timers)
        timer_delete(id);
    g_timers.clear();
}

void
HostSpeed::sampleNow()
{
    installHandler();
    // Slot 0 belongs to the calling thread; keep its timer signal from
    // running the same kernel state underneath this sample.
    sigset_t block, old;
    sigemptyset(&block);
    sigaddset(&block, calibrationSignal());
    pthread_sigmask(SIG_BLOCK, &block, &old);
    sample(0);
    pthread_sigmask(SIG_SETMASK, &old, nullptr);
}

std::vector<double>
HostSpeed::samplesMs(Clock::time_point from, Clock::time_point to)
{
    const std::int64_t a = steadyNs(from), b = steadyNs(to);
    const std::size_t n = std::min(g_sample_count.load(), kMaxSamples);
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i)
        if (g_samples[i].end_ns >= a && g_samples[i].end_ns <= b)
            out.push_back(g_samples[i].ms);
    return out;
}

double
HostSpeed::factor(Clock::time_point from, Clock::time_point to)
{
    std::vector<double> ms = samplesMs(from, to);
    if (ms.empty())
        return 1.0;
    // The slowest tenth are samples that a descheduling or an interrupt
    // landed in; they say little about the speed the simulator ran at.
    std::sort(ms.begin(), ms.end());
    const std::size_t kept = std::max<std::size_t>(1, ms.size() * 9 / 10);
    double sum = 0.0;
    for (std::size_t i = 0; i < kept; ++i)
        sum += ms[i];
    return std::pow(kNominalMs * static_cast<double>(kept) / sum,
                    kSensitivity);
}

} // namespace e2e
