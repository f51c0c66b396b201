/**
 * @file
 * In-memory host-time spans of the traced run, written as Chrome
 * trace-event JSON. The simulator's own traces use pid 0; the host
 * spans use their own process so both load side by side in Perfetto.
 */

#include <algorithm>

#include "e2ebench.hpp"
#include "engine/output_module.hpp"

namespace e2e {

namespace {

/** Process id of the host-time track in the trace file. */
constexpr std::int64_t kHostPid = 1000;

} // namespace

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now())
{
}

int
SpanRecorder::begin(const std::string &name, int track)
{
    Span s;
    s.name = name;
    s.track = track;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    if (track == 0)
        stack_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    Span &s = spans_.at(static_cast<std::size_t>(id));
    s.end = Clock::now();
    s.open = false;
    if (s.track == 0) {
        const auto it = std::find(stack_.begin(), stack_.end(), id);
        if (it != stack_.end())
            stack_.erase(it);
    }
}

double
SpanRecorder::seconds(int id) const
{
    const Span &s = spans_.at(static_cast<std::size_t>(id));
    return s.open ? 0.0
                  : std::chrono::duration<double>(s.end - s.start).count();
}

std::map<std::string, double>
SpanRecorder::totalSeconds() const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += seconds(static_cast<int>(i));
    return out;
}

std::vector<double>
SpanRecorder::selfOfEach() const
{
    // Children of one parent run sequentially on track 0 but may
    // overlap on other tracks (concurrent service requests), so the
    // covered part of the parent is the union of its children.
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0 && !spans_[i].open)
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
    std::vector<double> out(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.open)
            continue;
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const int c : children[i])
            iv.push_back({std::max(spans_[c].start, s.start),
                          std::min(spans_[c].end, s.end)});
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point lo = std::max(a, reach);
            if (b > lo) {
                covered += std::chrono::duration<double>(b - lo).count();
                reach = b;
            }
        }
        out[i] = seconds(static_cast<int>(i)) - covered;
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    const std::vector<double> self = selfOfEach();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

double
SpanRecorder::coverage(const std::string &name) const
{
    const double total = totalSeconds().at(name);
    return total > 0.0 ? 1.0 - selfSeconds().at(name) / total : 0.0;
}

JsonValue
SpanRecorder::summary() const
{
    const std::map<std::string, double> total = totalSeconds();
    JsonValue out = JsonValue::makeObject();
    for (const auto &[name, self] : selfSeconds()) {
        JsonValue j = JsonValue::makeObject();
        j.set("total_s", total.at(name));
        j.set("self_s", self);
        out[name] = std::move(j);
    }
    return out;
}

void
SpanRecorder::write(const std::string &path) const
{
    const std::vector<double> self = selfOfEach();
    JsonValue events = JsonValue::makeArray();
    JsonValue meta = JsonValue::makeObject();
    meta.set("ph", "M");
    meta.set("pid", kHostPid);
    meta.set("name", "process_name");
    JsonValue margs = JsonValue::makeObject();
    margs.set("name", "host: e2ebench " + run_id_);
    meta["args"] = std::move(margs);
    events.append(std::move(meta));

    auto us = [this](Clock::time_point t) {
        return static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
                .count());
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.open)
            continue;
        JsonValue e = JsonValue::makeObject();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", kHostPid);
        e.set("tid", static_cast<std::int64_t>(s.track));
        e.set("ts", us(s.start));
        e.set("dur", us(s.end) - us(s.start));
        JsonValue args = JsonValue::makeObject();
        args.set("id", static_cast<std::int64_t>(i));
        args.set("parent", static_cast<std::int64_t>(s.parent));
        args.set("run", run_id_);
        args.set("self_us", static_cast<std::int64_t>(1e6 * self[i]));
        e["args"] = std::move(args);
        events.append(std::move(e));
    }
    JsonValue root = JsonValue::makeObject();
    root["traceEvents"] = std::move(events);
    root.set("displayTimeUnit", "ms");
    stonne::OutputModule::writeFile(path, root.dump() + "\n");
}

} // namespace e2e
