/**
 * @file
 * The golden file: per workload and seed-bank entry, the output CRC32,
 * total and per-operation simulated cycles and every StatsRegistry
 * counter of each architecture (model workloads), and the simulated
 * cycles of every request shape (service_mix). Written only by verify
 * mode, after the simulated outputs were proven equal to the native
 * reference.
 */

#include <fstream>
#include <sstream>

#include "e2ebench.hpp"

namespace e2e {

JsonValue
ArchGolden::toJson() const
{
    JsonValue j = JsonValue::makeObject();
    j.set("output_crc32", static_cast<std::uint64_t>(output_crc32));
    j.set("cycles", cycles);
    JsonValue ops = JsonValue::makeArray();
    for (const std::uint64_t c : op_cycles)
        ops.append(JsonValue::makeUint(c));
    j["op_cycles"] = std::move(ops);
    JsonValue ctr = JsonValue::makeObject();
    for (const auto &[name, v] : counters)
        ctr.set(name, v);
    j["counters"] = std::move(ctr);
    return j;
}

ArchGolden
ArchGolden::fromJson(const JsonValue &j)
{
    ArchGolden g;
    g.output_crc32 =
        static_cast<std::uint32_t>(j.find("output_crc32")->asUint64());
    g.cycles = j.find("cycles")->asUint64();
    for (const JsonValue &c : j.find("op_cycles")->items())
        g.op_cycles.push_back(c.asUint64());
    for (const auto &[name, v] : j.find("counters")->members())
        g.counters[name] = v.asUint64();
    return g;
}

std::vector<std::string>
ArchGolden::diff(const ArchGolden &actual) const
{
    std::vector<std::string> out;
    auto num = [](std::uint64_t v) { return std::to_string(v); };
    if (actual.output_crc32 != output_crc32)
        out.push_back("output_crc32 " + num(actual.output_crc32) +
                      " != golden " + num(output_crc32));
    if (actual.cycles != cycles)
        out.push_back("cycles " + num(actual.cycles) + " != golden " +
                      num(cycles));
    if (actual.op_cycles.size() != op_cycles.size()) {
        out.push_back("ops " + num(actual.op_cycles.size()) +
                      " != golden " + num(op_cycles.size()));
    } else {
        for (std::size_t i = 0; i < op_cycles.size(); ++i)
            if (actual.op_cycles[i] != op_cycles[i])
                out.push_back("op " + num(i) + " cycles " +
                              num(actual.op_cycles[i]) + " != golden " +
                              num(op_cycles[i]));
    }
    if (actual.counters != counters) {
        for (const auto &[name, v] : counters) {
            const auto it = actual.counters.find(name);
            if (it == actual.counters.end())
                out.push_back("counter " + name + " missing");
            else if (it->second != v)
                out.push_back("counter " + name + " " + num(it->second) +
                              " != golden " + num(v));
        }
        for (const auto &[name, v] : actual.counters)
            if (!counters.count(name))
                out.push_back("counter " + name + " not in golden");
    }
    return out;
}

JsonValue
readGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return JsonValue();
    std::ostringstream text;
    text << in.rdbuf();
    return JsonValue::parse(text.str());
}

} // namespace e2e
