#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include <sys/resource.h>

namespace sierrabench {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// Nearest-rank position (0-based) of the q-th percentile among n.
int
rankIndex(int n, double q)
{
    int rank = static_cast<int>(std::ceil(q / 100.0 * n - 1e-9));
    return std::clamp(rank, 1, n) - 1;
}

} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const int idx = rankIndex(static_cast<int>(samples.size()), q);
    std::nth_element(samples.begin(), samples.begin() + idx,
                     samples.end());
    return samples[idx];
}

int
samplesBeyond(int n, double q)
{
    return n <= 0 ? 0 : n - 1 - rankIndex(n, q);
}

int
minSamplesFor(double q)
{
    int n = 1;
    while (samplesBeyond(n, q) < kMinSamplesBeyond)
        ++n;
    return n;
}

std::vector<double>
LoopResult::samples(const std::string &kind) const
{
    std::vector<double> out;
    for (size_t i = 0; i < latencyMs.size(); ++i) {
        if (!kind.empty() && outcomes[i].kind != kind)
            continue;
        out.push_back(outcomes[i].ok
                          ? latencyMs[i]
                          : std::numeric_limits<double>::infinity());
    }
    return out;
}

double
LoopResult::failedFrac() const
{
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
}

LoopResult
LoopResult::prefix(size_t n) const
{
    LoopResult r;
    r.latencyMs.assign(latencyMs.begin(), latencyMs.begin() + n);
    r.cpuMs.assign(cpuMs.begin(), cpuMs.begin() + n);
    r.sentS.assign(sentS.begin(), sentS.begin() + n);
    r.outcomes.assign(outcomes.begin(), outcomes.begin() + n);
    r.attempted = static_cast<int64_t>(n);
    for (const Outcome &o : r.outcomes)
        r.failed += o.ok ? 0 : 1;
    return r;
}

std::vector<GroupStat>
LoopResult::groups(double q) const
{
    std::map<int, std::vector<size_t>> members;
    for (size_t i = 0; i < outcomes.size(); ++i)
        members[outcomes[i].group].push_back(i);
    const std::vector<double> lat = samples();
    std::vector<GroupStat> out;
    for (const auto &[group, idx] : members) {
        std::vector<double> l, c;
        for (size_t i : idx) {
            l.push_back(lat[i]);
            c.push_back(cpuMs[i]);
        }
        out.push_back({group, outcomes[idx[0]].kind,
                       static_cast<int64_t>(idx.size()), percentile(l, q),
                       percentile(c, q)});
    }
    return out;
}

LoopResult
runClosedLoop(double seconds, int64_t min_requests, double hard_seconds,
              const std::function<void(int64_t)> &send,
              const std::function<Outcome(int64_t)> &check)
{
    LoopResult r;
    const Clock::time_point begin = Clock::now();
    for (int64_t i = 0;; ++i) {
        const double elapsed = msBetween(begin, Clock::now()) / 1e3;
        if (elapsed >= hard_seconds)
            break;
        if (elapsed >= seconds && i >= min_requests)
            break;
        const double cpu = processCpuSeconds();
        const Clock::time_point sent = Clock::now();
        send(i);
        const Clock::time_point returned = Clock::now();
        r.cpuMs.push_back(1e3 * (processCpuSeconds() - cpu));
        Outcome outcome = check(i);
        r.sentS.push_back(elapsed);
        r.latencyMs.push_back(msBetween(sent, returned));
        ++r.attempted;
        if (!outcome.ok)
            ++r.failed;
        r.outcomes.push_back(std::move(outcome));
    }
    return r;
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

void
RunResult::addPhase(const std::string &phase, const LoopResult &loop)
{
    attempted += loop.attempted;
    failed += loop.failed;
    if (loop.failed > 0)
        fail(std::to_string(loop.failed) + " of " +
             std::to_string(loop.attempted) + " requests failed in the " +
             phase + " phase");
}

std::string
resultLine(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
               "}";
    }
    return out + "}}";
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t
fnv1a(const std::string &bytes, uint64_t seed)
{
    uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 1e9;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace sierrabench
