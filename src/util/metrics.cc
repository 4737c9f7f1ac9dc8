#include "metrics.hh"

#include <cstdio>
#include <ctime>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sierra::util::metrics {

double
threadCpuSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    struct timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return 0.0;
}

int64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<int64_t>(ru.ru_maxrss); // already bytes
#else
        return static_cast<int64_t>(ru.ru_maxrss) * 1024; // KiB
#endif
    }
#endif
    return 0;
}

void
Registry::add(const std::string &name, int64_t delta)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _counters[name] += delta;
}

void
Registry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    HistogramSnapshot &h = _histograms[name];
    if (h.count == 0 || value < h.min)
        h.min = value;
    if (h.count == 0 || value > h.max)
        h.max = value;
    ++h.count;
    h.sum += value;
    size_t bucket = kNumBuckets - 1;
    for (size_t i = 0; i < kNumBuckets - 1; ++i) {
        if (value <= kBucketBounds[i]) {
            bucket = i;
            break;
        }
    }
    ++h.buckets[bucket];
}

int64_t
Registry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second;
}

HistogramSnapshot
Registry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _histograms.find(name);
    return it == _histograms.end() ? HistogramSnapshot{} : it->second;
}

std::vector<std::pair<std::string, int64_t>>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return {_counters.begin(), _counters.end()};
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histograms() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return {_histograms.begin(), _histograms.end()};
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _counters.clear();
    _histograms.clear();
}

Json
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json counters = Json::object();
    for (const auto &[name, value] : _counters)
        counters.set(name, Json::integer(value));
    Json histograms = Json::object();
    for (const auto &[name, h] : _histograms) {
        Json hist = Json::object();
        hist.set("count", Json::integer(h.count));
        hist.set("sum", Json::real(h.sum));
        hist.set("min", Json::real(h.min));
        hist.set("max", Json::real(h.max));
        hist.set("mean", Json::real(h.mean()));
        histograms.set(name, std::move(hist));
    }
    Json out = Json::object();
    out.set("counters", std::move(counters));
    out.set("histograms", std::move(histograms));
    return out;
}

std::string
Registry::toText() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::ostringstream os;
    os << "metrics:\n";
    for (const auto &[name, value] : _counters)
        os << "  " << name << ": " << value << "\n";
    char buf[160];
    for (const auto &[name, h] : _histograms) {
        std::snprintf(buf, sizeof(buf),
                      "  %s: count %lld  sum %.6fs  mean %.6fs  "
                      "min %.6fs  max %.6fs\n",
                      name.c_str(), static_cast<long long>(h.count),
                      h.sum, h.mean(), h.min, h.max);
        os << buf;
    }
    return os.str();
}

} // namespace sierra::util::metrics
