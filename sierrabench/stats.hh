/**
 * @file
 * The benchmark's measurement helpers: the percentile rule, the
 * closed-loop request loop and failure accounting. They know nothing
 * about SIERRA, so selftest.cc can pin them with synthetic requests.
 */

#ifndef SIERRABENCH_STATS_HH
#define SIERRABENCH_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sierrabench {

/** Fewest samples a reported percentile must leave above it. */
inline constexpr int kMinSamplesBeyond = 10;

/**
 * Nearest-rank percentile of `samples` (q in (0, 100]): the smallest
 * sample with at least q% of the samples at or below it. Failed
 * requests enter as +infinity, so they count as missing any limit.
 * Returns NaN on an empty vector.
 */
double percentile(std::vector<double> samples, double q);

/** Samples strictly above the nearest-rank q-th percentile position. */
int samplesBeyond(int n, double q);

/** Smallest sample count whose q-th percentile has kMinSamplesBeyond
 *  samples beyond it (100 for p90, 20 for p50). */
int minSamplesFor(double q);

/** Outcome of one request as the client sees it. */
struct Outcome {
    bool ok{false};
    std::string kind; //!< request class ("" = the only class)
    int group{-1};    //!< requests doing the same work share a group
};

/** The requests of one group, each statistic its q-th percentile. */
struct GroupStat {
    int group{-1};
    std::string kind;
    int64_t requests{0};
    double latencyMs{0}; //!< +infinity when that request failed
    double cpuMs{0};
};

/** Latency samples and failure counts of one closed-loop phase. */
struct LoopResult {
    //! per request, in the order sent
    std::vector<double> latencyMs; //!< send call to return
    std::vector<double> cpuMs;     //!< process CPU during the send call
    std::vector<double> sentS;     //!< send time since the loop began
    std::vector<Outcome> outcomes;
    int64_t attempted{0};
    int64_t failed{0};

    /** Latencies of one request class (all when `kind` is empty);
     *  failed requests enter as +infinity. */
    std::vector<double> samples(const std::string &kind = "") const;
    double failedFrac() const;

    /** The first `n` requests as a loop result of their own. */
    LoopResult prefix(size_t n) const;

    /** Per group, in group order: the q-th percentile of the latencies
     *  (failed requests as +infinity) and of the CPU of its requests. */
    std::vector<GroupStat> groups(double q) const;
};

/**
 * Closed loop with one client: `send(i)` is request i, timed from call
 * to return; `check(i)` then judges the returned report and is not
 * part of the latency. The next request is sent only after both
 * returned. Runs until `seconds` elapsed and at least `min_requests`
 * were made, but never past `hard_seconds`.
 */
LoopResult runClosedLoop(double seconds, int64_t min_requests,
                         double hard_seconds,
                         const std::function<void(int64_t)> &send,
                         const std::function<Outcome(int64_t)> &check);

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** What a run prints: its verdict, request counts and metrics. */
struct RunResult {
    bool correct{true};
    int64_t attempted{0};
    int64_t failed{0};
    std::vector<Metric> metrics;
    std::map<std::string, std::string> meta; //!< name -> JSON value
    std::vector<std::string> problems;

    void
    add(const std::string &n, double v, const std::string &u)
    {
        metrics.push_back({n, v, u});
    }
    void fail(const std::string &why);

    /** Count a closed-loop phase's requests into the run. A single
     *  failed request makes the run incorrect. */
    void addPhase(const std::string &phase, const LoopResult &loop);
};

/** The result as the last stdout line: exactly the keys `correct`,
 *  `attempted`, `failed` and `metrics`. */
std::string resultLine(const RunResult &r);

/** Process user+system CPU seconds so far. */
double processCpuSeconds();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

/** Median of a non-empty vector (mean of the middle two when even). */
double median(std::vector<double> values);

/** FNV-1a 64-bit digest, hex-printed. */
uint64_t fnv1a(const std::string &bytes, uint64_t seed = 14695981039346656037ull);
std::string hex64(uint64_t v);

/** Render a double for the JSON result with all its digits; non-finite
 *  values (a percentile over failed requests) render as 1e9. */
std::string jsonNumber(double v);

/** Quote and escape a string for JSON. */
std::string jsonString(const std::string &s);

} // namespace sierrabench

#endif // SIERRABENCH_STATS_HH
