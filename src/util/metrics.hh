/**
 * @file
 * A thread-safe metrics registry: named monotonic counters plus
 * duration histograms, filled by the pipeline when the caller opts in
 * (`SierraOptions::metrics`, `sierra_cli analyze --metrics`). The
 * metric name catalog — every name, its unit, and the stage that owns
 * it — lives in docs/OBSERVABILITY.md; tests assert the counters stay
 * consistent with the report fields they mirror.
 *
 * The registry itself is mutex-protected and meant for merge-point
 * granularity (per harness, per stage); hot loops accumulate plain
 * struct counters (PtaStats, RacyStats, ExecutorStats) that are folded
 * in deterministically afterwards, so enabling metrics never perturbs
 * the parallel engine or its jobs-determinism.
 */

#ifndef SIERRA_UTIL_METRICS_HH
#define SIERRA_UTIL_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "json.hh"

namespace sierra::util::metrics {

/** Seconds of CPU time consumed by the calling thread (not wall
 *  time): the primitive behind per-worker CPU attribution in
 *  StageTimes. Falls back to 0 on platforms without a thread clock. */
double threadCpuSeconds();

/** Peak resident set size of this process in bytes (getrusage), the
 *  primitive behind the `mem.peak_rss_bytes` counter. Returns 0 on
 *  platforms without getrusage. */
int64_t peakRssBytes();

/** Decimal duration-bucket boundaries (seconds): 1us .. 10s. An
 *  observation lands in the first bucket whose boundary it does not
 *  exceed; larger values land in the overflow bucket. */
inline constexpr double kBucketBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                           1e-2, 1e-1, 1.0,  10.0};
inline constexpr size_t kNumBuckets =
    sizeof(kBucketBounds) / sizeof(kBucketBounds[0]) + 1;

/** Point-in-time view of one histogram. */
struct HistogramSnapshot {
    int64_t count{0};
    double sum{0};
    double min{0};
    double max{0};
    int64_t buckets[kNumBuckets] = {};

    double mean() const { return count ? sum / count : 0.0; }
};

/**
 * Named counters and histograms. All methods are thread-safe; reads
 * return snapshots. Counter reads of never-written names return 0, so
 * report code never has to guard lookups.
 */
class Registry
{
  public:
    /** Add `delta` to a monotonic counter (creates it at 0). */
    void add(const std::string &name, int64_t delta = 1);

    /** Record one observation (seconds for `*.seconds` metrics). */
    void observe(const std::string &name, double value);

    int64_t counter(const std::string &name) const;
    HistogramSnapshot histogram(const std::string &name) const;

    /** All counters, name-sorted. */
    std::vector<std::pair<std::string, int64_t>> counters() const;
    /** All histograms, name-sorted. */
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;

    void clear();

    /**
     * `{"counters": {...}, "histograms": {name: {count, sum, min,
     * max, mean}}}` — the object embedded under `"metrics"` in the
     * CLI's `--json` report.
     */
    Json toJson() const;

    /** Human-readable block for the text report (name-sorted). */
    std::string toText() const;

  private:
    mutable std::mutex _mutex;
    std::map<std::string, int64_t> _counters;
    std::map<std::string, HistogramSnapshot> _histograms;
};

} // namespace sierra::util::metrics

#endif // SIERRA_UTIL_METRICS_HH
