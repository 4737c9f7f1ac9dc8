/**
 * @file
 * Tests for the metrics registry (util/metrics) and its integration
 * with the detector: registry counters mirror the report fields
 * exactly, are identical at every jobs count, and the StageTimes
 * cpu-vs-wall accounting survives any merge order.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "util/metrics.hh"

namespace sierra {
namespace {

using util::metrics::HistogramSnapshot;
using util::metrics::Registry;

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero)
{
    Registry r;
    EXPECT_EQ(r.counter("never.written"), 0);
    r.add("a");
    r.add("a", 41);
    r.add("b", 7);
    EXPECT_EQ(r.counter("a"), 42);
    EXPECT_EQ(r.counter("b"), 7);

    auto all = r.counters();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].first, "a"); // name-sorted
    EXPECT_EQ(all[1].first, "b");

    r.clear();
    EXPECT_EQ(r.counter("a"), 0);
    EXPECT_TRUE(r.counters().empty());
}

TEST(MetricsRegistry, HistogramTracksCountSumMinMaxBuckets)
{
    Registry r;
    r.observe("stage.x.seconds", 0.5e-6); // bucket 0 (<= 1us)
    r.observe("stage.x.seconds", 2e-3);   // <= 1e-2
    r.observe("stage.x.seconds", 50.0);   // overflow bucket

    HistogramSnapshot h = r.histogram("stage.x.seconds");
    EXPECT_EQ(h.count, 3);
    EXPECT_DOUBLE_EQ(h.min, 0.5e-6);
    EXPECT_DOUBLE_EQ(h.max, 50.0);
    EXPECT_NEAR(h.sum, 50.0 + 2e-3 + 0.5e-6, 1e-12);
    EXPECT_NEAR(h.mean(), h.sum / 3, 1e-12);
    EXPECT_EQ(h.buckets[0], 1);
    EXPECT_EQ(h.buckets[util::metrics::kNumBuckets - 1], 1);
    int64_t total = 0;
    for (size_t i = 0; i < util::metrics::kNumBuckets; ++i)
        total += h.buckets[i];
    EXPECT_EQ(total, h.count);

    // Never-observed histograms are empty, not errors.
    EXPECT_EQ(r.histogram("absent").count, 0);
}

TEST(MetricsRegistry, SerializationsContainEveryMetric)
{
    Registry r;
    r.add("pta.nodes", 3);
    r.observe("stage.y.seconds", 0.25);
    std::string json = r.toJson().dump();
    EXPECT_NE(json.find("\"pta.nodes\""), std::string::npos);
    EXPECT_NE(json.find("\"stage.y.seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    std::string text = r.toText();
    EXPECT_NE(text.find("pta.nodes"), std::string::npos);
    EXPECT_NE(text.find("stage.y.seconds"), std::string::npos);
}

TEST(Metrics, ThreadCpuClockIsMonotone)
{
    double a = util::metrics::threadCpuSeconds();
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i;
    double b = util::metrics::threadCpuSeconds();
    EXPECT_GE(b, a);
}

/** Analyze one corpus app with a metrics registry attached. */
AppReport
analyzeWithMetrics(const std::string &app_name, Registry &registry,
                   int jobs)
{
    corpus::BuiltApp built = corpus::buildNamedApp(app_name);
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.metrics = &registry;
    options.jobs = jobs;
    return detector.analyze(options);
}

TEST(Metrics, CountersMirrorReportFields)
{
    // ConnectBot exercises both refutation kinds.
    Registry m;
    AppReport report = analyzeWithMetrics("ConnectBot", m, 1);

    EXPECT_EQ(m.counter("race.lockset_refuted"),
              report.locksetRefuted);
    EXPECT_EQ(m.counter("refuted_by.lockset"), report.locksetRefuted);
    EXPECT_EQ(m.counter("race.enablement_refuted"),
              report.enablementRefuted);
    EXPECT_EQ(m.counter("refuted_by.enablement"),
              report.enablementRefuted);
    EXPECT_EQ(m.counter("race.accesses_dropped"),
              report.accessesDropped);
    EXPECT_EQ(m.counter("shbg.closure_pairs"), report.hbEdges);
    EXPECT_EQ(m.counter("pta.actions"), report.actions);

    int64_t symbolic_refuted = 0, racy_pairs = 0, accesses = 0;
    for (const HarnessAnalysis &ha : report.perHarness) {
        symbolic_refuted += ha.refutation.refuted;
        racy_pairs += ha.racyPairCount();
        accesses += ha.accessesTotal;
    }
    EXPECT_EQ(m.counter("symbolic.refuted"), symbolic_refuted);
    EXPECT_EQ(m.counter("refuted_by.symbolic"), symbolic_refuted);
    EXPECT_EQ(m.counter("race.racy_pairs"), racy_pairs);
    EXPECT_EQ(m.counter("race.accesses_extracted"), accesses);

    // The four provenance counters partition the racy pairs.
    EXPECT_EQ(m.counter("refuted_by.none") +
                  m.counter("refuted_by.lockset") +
                  m.counter("refuted_by.enablement") +
                  m.counter("refuted_by.symbolic"),
              racy_pairs);

    // Sanity: the pipeline actually did work.
    EXPECT_GT(m.counter("pta.worklist_iterations"), 0);
    EXPECT_GT(m.counter("pta.instr_visits"), 0);
    EXPECT_GT(m.counter("race.access_pairs_considered"), 0);
    EXPECT_GT(m.counter("symbolic.queries"), 0);
    EXPECT_EQ(m.histogram("stage.cg_pa.seconds").count,
              report.harnesses);
    EXPECT_EQ(m.histogram("stage.refutation.seconds").count,
              report.harnesses);
}

TEST(Metrics, RefutedByCountersPartitionPairsAtEveryJobsCount)
{
    // The refuted_by.* provenance counters must partition the racy
    // pairs — every pair counted exactly once, no matter how the
    // plan-level fan-out interleaves the refuters. ConnectBot
    // exercises lockset + symbolic, Beem adds enablement.
    for (const char *app : {"ConnectBot", "Beem"}) {
        for (int jobs : {1, 2, 4}) {
            Registry m;
            AppReport report = analyzeWithMetrics(app, m, jobs);

            int64_t refuted_pairs = 0, racy_pairs = 0;
            for (const HarnessAnalysis &ha : report.perHarness) {
                racy_pairs += ha.racyPairCount();
                for (const race::RacyPair &p : ha.pairs)
                    refuted_pairs += p.refuted ? 1 : 0;
            }
            EXPECT_EQ(m.counter("refuted_by.lockset") +
                          m.counter("refuted_by.enablement") +
                          m.counter("refuted_by.symbolic"),
                      refuted_pairs)
                << app << " jobs=" << jobs;
            EXPECT_EQ(m.counter("refuted_by.none"),
                      racy_pairs - refuted_pairs)
                << app << " jobs=" << jobs;
            // The counter must agree with the report header's
            // enablement-refuted line at every jobs count.
            EXPECT_EQ(m.counter("race.enablement_refuted"),
                      report.enablementRefuted)
                << app << " jobs=" << jobs;
        }
    }
}

TEST(Metrics, RegistryIsIdenticalAtEveryJobsCount)
{
    Registry serial, parallel;
    analyzeWithMetrics("ConnectBot", serial, 1);
    analyzeWithMetrics("ConnectBot", parallel, 4);

    // Every counter — including the symbolic work counters, which are
    // per-harness-deterministic because refuter shards merge before
    // the registry is filled — must be byte-identical. The one carve-out
    // is mem.peak_rss_bytes: a process-wide measurement, deterministic
    // in neither jobs count nor run (see docs/OBSERVABILITY.md).
    auto dropRss = [](std::vector<std::pair<std::string, int64_t>> cs) {
        std::erase_if(cs, [](const auto &c) {
            return c.first == "mem.peak_rss_bytes";
        });
        return cs;
    };
    EXPECT_EQ(dropRss(serial.counters()), dropRss(parallel.counters()));

    // Histogram counts match (observed durations differ, of course).
    auto sh = serial.histograms();
    auto ph = parallel.histograms();
    ASSERT_EQ(sh.size(), ph.size());
    for (size_t i = 0; i < sh.size(); ++i) {
        EXPECT_EQ(sh[i].first, ph[i].first);
        EXPECT_EQ(sh[i].second.count, ph[i].second.count)
            << sh[i].first;
    }
}

TEST(StageTimesAccounting, TotalCpuEqualsSumOfStageFields)
{
    for (int jobs : {1, 4}) {
        Registry m;
        AppReport report = analyzeWithMetrics("K-9 Mail", m, jobs);
        const StageTimes &t = report.times;
        double stage_sum = 0;
        for (double seconds : t.stage)
            stage_sum += seconds;
        // fp-rounding tolerance only: the merge must not lose or
        // double-count any worker's CPU at any jobs count.
        EXPECT_NEAR(t.totalCpu, stage_sum,
                    1e-9 + 1e-9 * stage_sum)
            << "jobs=" << jobs;
        EXPECT_GT(t.totalCpu, 0.0);
    }
}

TEST(StageTimesAccounting, StageHistogramSumsEqualStageTimes)
{
    // Every stage's histogram -- per-harness stages observed once per
    // task, app-level ones (dataflow) once per analyze() -- sums to the
    // report's slot for that stage, so --metrics and the `time:` line
    // always agree.
    for (int jobs : {1, 4}) {
        Registry m;
        AppReport report = analyzeWithMetrics("NotePad", m, jobs);
        for (const Stage &s : kStages) {
            const std::string name =
                std::string("stage.") + s.name + ".seconds";
            HistogramSnapshot h = m.histogram(name);
            EXPECT_EQ(h.count, s.appLevel ? 1 : report.harnesses)
                << name << " jobs=" << jobs;
            const double slot = report.times[s.id];
            EXPECT_NEAR(h.sum, slot, 1e-12 + 1e-9 * slot)
                << name << " jobs=" << jobs;
        }
        EXPECT_GT(report.times[StageId::Dataflow], 0.0);
        EXPECT_NEAR(m.histogram("harness.cpu.seconds").sum +
                        report.times[StageId::Dataflow],
                    report.times.totalCpu,
                    1e-12 + 1e-9 * report.times.totalCpu);
    }
}

TEST(StageTimesAccounting, AddIsMergeOrderInvariant)
{
    StageTimes a, b, c;
    a[StageId::CgPa] = 0.125; a[StageId::Refutation] = 0.5;
    a.totalCpu = 0.625;
    b[StageId::Hbg] = 0.25; b[StageId::Racy] = 0.0625; b.totalCpu = 0.3125;
    c[StageId::Lockset] = 1.0; c[StageId::Escape] = 0.03125;
    c.totalCpu = 1.03125;

    StageTimes abc;
    abc.add(a); abc.add(b); abc.add(c);
    StageTimes cba;
    cba.add(c); cba.add(b); cba.add(a);
    EXPECT_DOUBLE_EQ(abc.totalCpu, cba.totalCpu);
    EXPECT_DOUBLE_EQ(abc[StageId::CgPa], cba[StageId::CgPa]);
    EXPECT_DOUBLE_EQ(abc[StageId::Refutation], cba[StageId::Refutation]);
    // `total` (wall) is a whole-run property, never summed by add().
    EXPECT_DOUBLE_EQ(abc.total, 0.0);
}

TEST(StageTimesAccounting, RefutationStatsMergeSumsWorkerCpu)
{
    symbolic::RefutationStats a, b;
    a.refuted = 2; a.cpuSeconds = 0.5;
    b.survived = 3; b.cpuSeconds = 0.25;
    a.merge(b);
    EXPECT_EQ(a.refuted, 2);
    EXPECT_EQ(a.survived, 3);
    EXPECT_DOUBLE_EQ(a.cpuSeconds, 0.75);
}

} // namespace
} // namespace sierra
