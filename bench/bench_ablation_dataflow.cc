/**
 * @file
 * Ablation: the intraprocedural dataflow stage.
 *
 * Two configurations over the 20-app corpus:
 *   - dataflow on (default): the purity/field-effect prefilter drops
 *     access pairs whose methods cannot conflict, and the refuter's
 *     backward execution concretizes registers and prunes infeasible
 *     branches with per-method constant facts;
 *   - dataflow off: the PR-1 pipeline (no prefilter, opaque
 *     arithmetic).
 *
 * The interprocedural IFDS stage is disabled in BOTH configurations:
 * its summaries subsume the intraprocedural constant facts, so
 * leaving it on would mask the stage under ablation (see
 * bench_ablation_ifds for that stage's own on/off comparison).
 *
 * The stage must be report-preserving on ground truth (identical
 * misses) while doing strictly less refutation work: fewer surviving
 * reports or fewer symbolic states expanded.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: dataflow prefilter + constant facts");

    struct Config {
        const char *name;
        bool dataflow;
    };
    const Config configs[] = {
        {"dataflow on", true},
        {"dataflow off", false},
    };

    struct Totals {
        int racy{0};
        int refuted{0};
        int surviving{0};
        int missed{0};
        int64_t statesExpanded{0};
        int64_t constPruned{0};
        double refutationMs{0};
        double dataflowMs{0};
    };
    Totals totals[2];

    std::printf("%-14s %8s %8s %10s %10s %8s %12s %12s\n", "config",
                "racy", "refuted", "surviving", "missed", "states",
                "dataflow ms", "refute ms");
    for (int c = 0; c < 2; ++c) {
        Totals &t = totals[c];
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.effectPrefilter = configs[c].dataflow;
            opts.refuter.exec.useConstFacts = configs[c].dataflow;
            opts.ifds = false;
            AppReport report = detector.analyze(opts);
            t.racy += report.racyPairs;
            t.refuted += report.racyPairs - report.afterRefutation;
            t.surviving += report.afterRefutation;
            t.missed +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            for (const auto &ha : report.perHarness) {
                t.statesExpanded += ha.refutation.exec.statesExpanded;
                t.constPruned += ha.refutation.exec.constPruned;
            }
            t.refutationMs += report.times[StageId::Refutation] * 1e3;
            t.dataflowMs += report.times[StageId::Dataflow] * 1e3;
        }
        std::printf("%-14s %8d %8d %10d %10d %8lld %12.2f %12.2f\n",
                    configs[c].name, t.racy, t.refuted, t.surviving,
                    t.missed, static_cast<long long>(t.statesExpanded),
                    t.dataflowMs, t.refutationMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    bool preserved = on.missed == off.missed;
    bool less_work = on.surviving < off.surviving ||
                     on.statesExpanded < off.statesExpanded;
    std::printf("\nground truth preserved: %s; strictly less work: %s "
                "(edges pruned by constants: %lld)\n",
                preserved ? "yes" : "NO (regression!)",
                less_work ? "yes" : "NO (regression!)",
                static_cast<long long>(on.constPruned));

    bench::benchJson(
        "ablation_dataflow",
        "{\"bench\":\"ablation_dataflow\",\"corpus\":20,"
        "\"on\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"states\":%lld,\"const_pruned\":%lld,"
        "\"dataflow_ms\":%.2f,\"refutation_ms\":%.2f},"
        "\"off\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"states\":%lld,"
        "\"refutation_ms\":%.2f},"
        "\"preserved\":%s,\"less_work\":%s}",
        on.racy, on.refuted, on.surviving, on.missed,
        static_cast<long long>(on.statesExpanded),
        static_cast<long long>(on.constPruned), on.dataflowMs,
        on.refutationMs, off.racy, off.refuted, off.surviving,
        off.missed, static_cast<long long>(off.statesExpanded),
        off.refutationMs, preserved ? "true" : "false",
        less_work ? "true" : "false");
    return preserved && less_work ? 0 : 1;
}
