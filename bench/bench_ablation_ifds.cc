/**
 * @file
 * Ablation: the interprocedural IFDS stage.
 *
 * Two configurations over the 20-app corpus:
 *   - ifds on (default): the refuter gets InterConstants summaries
 *     (setter parameters, callee returns, must-write-constant call
 *     effects) and the use-after-destroy client runs;
 *   - ifds off: the PR-3 pipeline (intraprocedural facts only; calls
 *     beyond the descend limit are havocked).
 *
 * The stage must be report-preserving on ground truth (zero missed
 * true races in BOTH configurations) while refuting strictly more
 * pairs: the interprocedural facts only ever add refutation power.
 * Per-pair, every pair refuted without the stage stays refuted with
 * it.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: interprocedural IFDS summaries");

    struct Config {
        const char *name;
        bool ifds;
    };
    const Config configs[] = {
        {"ifds on", true},
        {"ifds off", false},
    };

    struct Totals {
        int racy{0};
        int refuted{0};
        int surviving{0};
        int missed{0};
        int useAfterDestroy{0};
        int64_t interPruned{0};
        int64_t interApplied{0};
        double ifdsMs{0};
        double refutationMs{0};
    };
    Totals totals[2];

    std::printf("%-10s %8s %8s %10s %8s %6s %10s %10s %10s\n",
                "config", "racy", "refuted", "surviving", "missed",
                "uad", "applied", "ifds ms", "refute ms");
    bool per_pair_monotone = true;
    for (int c = 0; c < 2; ++c) {
        Totals &t = totals[c];
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.ifds = configs[c].ifds;
            AppReport report = detector.analyze(opts);
            t.racy += report.racyPairs;
            t.refuted += report.racyPairs - report.afterRefutation;
            t.surviving += report.afterRefutation;
            t.missed +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            t.useAfterDestroy +=
                static_cast<int>(report.useAfterDestroy.size());
            for (const auto &ha : report.perHarness) {
                t.interPruned += ha.refutation.exec.interPruned;
                t.interApplied += ha.refutation.exec.interApplied;
            }
            t.ifdsMs += report.times[StageId::Ifds] * 1e3;
            t.refutationMs += report.times[StageId::Refutation] * 1e3;

            // Per-pair monotonicity: every race refuted without the
            // summaries must still be refuted with them (the facts
            // only prune orderings, never add feasible ones).
            if (!configs[c].ifds) {
                SierraOptions on_opts;
                AppReport with = detector.analyze(on_opts);
                for (const auto &race : report.races) {
                    if (!race.refuted)
                        continue;
                    for (const auto &r2 : with.races) {
                        if (r2.description == race.description &&
                            !r2.refuted)
                            per_pair_monotone = false;
                    }
                }
            }
        }
        std::printf("%-10s %8d %8d %10d %8d %6d %10lld %10.2f %10.2f\n",
                    configs[c].name, t.racy, t.refuted, t.surviving,
                    t.missed, t.useAfterDestroy,
                    static_cast<long long>(t.interApplied), t.ifdsMs,
                    t.refutationMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    bool preserved = on.missed == 0 && off.missed == 0;
    bool more_refuted = on.refuted > off.refuted;
    std::printf("\nzero missed true races (both configs): %s; "
                "strictly more refuted with summaries: %s; "
                "per-pair monotone: %s "
                "(inter facts applied: %lld, edges pruned: %lld)\n",
                preserved ? "yes" : "NO (regression!)",
                more_refuted ? "yes" : "NO (regression!)",
                per_pair_monotone ? "yes" : "NO (regression!)",
                static_cast<long long>(on.interApplied),
                static_cast<long long>(on.interPruned));

    bench::benchJson(
        "ablation_ifds",
        "{\"bench\":\"ablation_ifds\",\"corpus\":20,"
        "\"on\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"use_after_destroy\":%d,"
        "\"inter_applied\":%lld,\"inter_pruned\":%lld,"
        "\"ifds_ms\":%.2f,\"refutation_ms\":%.2f},"
        "\"off\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"refutation_ms\":%.2f},"
        "\"preserved\":%s,\"more_refuted\":%s,"
        "\"per_pair_monotone\":%s}",
        on.racy, on.refuted, on.surviving, on.missed,
        on.useAfterDestroy, static_cast<long long>(on.interApplied),
        static_cast<long long>(on.interPruned), on.ifdsMs,
        on.refutationMs, off.racy, off.refuted, off.surviving,
        off.missed, off.refutationMs, preserved ? "true" : "false",
        more_refuted ? "true" : "false",
        per_pair_monotone ? "true" : "false");
    return preserved && more_refuted && per_pair_monotone ? 0 : 1;
}
