/**
 * @file
 * Ablation: escape filter + lock-set refutation.
 *
 * Two configurations over the full corpus (20 named apps + the 174
 * F-Droid-analogue apps):
 *   - locks on (default): the escape analysis drops thread-local
 *     accesses before the quadratic pair loop and the lock-set stage
 *     refutes monitor-protected pairs before symbolic execution;
 *   - locks off: every access enters the pair loop and every pair
 *     reaches the symbolic refuter (the PR-2 pipeline).
 *
 * Both stages must be report-preserving on ground truth (zero missed
 * true races in either configuration) while strictly fewer pairs reach
 * the symbolic refuter with the stages on.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: escape filter + lock-set refutation");

    struct Config {
        const char *name;
        bool locks;
    };
    const Config configs[] = {
        {"locks on", true},
        {"locks off", false},
    };

    struct Totals {
        int racy{0};
        int locksetRefuted{0};
        int toSymbolic{0}; //!< pairs the symbolic refuter must examine
        int surviving{0};
        int missed{0};
        int accessesDropped{0};
        double escapeMs{0};
        double locksetMs{0};
        double refutationMs{0};
    };
    Totals totals[2];

    std::printf("%-10s %8s %9s %11s %10s %8s %9s %11s %11s\n", "config",
                "racy", "lockset", "to-symbolic", "surviving", "missed",
                "dropped", "stage ms", "refute ms");
    for (int c = 0; c < 2; ++c) {
        Totals &t = totals[c];
        auto run = [&](corpus::BuiltApp built) {
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.escapeFilter = configs[c].locks;
            opts.locksetRefutation = configs[c].locks;
            AppReport report = detector.analyze(opts);
            t.racy += report.racyPairs;
            t.locksetRefuted += report.locksetRefuted;
            t.toSymbolic += report.racyPairs - report.locksetRefuted;
            t.surviving += report.afterRefutation;
            t.accessesDropped += report.accessesDropped;
            t.missed +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            t.escapeMs += report.times[StageId::Escape] * 1e3;
            t.locksetMs += report.times[StageId::Lockset] * 1e3;
            t.refutationMs += report.times[StageId::Refutation] * 1e3;
        };
        for (const auto &spec : corpus::namedAppSpecs())
            run(corpus::buildNamedApp(spec));
        for (int i = 0; i < corpus::kFdroidAppCount; ++i)
            run(corpus::buildFdroidApp(i));
        std::printf(
            "%-10s %8d %9d %11d %10d %8d %9d %11.2f %11.2f\n",
            configs[c].name, t.racy, t.locksetRefuted, t.toSymbolic,
            t.surviving, t.missed, t.accessesDropped,
            t.escapeMs + t.locksetMs, t.refutationMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    bool preserved = on.missed == 0 && off.missed == 0;
    bool less_work = on.toSymbolic < off.toSymbolic;
    std::printf("\nground truth preserved: %s; fewer pairs reach the "
                "symbolic refuter: %s (%d vs %d; thread-local accesses "
                "dropped: %d)\n",
                preserved ? "yes" : "NO (regression!)",
                less_work ? "yes" : "NO (regression!)", on.toSymbolic,
                off.toSymbolic, on.accessesDropped);

    bench::benchJson(
        "ablation_locks",
        "{\"bench\":\"ablation_locks\",\"corpus\":%d,"
        "\"on\":{\"racy\":%d,\"lockset_refuted\":%d,"
        "\"to_symbolic\":%d,\"surviving\":%d,\"missed\":%d,"
        "\"accesses_dropped\":%d,\"escape_ms\":%.2f,"
        "\"lockset_ms\":%.2f,\"refutation_ms\":%.2f},"
        "\"off\":{\"racy\":%d,\"to_symbolic\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"refutation_ms\":%.2f},"
        "\"preserved\":%s,\"less_work\":%s}",
        20 + corpus::kFdroidAppCount, on.racy, on.locksetRefuted,
        on.toSymbolic, on.surviving, on.missed, on.accessesDropped,
        on.escapeMs, on.locksetMs, on.refutationMs, off.racy,
        off.toSymbolic, off.surviving, off.missed, off.refutationMs,
        preserved ? "true" : "false", less_work ? "true" : "false");
    return preserved && less_work ? 0 : 1;
}
