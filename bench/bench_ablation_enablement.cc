/**
 * @file
 * Ablation: callback-enablement refutation.
 *
 * Two configurations over the full corpus (20 named apps + the
 * F-Droid-analogue apps):
 *   - enablement on (default): the registration-typestate stage
 *     exonerates pairs whose enabling callback is must-disabled at
 *     every unordered point before the partner action runs;
 *   - enablement off: those pairs survive to the symbolic refuter and
 *     the report.
 *
 * The stage must be report-preserving on ground truth (zero missed
 * true races in either configuration) while strictly more pairs are
 * refuted with it on.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: callback-enablement refutation");

    struct Config {
        const char *name;
        bool enablement;
    };
    const Config configs[] = {
        {"enable on", true},
        {"enable off", false},
    };

    struct Totals {
        int racy{0};
        int enablementRefuted{0};
        int surviving{0};
        int missed{0};
        int64_t queries{0};
        double enablementMs{0};
        double refutationMs{0};
    };
    Totals totals[2];

    std::printf("%-10s %8s %11s %10s %8s %9s %11s %11s\n", "config",
                "racy", "enablement", "surviving", "missed", "queries",
                "stage ms", "refute ms");
    for (int c = 0; c < 2; ++c) {
        Totals &t = totals[c];
        auto run = [&](corpus::BuiltApp built) {
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.enablement = configs[c].enablement;
            AppReport report = detector.analyze(opts);
            t.racy += report.racyPairs;
            t.enablementRefuted += report.enablementRefuted;
            t.surviving += report.afterRefutation;
            t.missed +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            for (const auto &ha : report.perHarness)
                t.queries += ha.enablementStats.queries;
            t.enablementMs += report.times[StageId::Enablement] * 1e3;
            t.refutationMs += report.times[StageId::Refutation] * 1e3;
        };
        for (const auto &spec : corpus::namedAppSpecs())
            run(corpus::buildNamedApp(spec));
        for (int i = 0; i < corpus::kFdroidAppCount; ++i)
            run(corpus::buildFdroidApp(i));
        std::printf(
            "%-10s %8d %11d %10d %8d %9lld %11.2f %11.2f\n",
            configs[c].name, t.racy, t.enablementRefuted, t.surviving,
            t.missed, static_cast<long long>(t.queries),
            t.enablementMs, t.refutationMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    bool preserved = on.missed == 0 && off.missed == 0;
    bool more_refuted = on.enablementRefuted > off.enablementRefuted;
    std::printf("\nground truth preserved: %s; strictly more pairs "
                "refuted with the stage on: %s (%d vs %d)\n",
                preserved ? "yes" : "NO (regression!)",
                more_refuted ? "yes" : "NO (regression!)",
                on.enablementRefuted, off.enablementRefuted);

    bench::benchJson(
        "ablation_enablement",
        "{\"bench\":\"ablation_enablement\",\"corpus\":%d,"
        "\"on\":{\"racy\":%d,\"enablement_refuted\":%d,"
        "\"surviving\":%d,\"missed\":%d,\"queries\":%lld,"
        "\"enablement_ms\":%.2f,\"refutation_ms\":%.2f},"
        "\"off\":{\"racy\":%d,\"surviving\":%d,\"missed\":%d,"
        "\"refutation_ms\":%.2f},"
        "\"preserved\":%s,\"more_refuted\":%s}",
        20 + corpus::kFdroidAppCount, on.racy, on.enablementRefuted,
        on.surviving, on.missed, static_cast<long long>(on.queries),
        on.enablementMs, on.refutationMs, off.racy, off.surviving,
        off.missed, off.refutationMs, preserved ? "true" : "false",
        more_refuted ? "true" : "false");
    return preserved && more_refuted ? 0 : 1;
}
