/**
 * @file
 * Ablation: the UNDEAD-style deadlock stage.
 *
 * Two configurations over the full corpus (20 named apps + the 174
 * F-Droid-analogue apps):
 *   - deadlock on (default): the lock-dependency graph is built from
 *     the lock-set observations and concurrently-runnable cycles are
 *     reported;
 *   - deadlock off: the stage is skipped entirely.
 *
 * The stage must find every seeded cyclic acquisition, report nothing
 * with the stage off, and be purely additive: the race report
 * (surviving pairs, missed true races) is identical in both
 * configurations.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: deadlock cycle detection");

    struct Totals {
        int seededCycles{0};
        int foundCycles{0};
        int appsWithFindings{0};
        int surviving{0};
        int missedRaces{0};
        double deadlockMs{0};
    };
    Totals totals[2]; // [0] = on, [1] = off

    std::printf("%-14s %8s %8s %10s %10s %8s %12s\n", "config",
                "seeded", "found", "with-find", "surviving", "missed",
                "stage ms");
    for (int c = 0; c < 2; ++c) {
        const bool enabled = c == 0;
        Totals &t = totals[c];
        auto run = [&](corpus::BuiltApp built) {
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.deadlock = enabled;
            AppReport report = detector.analyze(opts);
            t.seededCycles += built.truth.seededDeadlocks;
            t.foundCycles += static_cast<int>(report.deadlocks.size());
            if (!report.deadlocks.empty())
                ++t.appsWithFindings;
            t.surviving += report.afterRefutation;
            t.missedRaces +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            t.deadlockMs += report.times[StageId::Deadlock] * 1e3;
        };
        for (const auto &spec : corpus::namedAppSpecs())
            run(corpus::buildNamedApp(spec));
        for (int i = 0; i < corpus::kFdroidAppCount; ++i)
            run(corpus::buildFdroidApp(i));
        std::printf("%-14s %8d %8d %10d %10d %8d %12.2f\n",
                    enabled ? "deadlock on" : "deadlock off",
                    t.seededCycles, t.foundCycles, t.appsWithFindings,
                    t.surviving, t.missedRaces, t.deadlockMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    bool cycles_found =
        on.seededCycles > 0 && on.foundCycles >= on.seededCycles;
    bool off_silent = off.foundCycles == 0;
    bool additive = on.surviving == off.surviving &&
                    on.missedRaces == 0 && off.missedRaces == 0;
    std::printf("\nseeded cycles found: %s; off-config silent: %s; "
                "race report unchanged: %s\n",
                cycles_found ? "yes" : "NO (regression!)",
                off_silent ? "yes" : "NO (regression!)",
                additive ? "yes" : "NO (regression!)");

    bench::benchJson(
        "ablation_deadlock",
        "{\"bench\":\"ablation_deadlock\",\"corpus\":%d,"
        "\"on\":{\"seeded_cycles\":%d,\"found_cycles\":%d,"
        "\"apps_with_findings\":%d,\"surviving\":%d,\"missed\":%d,"
        "\"deadlock_ms\":%.2f},"
        "\"off\":{\"found_cycles\":%d,\"surviving\":%d,\"missed\":%d},"
        "\"cycles_found\":%s,\"off_silent\":%s,\"additive\":%s}",
        20 + corpus::kFdroidAppCount, on.seededCycles, on.foundCycles,
        on.appsWithFindings, on.surviving, on.missedRaces,
        on.deadlockMs, off.foundCycles, off.surviving, off.missedRaces,
        cycles_found ? "true" : "false", off_silent ? "true" : "false",
        additive ? "true" : "false");
    return cycles_found && off_silent && additive ? 0 : 1;
}
