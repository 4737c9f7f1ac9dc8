/**
 * @file
 * Ablation: the refutation caches (paper Section 5 "Caching").
 *
 * Compares three configurations over the 20-app corpus:
 *   - memo only (default): sound per-query memoization;
 *   - paper node cache: additionally prune any phase-A path that enters
 *     a call-graph node visited by an earlier refuted query (the
 *     paper's scheme; unsound, may refute true races);
 *   - no budget: a tiny path budget, to show budget-exhaustion behavior
 *     (candidates are conservatively reported).
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: refutation caching");

    struct Config {
        const char *name;
        bool nodeCache;
        int maxSteps;
    };
    const Config configs[] = {
        {"memo only", false, 200000},
        {"paper node cache", true, 200000},
        {"tiny budget", false, 12},
    };

    std::printf("%-18s %8s %8s %6s %6s %8s %10s\n", "config", "racy",
                "refuted", "TP", "FP", "missed", "time ms");
    for (const auto &config : configs) {
        int racy = 0;
        int refuted = 0;
        int tp = 0;
        int fp = 0;
        int missed = 0;
        double ms = 0;
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.refuter.exec.useNodeCache = config.nodeCache;
            opts.refuter.exec.maxSteps = config.maxSteps;
            AppReport report = detector.analyze(opts);
            racy += report.racyPairs;
            refuted += report.racyPairs - report.afterRefutation;
            corpus::Score score =
                corpus::scoreReport(report, built.truth);
            tp += score.truePositives;
            fp += score.falsePositives;
            missed += score.missedTrueKeys;
            ms += report.times[StageId::Refutation] * 1e3;
        }
        std::printf("%-18s %8d %8d %6d %6d %8d %10.2f\n", config.name,
                    racy, refuted, tp, fp, missed, ms);
    }
    std::printf("\nExpected: the node cache refutes at least as many "
                "candidates (faster but\nunsound: may add misses); the "
                "tiny budget refutes fewer (more FPs, never\nmore "
                "misses).\n");
    return 0;
}
