/**
 * @file
 * The backward search is pinned: every ExecutorStats counter of a
 * jobs-1 run equals a recorded value, on named corpus apps and on one
 * synthetic app shaped like the benchmark's `deep` workload (4
 * activities of 20-28 patterns). The counters measure the work the
 * search does -- queries, states, memo hits, budget hits, pruned edges
 * -- so a change to the executor's or the constraint store's internals
 * that keeps these numbers keeps the exploration order, the budgets
 * and the verdicts: it can only make each step cheaper. A change meant
 * to alter the search updates the table and says why.
 */

#include <gtest/gtest.h>

#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"

namespace sierra {
namespace {

struct PinnedSearch {
    const char *app;   //!< named app, or the synthetic app's name
    uint32_t seed;     //!< synthetic app seed; 0 = named app
    bool nodeCache;    //!< the paper's refuted-node cache (off by default)
    int maxSteps;      //!< per-query state budget
    symbolic::ExecutorStats stats;
};

symbolic::ExecutorStats
searchStats(const PinnedSearch &p)
{
    corpus::BuiltApp built;
    if (p.seed == 0) {
        built = corpus::buildNamedApp(p.app);
    } else {
        corpus::SyntheticSpec spec;
        spec.seed = p.seed;
        spec.activities = 4;
        spec.minPatternsPerActivity = 20;
        spec.maxPatternsPerActivity = 28;
        built = corpus::generateSyntheticApp(p.app, spec);
    }
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = 1;
    options.refuter.exec.useNodeCache = p.nodeCache;
    options.refuter.exec.maxSteps = p.maxSteps;
    AppReport report = detector.analyze(options);
    symbolic::ExecutorStats total;
    for (const HarnessAnalysis &ha : report.perHarness)
        total.merge(ha.refutation.exec);
    return total;
}

TEST(SymbolicSearch, ExecutorStatsArePinned)
{
    const int kDefault = symbolic::ExecutorOptions{}.maxSteps;
    // stats: {queries, pathsExplored, statesExpanded, cacheHits,
    //         budgetExhausted, constPruned, interPruned, interApplied}
    const PinnedSearch pinned[] = {
        {"Astrid", 0, false, kDefault, {193, 114, 2245, 19, 0, 0, 0, 0}},
        {"K-9 Mail", 0, false, kDefault, {99, 64, 1559, 3, 0, 0, 0, 29}},
        {"MyTracks", 0, false, kDefault, {106, 72, 1235, 0, 0, 0, 0, 0}},
        {"OpenSudoku", 0, false, kDefault,
         {106, 33, 2956, 12, 0, 0, 0, 29}},
        {"K-9 Mail", 0, true, kDefault, {94, 59, 944, 25, 0, 0, 0, 10}},
        {"deep-pin", 1, false, kDefault,
         {655, 299, 295345, 48, 0, 0, 0, 12666}},
        // A tight budget: the same app with budget-hit queries.
        {"deep-pin", 1, false, 300, {519, 234, 49930, 38, 74, 0, 0, 1529}},
    };
    for (const PinnedSearch &p : pinned) {
        symbolic::ExecutorStats got = searchStats(p);
        std::string label = std::string(p.app) +
                            (p.nodeCache ? " node-cache" : "") +
                            " maxSteps=" + std::to_string(p.maxSteps);
        EXPECT_EQ(got.queries, p.stats.queries) << label;
        EXPECT_EQ(got.pathsExplored, p.stats.pathsExplored) << label;
        EXPECT_EQ(got.statesExpanded, p.stats.statesExpanded) << label;
        EXPECT_EQ(got.cacheHits, p.stats.cacheHits) << label;
        EXPECT_EQ(got.budgetExhausted, p.stats.budgetExhausted) << label;
        EXPECT_EQ(got.constPruned, p.stats.constPruned) << label;
        EXPECT_EQ(got.interPruned, p.stats.interPruned) << label;
        EXPECT_EQ(got.interApplied, p.stats.interApplied) << label;
    }
}

} // namespace
} // namespace sierra
