/** @file Tests for the shared per-method facts table
 *  (analysis/method_facts): one CFG, dominator tree and constant
 *  solve per body method, the same objects for every reader, and
 *  race-free lazy construction under concurrent first use. */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "analysis/method_facts.hh"
#include "analysis/points_to.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"

namespace sierra::analysis {
namespace {

/** Every method with a body, in module order. */
std::vector<const air::Method *>
bodyMethods(const air::Module &module)
{
    std::vector<const air::Method *> out;
    for (const air::Klass *k : module.classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                out.push_back(m.get());
        }
    }
    return out;
}

TEST(MethodFacts, LookupsReturnOneObjectAcrossResultsSharingTheTable)
{
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    SierraDetector detector(*built.app); // adds the harness mains
    const air::Module &module = built.app->module();
    auto table = std::make_shared<const MethodFacts>(module);
    const std::vector<const air::Method *> methods = bodyMethods(module);
    ASSERT_FALSE(methods.empty());
    // One entry, hence one CFG, per body method.
    EXPECT_EQ(table->size(), static_cast<int>(methods.size()));

    PointsToOptions options;
    options.sharedFacts = table;
    ASSERT_GE(detector.plans().size(), 2u);
    auto first =
        PointsToAnalysis(*built.app, detector.plans()[0], options).run();
    auto second =
        PointsToAnalysis(*built.app, detector.plans()[1], options).run();
    EXPECT_EQ(&first->facts, table.get());
    EXPECT_EQ(&second->facts, table.get());

    for (const air::Method *m : methods) {
        const Cfg &cfg = table->cfg(*m);
        EXPECT_EQ(&cfg.method(), m);
        EXPECT_EQ(&table->cfg(*m), &cfg);
        EXPECT_EQ(&first->facts.cfg(*m), &cfg);
        EXPECT_EQ(&second->facts.cfg(*m), &cfg);

        const DominatorTree &dom = first->facts.dominators(*m);
        EXPECT_EQ(&dom.cfg(), &cfg);
        EXPECT_EQ(&second->facts.dominators(*m), &dom);
        EXPECT_EQ(&table->dominators(*m), &dom);

        const MethodConstants &consts = first->facts.constants(*m);
        EXPECT_EQ(&second->facts.constants(*m), &consts);
        EXPECT_EQ(&table->constants(*m), &consts);
    }

    // Without a shared table a result builds its own.
    auto own = PointsToAnalysis(*built.app, detector.plans()[0]).run();
    EXPECT_NE(&own->facts, table.get());
    EXPECT_EQ(own->facts.size(), table->size());
}

TEST(MethodFacts, AnalyzeSharesOneTableAcrossHarnessTasks)
{
    corpus::BuiltApp built = corpus::buildNamedApp("K-9 Mail");
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = 4;
    std::vector<const MethodFacts *> seen;
    HarnessReuse reuse;
    reuse.onComputed = [&](const harness::HarnessPlan &,
                           const HarnessAnalysis &ha,
                           const HarnessArtifact &) {
        seen.push_back(&ha.pta->facts);
    };
    detector.analyze(options, &reuse);
    ASSERT_EQ(seen.size(), detector.plans().size());
    ASSERT_GE(seen.size(), 2u);
    for (const MethodFacts *facts : seen)
        EXPECT_EQ(facts, seen.front());
}

TEST(MethodFacts, ConcurrentFirstUseBuildsEachFactOnce)
{
    corpus::BuiltApp built = corpus::buildNamedApp("K-9 Mail");
    SierraDetector detector(*built.app);
    const MethodFacts table(built.app->module());
    const std::vector<const air::Method *> methods =
        bodyMethods(built.app->module());

    constexpr int kThreads = 4;
    struct Seen {
        std::vector<const DominatorTree *> doms;
        std::vector<const MethodConstants *> consts;
    };
    std::vector<Seen> seen(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            // Alternate the walk direction so threads collide on
            // first use from both ends.
            for (size_t k = 0; k < methods.size(); ++k) {
                const size_t i =
                    t % 2 == 0 ? k : methods.size() - 1 - k;
                seen[t].doms.push_back(&table.dominators(*methods[i]));
                seen[t].consts.push_back(&table.constants(*methods[i]));
            }
            if (t % 2 == 1) {
                std::reverse(seen[t].doms.begin(), seen[t].doms.end());
                std::reverse(seen[t].consts.begin(),
                             seen[t].consts.end());
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t].doms, seen[0].doms) << "thread " << t;
        EXPECT_EQ(seen[t].consts, seen[0].consts) << "thread " << t;
    }
    for (size_t i = 0; i < methods.size(); ++i) {
        EXPECT_EQ(&seen[0].doms[i]->cfg(), &table.cfg(*methods[i]));
        EXPECT_EQ(seen[0].doms[i], &table.dominators(*methods[i]));
    }
}

} // namespace
} // namespace sierra::analysis
