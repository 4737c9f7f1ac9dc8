/**
 * @file
 * The warm == cold byte-identity contract of incremental re-analysis
 * (docs/CACHING.md): re-submitting an unchanged app reuses every
 * per-harness artifact and reproduces the cold report bytes exactly
 * (which are themselves the golden-snapshot bytes); editing one method
 * body dirties exactly the DepIndex closure of the edit and recomputes
 * only the harnesses whose footprint covers it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/store.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "serve/incremental.hh"
#include "sierra/artifact.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

#ifndef SIERRA_GOLDEN_DIR
#define SIERRA_GOLDEN_DIR "tests/golden"
#endif

namespace sierra {
namespace {

namespace store = analysis::store;

std::string
goldenPath(const std::string &app_name)
{
    std::string fname;
    for (char c : app_name)
        fname += (c == ' ' || c == '/') ? '_' : c;
    return std::string(SIERRA_GOLDEN_DIR) + "/" + fname +
           ".report.txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Append a dead no-op to the named method's body: the canonical
 *  "benign body edit" of docs/CACHING.md's walkthrough. */
void
appendNop(framework::App &app, const std::string &qualified_name)
{
    for (air::Klass *klass : app.module().classes()) {
        for (const auto &m : klass->methods()) {
            if (m->qualifiedName() == qualified_name) {
                m->instrs().push_back(air::Instruction{});
                return;
            }
        }
    }
    FAIL() << "method not found: " << qualified_name;
}

TEST(Incremental, WarmEqualsColdOverGoldenCorpus)
{
    store::Store st; // memory-only
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;
    for (const corpus::NamedAppSpec &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp cold_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult cold =
            analyzer.analyze(*cold_app.app, options);
        EXPECT_TRUE(cold.firstSubmission) << spec.name;
        EXPECT_EQ(cold.harnessesReused, 0) << spec.name;
        EXPECT_EQ(cold.harnessesComputed, cold.harnessesTotal)
            << spec.name;
        EXPECT_EQ(cold.methodsChanged, cold.methodsTotal) << spec.name;

        // The cold bytes are the pinned golden bytes: serving through
        // the store must not perturb the report-preserving contract.
        EXPECT_EQ(cold.reportText, readFile(goldenPath(spec.name)))
            << spec.name;

        corpus::BuiltApp warm_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult warm =
            analyzer.analyze(*warm_app.app, options);
        EXPECT_FALSE(warm.firstSubmission) << spec.name;
        EXPECT_EQ(warm.methodsChanged, 0) << spec.name;
        EXPECT_FALSE(warm.shapeChanged) << spec.name;
        EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal)
            << spec.name;
        EXPECT_EQ(warm.harnessesComputed, 0) << spec.name;
        EXPECT_EQ(warm.reportText, cold.reportText)
            << "warm report must be byte-identical for " << spec.name;
    }
}

TEST(Incremental, BodyEditDirtiesExactlyTheDepClosure)
{
    store::Store st;
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;

    corpus::BuiltApp first = corpus::buildNamedApp("OpenSudoku");
    const std::string app_name = first.app->name();
    serve::IncrementalResult cold =
        analyzer.analyze(*first.app, options);
    ASSERT_GE(cold.harnessesTotal, 2)
        << "need >= 2 harnesses to show partial reuse";

    // Load the per-harness footprints the cold run persisted and pick
    // an *app* method covered by exactly one harness, so the edit must
    // recompute that harness and reuse every other.
    std::vector<std::vector<std::string>> footprints;
    for (const std::string &key : st.keys("harness")) {
        auto blob = st.get("harness", key);
        ASSERT_TRUE(blob.has_value());
        auto art = parseArtifact(*blob);
        ASSERT_TRUE(art.has_value());
        std::vector<std::string> names;
        for (const auto &[method, hash] : art->footprint)
            names.push_back(method);
        footprints.push_back(std::move(names));
    }
    ASSERT_EQ(static_cast<int>(footprints.size()),
              cold.harnessesTotal);

    auto coveringHarnesses = [&](const std::string &name) {
        int n = 0;
        for (const auto &fp : footprints) {
            if (std::find(fp.begin(), fp.end(), name) != fp.end())
                ++n;
        }
        return n;
    };
    std::string edited;
    {
        corpus::BuiltApp probe = corpus::buildNamedApp("OpenSudoku");
        for (air::Klass *klass : probe.app->module().classes()) {
            if (klass->isFramework() || klass->isSynthetic())
                continue;
            for (const auto &m : klass->methods()) {
                if (m->hasBody() &&
                    coveringHarnesses(m->qualifiedName()) == 1) {
                    edited = m->qualifiedName();
                    break;
                }
            }
            if (!edited.empty())
                break;
        }
    }
    ASSERT_FALSE(edited.empty())
        << "no app method covered by exactly one harness";

    // The expected dirty set is the DepIndex closure the store itself
    // recorded: the edited method plus its transitive summary callers.
    auto deps_blob =
        st.get("deps", store::hashHex(store::fnv64(app_name)));
    ASSERT_TRUE(deps_blob.has_value());
    store::DepIndex deps = store::DepIndex::parse(*deps_blob);
    std::set<std::string> expected_dirty = deps.dirtyClosure({edited});

    corpus::BuiltApp second = corpus::buildNamedApp("OpenSudoku");
    appendNop(*second.app, edited);
    serve::IncrementalResult warm =
        analyzer.analyze(*second.app, options);

    EXPECT_FALSE(warm.firstSubmission);
    EXPECT_EQ(warm.methodsChanged, 1);
    EXPECT_FALSE(warm.shapeChanged)
        << "instruction lines must not feed the shape hash";
    EXPECT_EQ(warm.dirty, expected_dirty);
    EXPECT_EQ(warm.harnessesComputed, 1)
        << "only the covering harness recomputes";
    EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal - 1);

    // Byte-identity under the edit: the warm report equals a cold
    // fresh-store analysis of an identically edited app.
    store::Store fresh;
    serve::IncrementalAnalyzer cold_analyzer(fresh);
    corpus::BuiltApp third = corpus::buildNamedApp("OpenSudoku");
    appendNop(*third.app, edited);
    serve::IncrementalResult edited_cold =
        cold_analyzer.analyze(*third.app, options);
    EXPECT_EQ(warm.reportText, edited_cold.reportText);
}

/** Parse a bundle, failing the test on a parse error. */
std::unique_ptr<framework::App>
parseBundle(const std::string &text)
{
    framework::AppTextResult parsed = framework::parseAppText(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return std::move(parsed.app);
}

TEST(Incremental, StoreWritesOnlyTheKindsItReadsBack)
{
    // The store keeps per-app state (methods, deps, shape) plus one
    // artifact per computed harness, and nothing else: every put is a
    // blob a later submission reads back.
    test::TempDir dir;
    store::Store st(dir.path);
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;
    int64_t puts = 0; // blobs the last submission wrote
    auto submit = [&](framework::App &app) {
        const int64_t before = st.stats().puts;
        serve::IncrementalResult r = analyzer.analyze(app, options);
        puts = st.stats().puts - before;
        return r;
    };

    corpus::BuiltApp first = corpus::buildNamedApp("OpenSudoku");
    serve::IncrementalResult cold = submit(*first.app);
    ASSERT_GT(cold.harnessesComputed, 0);
    EXPECT_EQ(puts, 3 + cold.harnessesComputed);

    corpus::BuiltApp again = corpus::buildNamedApp("OpenSudoku");
    serve::IncrementalResult clean = submit(*again.app);
    EXPECT_EQ(clean.harnessesComputed, 0);
    EXPECT_EQ(puts, 0) << "a clean resubmission writes nothing";

    corpus::BuiltApp edited = corpus::buildNamedApp("OpenSudoku");
    appendNop(*edited.app, "Activity0$572.onSendOne$1");
    serve::IncrementalResult edit = submit(*edited.app);
    EXPECT_EQ(edit.methodsChanged, 1);
    EXPECT_EQ(edit.harnessesComputed, 1);
    EXPECT_EQ(puts, 3 + 1);

    std::set<std::string> top;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        top.insert(entry.path().filename().string());
    EXPECT_EQ(top, (std::set<std::string>{"VERSION", "deps", "harness",
                                          "methods", "shape"}));
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir.path))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

TEST(Incremental, LeafEditDirtiesItsWholeCallChain)
{
    // onCreate -> helper -> leaf: a leaf edit dirties exactly the
    // chain, pinned literally (not derived from the stored index).
    const std::string bundle = R"(
app "chain" {
    package org.example.chain
    activity Main main
}
class Main extends android.app.Activity {
    field count: int
    method <init>(): void regs=1 { @0: return-void }
    method onCreate(): void regs=1 {
        @0: invoke-virtual Main.helper(r0)
        @1: return-void
    }
    method helper(): void regs=1 {
        @0: invoke-virtual Main.leaf(r0)
        @1: return-void
    }
    method leaf(): void regs=2 {
        @0: r1 = const 1
        @1: putfield r0.Main.count = r1
        @2: return-void
    }
}
)";
    store::Store st;
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;
    auto first = parseBundle(bundle);
    ASSERT_NE(first, nullptr);
    analyzer.analyze(*first, options);

    auto second = parseBundle(bundle);
    ASSERT_NE(second, nullptr);
    appendNop(*second, "Main.leaf");
    serve::IncrementalResult warm = analyzer.analyze(*second, options);
    EXPECT_EQ(warm.methodsChanged, 1);
    EXPECT_EQ(warm.dirty, (std::set<std::string>{
                              "Main.leaf", "Main.helper", "Main.onCreate"}));
}

TEST(Incremental, AppNamesThatArePathsKeepTheirOwnStoreFiles)
{
    // The app name is hashed into the per-app keys, so a name that is
    // also a path component ("..") is still one file of its own, and
    // "a/b" no longer shares a file with "a_b".
    const std::string text = framework::printAppText(
        *corpus::buildNamedApp("OpenSudoku").app);
    const std::string header = "app \"OpenSudoku\"";
    ASSERT_EQ(text.rfind(header, 0), 0u);
    auto renamed = [&](const std::string &name) {
        std::string out = text;
        out.replace(0, header.size(), "app \"" + name + "\"");
        auto app = parseBundle(out);
        EXPECT_EQ(app ? app->name() : "", name);
        return app;
    };

    test::TempDir dir;
    SierraOptions options;
    {
        store::Store st(dir.path);
        serve::IncrementalAnalyzer analyzer(st);
        for (const char *name : {"..", "a/b", "a_b"}) {
            auto app = renamed(name);
            ASSERT_NE(app, nullptr);
            EXPECT_TRUE(analyzer.analyze(*app, options).firstSubmission)
                << name;
        }
    }
    store::Store st(dir.path); // a second process on the same store
    serve::IncrementalAnalyzer analyzer(st);
    auto app = renamed("..");
    ASSERT_NE(app, nullptr);
    serve::IncrementalResult warm = analyzer.analyze(*app, options);
    EXPECT_FALSE(warm.firstSubmission);
    EXPECT_EQ(warm.methodsChanged, 0);
    EXPECT_FALSE(warm.shapeChanged);
    EXPECT_EQ(warm.harnessesComputed, 0);
}

TEST(Incremental, StoreContentsIndependentOfJobsCount)
{
    // Same app at different jobs counts must write byte-identical
    // store blobs under identical keys: keys derive from content, and
    // blobs are serialized from deterministically merged results.
    auto run = [](int jobs, store::Store &st) {
        serve::IncrementalAnalyzer analyzer(st);
        SierraOptions options;
        options.jobs = jobs;
        corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
        return analyzer.analyze(*built.app, options);
    };
    store::Store serial_store, parallel_store;
    serve::IncrementalResult serial = run(1, serial_store);
    serve::IncrementalResult parallel = run(4, parallel_store);

    EXPECT_EQ(serial.reportText, parallel.reportText);
    EXPECT_EQ(serial.shapeHash, parallel.shapeHash)
        << "jobs must not feed the options fingerprint";
    for (const char *kind : {"methods", "deps", "shape", "harness"}) {
        auto keys = serial_store.keys(kind);
        ASSERT_EQ(keys, parallel_store.keys(kind)) << kind;
        for (const std::string &key : keys) {
            EXPECT_EQ(serial_store.get(kind, key),
                      parallel_store.get(kind, key))
                << kind << "/" << key;
        }
    }
}

TEST(Incremental, OptionsFingerprintSeparatesAblations)
{
    SierraOptions base;
    uint64_t fp = serve::IncrementalAnalyzer::optionsFingerprint(base);

    SierraOptions jobs_only = base;
    jobs_only.jobs = 8;
    EXPECT_EQ(serve::IncrementalAnalyzer::optionsFingerprint(jobs_only),
              fp)
        << "jobs never changes reports, so it must not re-key";

    SierraOptions no_ifds = base;
    no_ifds.ifds = false;
    SierraOptions no_lockset = base;
    no_lockset.locksetRefutation = false;
    SierraOptions small_budget = base;
    small_budget.refuter.exec.maxPaths /= 2;
    EXPECT_NE(serve::IncrementalAnalyzer::optionsFingerprint(no_ifds),
              fp);
    EXPECT_NE(
        serve::IncrementalAnalyzer::optionsFingerprint(no_lockset),
        fp);
    EXPECT_NE(
        serve::IncrementalAnalyzer::optionsFingerprint(small_budget),
        fp);
    // Distinct ablations get distinct harness keys, so a run with
    // ablated options can never satisfy a default-options lookup.
    EXPECT_NE(serve::IncrementalAnalyzer::optionsFingerprint(no_ifds),
              serve::IncrementalAnalyzer::optionsFingerprint(
                  no_lockset));
}

TEST(Incremental, OptionsFingerprintCoversEveryReportOption)
{
    using Flip = void (*)(SierraOptions &);
    const std::vector<std::pair<const char *, Flip>> flips = {
        {"icc", [](SierraOptions &o) { o.icc = false; }},
        {"pta.ctx.policy",
         [](SierraOptions &o) {
             o.pta.ctx.policy = analysis::ContextPolicy::Insensitive;
         }},
        {"pta.ctx.k", [](SierraOptions &o) { o.pta.ctx.k = 2; }},
        {"pta.ctx.heapK", [](SierraOptions &o) { o.pta.ctx.heapK = 2; }},
        {"pta.ctx.inflatedViewContext",
         [](SierraOptions &o) { o.pta.ctx.inflatedViewContext = false; }},
        {"pta.maxActions",
         [](SierraOptions &o) { o.pta.maxActions /= 2; }},
        {"pta.indexSensitiveArrays",
         [](SierraOptions &o) { o.pta.indexSensitiveArrays = true; }},
        {"hb.enableRule4",
         [](SierraOptions &o) { o.hb.enableRule4 = false; }},
        {"hb.enableRule5",
         [](SierraOptions &o) { o.hb.enableRule5 = false; }},
        {"hb.enableRule6",
         [](SierraOptions &o) { o.hb.enableRule6 = false; }},
        {"hb.rule5MaxStates",
         [](SierraOptions &o) { o.hb.rule5MaxStates /= 2; }},
        {"racy.requireSameLooper",
         [](SierraOptions &o) { o.racy.requireSameLooper = false; }},
        {"refuter.maxActionPairsPerRace",
         [](SierraOptions &o) { o.refuter.maxActionPairsPerRace /= 2; }},
        {"refuter.exec.maxPaths",
         [](SierraOptions &o) { o.refuter.exec.maxPaths /= 2; }},
        {"refuter.exec.maxDepth",
         [](SierraOptions &o) { o.refuter.exec.maxDepth /= 2; }},
        {"refuter.exec.maxSteps",
         [](SierraOptions &o) { o.refuter.exec.maxSteps /= 2; }},
        {"refuter.exec.maxCallDepth",
         [](SierraOptions &o) { o.refuter.exec.maxCallDepth /= 2; }},
        {"refuter.exec.useNodeCache",
         [](SierraOptions &o) { o.refuter.exec.useNodeCache = true; }},
        {"refuter.exec.useConstFacts",
         [](SierraOptions &o) { o.refuter.exec.useConstFacts = false; }},
    };
    const SierraOptions base;
    const uint64_t fp = serve::IncrementalAnalyzer::optionsFingerprint(base);
    std::set<uint64_t> seen = {fp};
    auto expectRekeys = [&](const std::string &what,
                            const SierraOptions &o) {
        uint64_t flipped = serve::IncrementalAnalyzer::optionsFingerprint(o);
        EXPECT_NE(flipped, fp) << what << " must re-key";
        EXPECT_TRUE(seen.insert(flipped).second)
            << what << " collides with another flip";
    };
    for (const auto &[what, flip] : flips) {
        SierraOptions o = base;
        flip(o);
        expectRekeys(what, o);
    }
    // Every stage toggle, straight from the stage table.
    for (const Stage &stage : kStages) {
        if (!stage.toggle)
            continue;
        SierraOptions o = base;
        o.*stage.toggle = false;
        expectRekeys(stage.name, o);
    }

    // Worker counts and the metrics registry never change reports.
    util::metrics::Registry registry;
    SierraOptions same = base;
    same.jobs = 8;
    same.refuter.jobs = 3;
    same.metrics = &registry;
    EXPECT_EQ(serve::IncrementalAnalyzer::optionsFingerprint(same), fp);
}

TEST(Incremental, PolicyChangeNeverServesStaleArtifacts)
{
    // One analyzer sees the same app under the default policy, then
    // under Insensitive: the second report must be the cold
    // Insensitive report, not artifacts keyed for the first policy.
    store::Store st;
    serve::IncrementalAnalyzer analyzer(st);
    const char *app = "OpenSudoku";
    SierraOptions insensitive;
    insensitive.pta.ctx.policy = analysis::ContextPolicy::Insensitive;

    corpus::BuiltApp first = corpus::buildNamedApp(app);
    serve::IncrementalResult warm_default =
        analyzer.analyze(*first.app, SierraOptions{});
    corpus::BuiltApp second = corpus::buildNamedApp(app);
    serve::IncrementalResult switched =
        analyzer.analyze(*second.app, insensitive);

    corpus::BuiltApp cold_app = corpus::buildNamedApp(app);
    SierraDetector detector(*cold_app.app, insensitive);
    const std::string cold =
        formatReport(detector.analyze(insensitive), 50, false);
    ASSERT_NE(cold, warm_default.reportText)
        << app << " must differ between policies for this test to bite";
    EXPECT_EQ(switched.reportText, cold);
}

} // namespace
} // namespace sierra
