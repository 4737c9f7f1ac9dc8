/**
 * @file
 * The artifact store's contracts (docs/CACHING.md): content-hash keys
 * are pure functions of the input (stable across fresh builds, jobs
 * counts and processes), the dependency index computes exact dirty
 * closures, serializations round-trip byte-identically, and a
 * version-stamp mismatch discards the on-disk generation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/store.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

namespace store = analysis::store;
namespace fs = std::filesystem;

using test::TempDir;

TEST(Store, MethodHashesStableAcrossFreshBuilds)
{
    // Two independent builds of the same corpus app (fresh modules,
    // fresh arenas, different pointer values) must produce identical
    // per-method env hashes: keys depend only on content.
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");
    SierraDetector da(*a.app), db(*b.app); // generate harnesses too
    EXPECT_EQ(store::hashMethods(*a.app), store::hashMethods(*b.app));
    EXPECT_EQ(store::shapeHash(*a.app), store::shapeHash(*b.app));
}

TEST(Store, MethodHashesStableAcrossParseRoundTrip)
{
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    std::string text = framework::printAppText(*built.app);
    framework::AppTextResult reparsed = framework::parseAppText(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    // Harness generation mutates the module; hash only app methods
    // here by not constructing detectors.
    EXPECT_EQ(store::hashMethods(*built.app),
              store::hashMethods(*reparsed.app));
}

TEST(Store, BodyEditChangesMethodHashButNotShape)
{
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");

    // Append a no-op to the first app method with a body in b.
    const air::Method *edited = nullptr;
    for (air::Klass *klass : b.app->module().classes()) {
        if (klass->isFramework())
            continue;
        for (const auto &m : klass->methods()) {
            if (m->hasBody()) {
                m->instrs().push_back(air::Instruction{});
                edited = m.get();
                break;
            }
        }
        if (edited)
            break;
    }
    ASSERT_NE(edited, nullptr);

    auto ha = store::hashMethods(*a.app);
    auto hb = store::hashMethods(*b.app);
    EXPECT_NE(ha.at(edited->qualifiedName()),
              hb.at(edited->qualifiedName()));
    int differing = 0;
    for (const auto &[name, hash] : ha) {
        if (hb.at(name) != hash)
            ++differing;
    }
    EXPECT_EQ(differing, 1) << "a body edit must re-key only itself";
    // Instruction lines are stripped from the shape: it is unchanged.
    EXPECT_EQ(store::shapeHash(*a.app), store::shapeHash(*b.app));
}

TEST(Store, ClassSliceChangesRekeyMemberMethods)
{
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");
    // Retype-by-addition: a new field changes the owner's class slice
    // and with it every member method's env hash.
    air::Klass *victim = nullptr;
    for (air::Klass *klass : b.app->module().classes()) {
        if (!klass->isFramework() && !klass->methods().empty()) {
            victim = klass;
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    uint64_t before = store::classSliceHash(*victim);
    victim->addField(air::Field{"__storeTestField",
                                air::Type::object("java.lang.Object"),
                                false});
    EXPECT_NE(store::classSliceHash(*victim), before);

    auto ha = store::hashMethods(*a.app);
    auto hb = store::hashMethods(*b.app);
    for (const auto &m : victim->methods()) {
        if (m->hasBody())
            EXPECT_NE(ha.at(m->qualifiedName()),
                      hb.at(m->qualifiedName()));
    }
}

TEST(Store, MethodIndexRoundTrip)
{
    std::map<std::string, uint64_t> index{
        {"A.foo", 0x1234abcd5678ef00ULL},
        {"B.bar", 42},
        {"C.<init>", 0},
    };
    std::string blob = store::serializeMethodIndex(index);
    EXPECT_EQ(store::parseMethodIndex(blob), index);
    // Serialization is deterministic (sorted by name).
    EXPECT_EQ(blob, store::serializeMethodIndex(
                        store::parseMethodIndex(blob)));
}

TEST(Store, DepIndexDirtyClosureIsExact)
{
    // main -> helper -> leaf, plus lonely with no edges.
    store::DepIndex dep;
    dep.addEdge("main", "helper");
    dep.addEdge("helper", "leaf");
    dep.addEdge("other", "leaf");

    // Editing the leaf dirties the whole caller chain.
    auto dirty = dep.dirtyClosure({"leaf"});
    EXPECT_EQ(dirty, (std::set<std::string>{"leaf", "helper", "main",
                                            "other"}));
    // Editing a mid-chain method dirties only its callers.
    dirty = dep.dirtyClosure({"helper"});
    EXPECT_EQ(dirty, (std::set<std::string>{"helper", "main"}));
    // Editing a root dirties only itself.
    dirty = dep.dirtyClosure({"main"});
    EXPECT_EQ(dirty, (std::set<std::string>{"main"}));
    // Unknown methods pass through unchanged.
    dirty = dep.dirtyClosure({"lonely"});
    EXPECT_EQ(dirty, (std::set<std::string>{"lonely"}));
}

TEST(Store, DepIndexSerializeRoundTripAndPrune)
{
    store::DepIndex dep;
    dep.addEdge("main", "helper");
    dep.addEdge("helper", "leaf");
    store::DepIndex back = store::DepIndex::parse(dep.serialize());
    EXPECT_EQ(back.serialize(), dep.serialize());
    EXPECT_EQ(back.numEdges(), 2);
    EXPECT_EQ(back.callersOf("leaf"),
              std::vector<std::string>{"helper"});

    back.prune({"main", "helper"}); // leaf was deleted
    EXPECT_EQ(back.numEdges(), 1);
    EXPECT_TRUE(back.callersOf("leaf").empty());
}

TEST(Store, DiskStoreWarmStartsAcrossInstances)
{
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put("kind", "key1", "blob one");
        first.put("kind", "key2", "blob two");
    }
    // A second instance (standing in for a second process) reads the
    // same artifacts back from disk.
    store::Store second(dir.path);
    auto blob = second.get("kind", "key1");
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, "blob one");
    EXPECT_EQ(second.stats().diskReads, 1);
    EXPECT_EQ(second.keys("kind"),
              (std::vector<std::string>{"key1", "key2"}));
}

TEST(Store, VersionMismatchDiscardsGeneration)
{
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put("kind", "key", "old generation");
    }
    {
        // Corrupt the stamp as an older binary would have left it.
        std::ofstream out(fs::path(dir.path) / "VERSION");
        out << "sierra-store schema 0 known-api 0\n";
    }
    store::Store second(dir.path);
    EXPECT_FALSE(second.get("kind", "key").has_value());
    // The stamp is rewritten to the current version.
    std::ifstream in(fs::path(dir.path) / "VERSION");
    std::string stamp((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(stamp, store::Store::versionStamp());
}

TEST(Store, ArtifactSerializationRoundTrips)
{
    HarnessArtifact art;
    art.activity = "MainActivity";
    art.actions = 7;
    art.hbEdges = 21;
    art.accessesTotal = 5;
    art.accessesDropped = 1;
    art.locksetRefuted = 2;
    art.enablementRefuted = 1;
    art.races.push_back({"A.m", 3, "B.n", 4, "C.f",
                         "race with\ttab and\nnewline", 9, false,
                         analysis::NullVerdict::Harmful,
                         "null-source A.m:1 -> C.f -> read\tB.n:4"});
    analysis::UseAfterDestroyFinding uad;
    uad.fieldKey = "C.f";
    uad.teardownAction = "onDestroy";
    uad.useAction = "post#1";
    uad.writeMethod = "C.onDestroy";
    uad.readMethod = "C.run";
    uad.writeInstr = 2;
    uad.readInstr = 5;
    art.useAfterDestroy.push_back(uad);
    analysis::DeadlockFinding dl;
    dl.edges.push_back({"lockA", "lockB", "C.m", 1, "post#2"});
    dl.edges.push_back({"lockB", "lockA", "C.n", 3, "post#3"});
    art.deadlocks.push_back(dl);
    art.footprint.emplace_back("A.m", 0xdeadbeefcafef00dULL);
    art.footprint.emplace_back("B.n", 1);

    std::string blob = serializeArtifact(art);
    auto back = parseArtifact(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeArtifact(*back), blob);
    EXPECT_EQ(back->activity, art.activity);
    EXPECT_EQ(back->races.size(), 1u);
    EXPECT_EQ(back->races[0].description,
              "race with\ttab and\nnewline");
    EXPECT_EQ(back->footprint, art.footprint);
    EXPECT_TRUE(back->useAfterDestroy[0] == uad);
    EXPECT_TRUE(back->deadlocks[0] == dl);

    EXPECT_FALSE(parseArtifact("not an artifact").has_value());
    EXPECT_FALSE(parseArtifact("").has_value());
}

TEST(Store, ArtifactWithHugeDeadlockEdgeCountIsRejected)
{
    // A corrupt count must be rejected by comparing it against the
    // fields present, not by a `2 + n * 5` that overflows int64.
    const std::string head = "harness-artifact v2\nactivity\tA\n"
                             "counts\t1\t2\t3\t4\t5\t6\n";
    for (const char *count :
         {"4611686018427387904", "9223372036854775807",
          "3689348814741910324", "1"}) {
        EXPECT_FALSE(
            parseArtifact(head + "dl\t" + count + "\n").has_value())
            << count;
    }
    // The same header with a well-formed one-edge row parses.
    auto ok = parseArtifact(head + "dl\t1\ta\tb\tM.m\t3\tpost#1\n");
    ASSERT_TRUE(ok.has_value());
    ASSERT_EQ(ok->deadlocks.size(), 1u);
    EXPECT_EQ(ok->deadlocks[0].edges[0].instrIdx, 3);
}

TEST(Store, HashHexRoundTripsAndRejectsMalformed)
{
    for (uint64_t v : {uint64_t{0}, uint64_t{42},
                       uint64_t{0xdeadbeefcafef00dULL}, ~uint64_t{0}})
        EXPECT_EQ(store::parseHashHex(store::hashHex(v)), v);
    for (const char *bad : {"", "00000000000000", "0000000000000000a",
                            "DEADBEEFCAFEF00D", "000000000000000g",
                            "-000000000000001"})
        EXPECT_FALSE(store::parseHashHex(bad).has_value()) << bad;
}

TEST(Store, BlobParsersDropMalformedLinesAndReadAnUnterminatedLast)
{
    EXPECT_EQ(store::parseMethodIndex("A.m\t0000000000000001\n"
                                      "\t0000000000000002\n"
                                      "no tab\n\n"
                                      "B.n\t00000000000000zz\n"
                                      "C.k\t0000000000000003"),
              (std::map<std::string, uint64_t>{{"A.m", 1}, {"C.k", 3}}));
    store::DepIndex dep =
        store::DepIndex::parse("main\thelper\n\tleaf\nhelper\t\n"
                               "\nhelper\tleaf");
    EXPECT_EQ(dep.serialize(), "main\thelper\nhelper\tleaf\n");
}

TEST(Store, DiskKeysStayInsideTheirKindDirectory)
{
    // "." and ".." must not name the kind directory or the store
    // root: each key is one file under `dir/<kind>/`.
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put("kind", "..", "dots");
        first.put("kind", ".", "dot");
    }
    store::Store second(dir.path);
    EXPECT_EQ(second.get("kind", ".."), "dots");
    EXPECT_EQ(second.get("kind", "."), "dot");
    for (const auto &entry :
         fs::recursive_directory_iterator(dir.path)) {
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
}

} // namespace
} // namespace sierra
