/**
 * @file
 * Tests for the Chrome trace-event session (util/trace): the output is
 * strictly valid JSON, every duration span is balanced, every enabled
 * pipeline stage gets a span, and the event *set* (excluding the
 * jobs-dependent "worker" category) is identical at every jobs count.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "strict_json.hh"
#include "util/trace.hh"

namespace sierra {
namespace {

namespace trace = util::trace;
using test::JsonParser;
using test::JsonValue;

/** RAII: guarantee the global session is stopped and empty afterwards
 *  so tests compose when the whole binary runs in one process. */
struct SessionGuard {
    ~SessionGuard()
    {
        trace::stop();
        trace::clear();
    }
};

/** Run the detector on a corpus app with tracing on; return the
 *  parsed trace events. */
std::vector<JsonValue>
traceAnalyze(const std::string &app_name, int jobs)
{
    corpus::BuiltApp built = corpus::buildNamedApp(app_name);
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = jobs;
    trace::start();
    detector.analyze(options);
    trace::stop();
    std::string json = trace::toJson();
    trace::clear();

    JsonValue root;
    EXPECT_TRUE(JsonParser(json).parse(root)) << json.substr(0, 400);
    EXPECT_EQ(root.kind, JsonValue::Object);
    const JsonValue *events = root.field("traceEvents");
    EXPECT_NE(events, nullptr);
    EXPECT_EQ(events->kind, JsonValue::Array);
    return events ? events->array : std::vector<JsonValue>{};
}

TEST(Trace, DisabledByDefaultCollectsNothing)
{
    SessionGuard guard;
    trace::clear();
    ASSERT_FALSE(trace::enabled());
    trace::instant("test", "ignored");
    { SIERRA_TRACE_SPAN(span, "test", "ignored", util::Json()); }
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Trace, SpanMacroSkipsArgEvaluationWhenDisabled)
{
    SessionGuard guard;
    ASSERT_FALSE(trace::enabled());
    int evaluations = 0;
    auto expensive = [&]() {
        ++evaluations;
        return util::Json::object();
    };
    {
        SIERRA_TRACE_SPAN(span, "test", "lazy", expensive());
    }
#ifndef SIERRA_TRACE_DISABLED
    EXPECT_EQ(evaluations, 0);
#endif
}

// The next two tests (and InstantEventsPerRefutedPair below) assert
// that instrumentation points actually emit events, so they cannot
// run when -DSIERRA_DISABLE_TRACING=ON compiles the call sites out.
#ifndef SIERRA_TRACE_DISABLED

TEST(Trace, ValidJsonBalancedSpans)
{
    SessionGuard guard;
    std::vector<JsonValue> events = traceAnalyze("OpenSudoku", 1);
    ASSERT_FALSE(events.empty());

    // Every event has the mandatory fields; B/E nest per track.
    std::map<double, std::vector<std::string>> stacks;
    for (const JsonValue &e : events) {
        std::string ph = e.str("ph");
        ASSERT_FALSE(ph.empty());
        const JsonValue *tid = e.field("tid");
        ASSERT_NE(tid, nullptr);
        ASSERT_EQ(tid->kind, JsonValue::Number);
        if (ph == "M")
            continue;
        const JsonValue *ts = e.field("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_EQ(ts->kind, JsonValue::Number);
        ASSERT_GE(ts->number, 0.0);
        if (ph == "B") {
            stacks[tid->number].push_back(e.str("name"));
        } else if (ph == "E") {
            auto &stack = stacks[tid->number];
            ASSERT_FALSE(stack.empty())
                << "E without B: " << e.str("name");
            EXPECT_EQ(stack.back(), e.str("name"));
            stack.pop_back();
        } else {
            EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
            EXPECT_EQ(e.str("s"), "t");
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST(Trace, EverySierraStageGetsASpan)
{
    SessionGuard guard;
    std::vector<JsonValue> events = traceAnalyze("OpenSudoku", 1);
    std::set<std::string> stage_names;
    for (const JsonValue &e : events) {
        if (e.str("ph") == "B" && e.str("cat") == "stage")
            stage_names.insert(e.str("name"));
    }
    for (const char *expected :
         {"stage.cg_pa", "stage.hbg", "stage.dataflow",
          "stage.racy.extract", "stage.escape", "stage.racy.pairs",
          "stage.lockset", "stage.deadlock", "stage.enablement",
          "stage.ifds", "stage.refutation", "stage.nullflow"}) {
        EXPECT_TRUE(stage_names.count(expected))
            << "missing span for " << expected;
    }
}

#endif // SIERRA_TRACE_DISABLED

TEST(Trace, EventSetIsJobsDeterministicOutsideWorkerCategory)
{
    SessionGuard guard;
    auto signature = [](const std::vector<JsonValue> &events) {
        // Multiset of (ph, cat, name); "worker" spans and per-thread
        // metadata legitimately vary with the worker count.
        std::multiset<std::string> out;
        for (const JsonValue &e : events) {
            std::string ph = e.str("ph");
            std::string cat = e.str("cat");
            if (ph == "M" || cat == "worker")
                continue;
            out.insert(ph + "|" + cat + "|" + e.str("name"));
        }
        return out;
    };
    auto serial = signature(traceAnalyze("ConnectBot", 1));
    auto parallel = signature(traceAnalyze("ConnectBot", 4));
    EXPECT_EQ(serial, parallel);
}

#ifndef SIERRA_TRACE_DISABLED

TEST(Trace, InstantEventsPerRefutedPair)
{
    SessionGuard guard;
    // ConnectBot has both lockset and symbolic refutations.
    corpus::BuiltApp built = corpus::buildNamedApp("ConnectBot");
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = 1;
    trace::start();
    AppReport report = detector.analyze(options);
    trace::stop();
    std::string json = trace::toJson();
    trace::clear();
    JsonValue root;
    ASSERT_TRUE(JsonParser(json).parse(root));

    int lockset = 0, symbolic = 0;
    for (const JsonValue &e : root.field("traceEvents")->array) {
        if (e.str("ph") != "i" || e.str("cat") != "refutation")
            continue;
        const JsonValue *args = e.field("args");
        ASSERT_NE(args, nullptr);
        std::string by = args->str("by");
        if (by == "lockset")
            ++lockset;
        else if (by == "symbolic")
            ++symbolic;
    }
    EXPECT_EQ(lockset, report.locksetRefuted);
    int symbolic_expected = 0;
    for (const HarnessAnalysis &ha : report.perHarness)
        symbolic_expected += ha.refutation.refuted;
    EXPECT_EQ(symbolic, symbolic_expected);
}

#endif // SIERRA_TRACE_DISABLED

TEST(Trace, WriteJsonProducesParseableFile)
{
    SessionGuard guard;
    trace::start();
    trace::instant("test", "marker");
    std::string path = ::testing::TempDir() + "sierra_trace_test.json";
    ASSERT_TRUE(trace::writeJson(path));
    EXPECT_FALSE(trace::enabled()); // writeJson stops the session

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue root;
    ASSERT_TRUE(JsonParser(buffer.str()).parse(root));
    EXPECT_EQ(root.str("displayTimeUnit"), "ms");
    std::remove(path.c_str());
}

TEST(Trace, StopPreventsLaterRecording)
{
    SessionGuard guard;
    trace::start();
    trace::instant("test", "one");
    trace::stop();
    trace::instant("test", "two");
    EXPECT_EQ(trace::eventCount(), 1u);
    trace::clear();
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Trace, ThreadNameTableStaysBoundedAcrossAnalyzeCalls)
{
    // Every analyze() at jobs > 1 runs fresh pools whose workers name
    // their tracks. Exited workers hand their track ids back, so the
    // name table is bounded by the peak number of live threads -- at
    // jobs 4 at most 16: four task threads, each of which may run a
    // nested refutation pool of three -- not by the number of calls.
    constexpr int kJobs = 4;
    const size_t before = trace::threadNameCount();
    corpus::BuiltApp built = corpus::buildNamedApp("Astrid");
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = kJobs;
    for (int i = 0; i < 50; ++i)
        detector.analyze(options);
    EXPECT_LE(trace::threadNameCount(),
              std::max<size_t>(before, kJobs * kJobs));

#ifndef SIERRA_TRACE_DISABLED
    // Recycled tracks still carry names in a trace taken after the
    // pools joined (asserts emitted events, so not under notrace).
    SessionGuard guard;
    std::set<double> carrying, named;
    for (const JsonValue &e : traceAnalyze("Astrid", kJobs)) {
        double tid = e.field("tid")->number;
        if (e.str("ph") == "M")
            named.insert(tid);
        else
            carrying.insert(tid);
    }
    EXPECT_GT(carrying.size(), 1u) << "the run should use pool workers";
    EXPECT_EQ(carrying, named);
#endif
}

} // namespace
} // namespace sierra
