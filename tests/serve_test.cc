/**
 * @file
 * The daemon's wire behavior (docs/DAEMON_PROTOCOL.md): canonical JSON
 * round-trips, every documented error code, pre-cancellation, the
 * serveLoop lifecycle over plain streams, and warm analyze hits via
 * the session-owned store. The Protocol group also holds the
 * util::Json property tests over seeded random trees, checked against
 * the independent parser in strict_json.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>

#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"
#include "sierra/detector.hh"
#include "strict_json.hh"

#ifndef SIERRA_GOLDEN_DIR
#define SIERRA_GOLDEN_DIR "tests/golden"
#endif

namespace sierra::serve {
namespace {

int64_t
counterValue(const ServeSession &session, const std::string &name)
{
    for (const auto &[counter, value] : session.metrics().counters()) {
        if (counter == name)
            return value;
    }
    return 0;
}

Json
parseOk(const std::string &text)
{
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse(text, out, error)) << error << ": " << text;
    return out;
}

TEST(Protocol, DumpIsCanonical)
{
    Json obj = Json::object();
    obj.set("b", Json::integer(1));
    obj.set("a", Json::str("x"));
    Json arr = Json::array();
    arr.push(Json::boolean(true));
    arr.push(Json::null());
    arr.push(Json::integer(-7));
    obj.set("list", std::move(arr));
    // Insertion order, no whitespace -- NOT sorted keys.
    EXPECT_EQ(obj.dump(), R"({"b":1,"a":"x","list":[true,null,-7]})");

    Json esc = Json::object();
    esc.set("s", Json::str("tab\tquote\"back\\nl\nctl\x01"));
    EXPECT_EQ(esc.dump(),
              "{\"s\":\"tab\\tquote\\\"back\\\\nl\\nctl\\u0001\"}");
}

TEST(Protocol, ParseRoundTripsDump)
{
    const std::string text =
        R"({"id":3,"kind":"analyze","nested":{"deep":[1,2,{"x":null}]},"ok":false})";
    EXPECT_EQ(parseOk(text).dump(), text);
    // Whitespace-tolerant on input, canonical on output.
    EXPECT_EQ(parseOk(" { \"a\" : [ 1 , 2 ] } ").dump(),
              R"({"a":[1,2]})");
    // \u escapes decode (and re-encode raw when printable ASCII).
    EXPECT_EQ(parseOk(R"({"s":"A"})").dump(), R"({"s":"A"})");
}

TEST(Protocol, ParseRejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("", out, error));
    EXPECT_FALSE(Json::parse("{", out, error));
    EXPECT_FALSE(Json::parse("{\"a\":}", out, error));
    EXPECT_FALSE(Json::parse("[1,]", out, error));
    EXPECT_FALSE(Json::parse("\"unterminated", out, error));
    EXPECT_FALSE(Json::parse("{} extra", out, error));
    EXPECT_FALSE(Json::parse("nul", out, error));
    // The protocol is integer-only: reals are a parse error, not a
    // silent truncation.
    EXPECT_FALSE(Json::parse("{\"x\":1.5}", out, error));
    EXPECT_FALSE(Json::parse("{\"x\":1e3}", out, error));
}

/** A seeded random tree: every kind, `INT64_MIN`/`INT64_MAX`, and
 *  strings drawn from all bytes 0x00-0x7f. Reals only when
 *  `with_reals` (parse() is integer-only). */
Json
randomTree(std::mt19937_64 &rng, int depth, bool with_reals)
{
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    auto text = [&] {
        std::string s;
        for (int i = pick(12); i > 0; --i)
            s += static_cast<char>(pick(0x80));
        return s;
    };
    switch (pick(depth > 0 ? 8 : 6)) {
      case 0: return Json::null();
      case 1: return Json::boolean(pick(2) == 1);
      case 2: {
        const int64_t edges[] = {INT64_MIN, INT64_MAX, 0, -1};
        return Json::integer(pick(3) == 0
                                 ? edges[pick(4)]
                                 : static_cast<int64_t>(rng()));
      }
      case 3:
        if (with_reals)
            return Json::real(std::ldexp(
                static_cast<double>(rng() >> 11) - (1LL << 52),
                pick(200) - 100));
        return Json::integer(pick(1000));
      case 4:
      case 5: return Json::str(text());
      case 6: {
        Json a = Json::array();
        for (int i = pick(5); i > 0; --i)
            a.push(randomTree(rng, depth - 1, with_reals));
        return a;
      }
      default: {
        Json o = Json::object();
        for (int i = pick(5); i > 0; --i)
            o.set(text(), randomTree(rng, depth - 1, with_reals));
        return o;
      }
    }
}

/** Structural equality of two util::Json trees. */
bool
sameTree(const Json &a, const Json &b)
{
    if (a.kind() != b.kind())
        return false;
    switch (a.kind()) {
      case Json::Kind::Null: return true;
      case Json::Kind::Bool: return a.asBool() == b.asBool();
      case Json::Kind::Int: return a.asInt() == b.asInt();
      case Json::Kind::Real: return a.asReal() == b.asReal();
      case Json::Kind::Str: return a.asStr() == b.asStr();
      case Json::Kind::Array:
        if (a.items().size() != b.items().size())
            return false;
        for (size_t i = 0; i < a.items().size(); ++i) {
            if (!sameTree(a.items()[i], b.items()[i]))
                return false;
        }
        return true;
      case Json::Kind::Object:
        if (a.fields().size() != b.fields().size())
            return false;
        for (size_t i = 0; i < a.fields().size(); ++i) {
            if (a.fields()[i].first != b.fields()[i].first ||
                !sameTree(a.fields()[i].second, b.fields()[i].second))
                return false;
        }
        return true;
    }
    return false;
}

/** A util::Json tree equals what the independent parser read. */
bool
sameAsStrict(const Json &a, const test::JsonValue &b)
{
    using test::JsonValue;
    switch (a.kind()) {
      case Json::Kind::Null: return b.kind == JsonValue::Null;
      case Json::Kind::Bool:
        return b.kind == JsonValue::Bool && b.boolean == a.asBool();
      case Json::Kind::Int:
        return b.kind == JsonValue::Number &&
               b.number == static_cast<double>(a.asInt());
      case Json::Kind::Real:
        return b.kind == JsonValue::Number && b.number == a.asReal();
      case Json::Kind::Str:
        return b.kind == JsonValue::String && b.string == a.asStr();
      case Json::Kind::Array:
        if (b.kind != JsonValue::Array ||
            b.array.size() != a.items().size())
            return false;
        for (size_t i = 0; i < a.items().size(); ++i) {
            if (!sameAsStrict(a.items()[i], b.array[i]))
                return false;
        }
        return true;
      case Json::Kind::Object:
        if (b.kind != JsonValue::Object ||
            b.object.size() != a.fields().size())
            return false;
        for (const auto &[key, value] : a.fields()) {
            const JsonValue *other = b.field(key);
            if (!other || !sameAsStrict(value, *other))
                return false;
        }
        return true;
    }
    return false;
}

TEST(Protocol, RandomTreesRoundTripThroughDumpAndParse)
{
    std::mt19937_64 rng(20260417);
    for (int i = 0; i < 500; ++i) {
        Json tree = randomTree(rng, 4, false);
        Json back = parseOk(tree.dump());
        EXPECT_TRUE(sameTree(tree, back)) << tree.dump();
    }
    // Every byte 0x00-0x7f in one string, as a value and as a key.
    std::string all;
    for (int c = 0; c < 0x80; ++c)
        all += static_cast<char>(c);
    Json obj = Json::object();
    obj.set(all, Json::str(all));
    EXPECT_TRUE(sameTree(obj, parseOk(obj.dump())));
}

TEST(Protocol, PrettyOutputParsesStrictlyToTheSameTree)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 500; ++i) {
        Json tree = randomTree(rng, 4, true);
        test::JsonValue parsed;
        const std::string text = tree.pretty();
        ASSERT_TRUE(test::JsonParser(text).parse(parsed)) << text;
        EXPECT_TRUE(sameAsStrict(tree, parsed)) << text;
    }
}

TEST(Protocol, RealsPrintInShortestFormThatReadsBackExactly)
{
    std::mt19937_64 rng(11);
    for (int i = 0; i < 20000; ++i) {
        double v;
        uint64_t bits = rng();
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            continue;
        const std::string text = Json::real(v).dump();
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_EQ(Json::real(0.1).dump(), "0.1");
    EXPECT_EQ(Json::real(40.0).dump(), "40");
    EXPECT_EQ(Json::real(1e300 * 1e300).dump(), "null");
}

/** What an ostream at default precision prints for `v`. */
std::string
ostreamText(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

TEST(Protocol, SixDigitRealsMatchOstreamOnOrderedPct)
{
    // orderedPct is a percentage: any value in [0, 100].
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> pct(0.0, 100.0);
    for (int i = 0; i < 20000; ++i) {
        double v = pct(rng);
        EXPECT_EQ(Json::real(util::roundSignificant(v, 6)).dump(),
                  ostreamText(v));
    }
    // The values the three JSON goldens pin, at full precision.
    for (const std::string name : {"FBReader", "Astrid", "XBMC remote"}) {
        corpus::BuiltApp built = corpus::buildNamedApp(name);
        const double v =
            SierraDetector(*built.app).analyze(SierraOptions{}).orderedPct;
        const std::string text =
            Json::real(util::roundSignificant(v, 6)).dump();
        EXPECT_EQ(text, ostreamText(v)) << name;
        std::string file = name;
        std::replace(file.begin(), file.end(), ' ', '_');
        std::ifstream in(std::string(SIERRA_GOLDEN_DIR) + "/" + file +
                         ".report.json");
        std::stringstream golden;
        golden << in.rdbuf();
        EXPECT_NE(golden.str().find("\"orderedPct\": " + text + ",\n"),
                  std::string::npos)
            << name;
    }
}

TEST(Protocol, PrettyLayoutExpandsRootAndItsArraysOnly)
{
    Json inner = Json::array();
    inner.push(Json::integer(1));
    inner.push(Json::object());
    Json item = Json::object();
    item.set("k", Json::str("v"));
    item.set("list", std::move(inner));
    Json list = Json::array();
    list.push(item);
    list.push(Json::integer(2));
    Json root = Json::object();
    root.set("n", Json::integer(1));
    root.set("obj", item);
    root.set("list", std::move(list));
    root.set("empty", Json::array());
    EXPECT_EQ(root.pretty(), "{\n"
                             "  \"n\": 1,\n"
                             "  \"obj\": {\"k\": \"v\", \"list\": [1, {}]},\n"
                             "  \"list\": [\n"
                             "    {\"k\": \"v\", \"list\": [1, {}]},\n"
                             "    2\n"
                             "  ],\n"
                             "  \"empty\": []\n"
                             "}");
    EXPECT_EQ(Json::array().pretty(), "[]");
}

TEST(Protocol, ParseBoundsIntegersAndNesting)
{
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse("[-9223372036854775808,9223372036854775807]",
                            out, error));
    EXPECT_EQ(out.items()[0].asInt(), INT64_MIN);
    EXPECT_EQ(out.items()[1].asInt(), INT64_MAX);
    EXPECT_FALSE(Json::parse("9223372036854775808", out, error));
    EXPECT_EQ(error, "integer out of range at offset 0");
    EXPECT_FALSE(Json::parse("[-9223372036854775809]", out, error));

    const int limit = Json::kMaxDepth;
    EXPECT_TRUE(Json::parse(std::string(limit, '[') +
                                std::string(limit, ']'),
                            out, error));
    EXPECT_FALSE(Json::parse(std::string(limit + 1, '[') +
                                 std::string(limit + 1, ']'),
                             out, error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos);
}

TEST(Serve, PingHelloAndShutdown)
{
    ServeSession session(ServeOptions{});
    EXPECT_EQ(session.handleLine(R"({"id":1,"kind":"ping"})"),
              R"({"id":1,"result":{"pong":true}})");
    EXPECT_EQ(
        session.handleLine(R"({"id":2,"kind":"hello"})"),
        R"({"id":2,"result":{"server":"sierra","schemaVersion":1,"store":"memory"}})");
    EXPECT_FALSE(session.done());
    EXPECT_EQ(session.handleLine(R"({"id":3,"kind":"shutdown"})"),
              R"({"id":3,"result":{"shutdown":true}})");
    EXPECT_TRUE(session.done());
}

TEST(Serve, ErrorCodes)
{
    ServeSession session(ServeOptions{});
    // bad-json: unparseable line; id unknowable, reported as 0.
    Json r = parseOk(session.handleLine("not json"));
    EXPECT_EQ(r.field("id")->asInt(), 0);
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
    // bad-json: parseable but not an object.
    r = parseOk(session.handleLine("[1,2]"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
    // missing-field: no id.
    r = parseOk(session.handleLine(R"({"kind":"ping"})"));
    EXPECT_EQ(r.field("id")->asInt(), 0);
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // missing-field: no kind (id echoes back).
    r = parseOk(session.handleLine(R"({"id":9})"));
    EXPECT_EQ(r.field("id")->asInt(), 9);
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // missing-field: analyze without app.
    r = parseOk(session.handleLine(R"({"id":10,"kind":"analyze"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // unknown-kind.
    r = parseOk(session.handleLine(R"({"id":11,"kind":"frobnicate"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "unknown-kind");
    // parse-error: analyze with a malformed app bundle.
    r = parseOk(session.handleLine(
        R"({"id":12,"kind":"analyze","app":"not an app bundle"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "parse-error");
    EXPECT_NE(r.field("error")->field("message")->asStr().find("line"),
              std::string::npos);

    EXPECT_EQ(counterValue(session, "serve.errors"), 7);
}

/** A malformed line is answered with `bad-json`, and the session
 *  goes on to answer the next request. */
void
expectBadJsonThenPing(const std::string &line)
{
    ServeSession session(ServeOptions{});
    Json r = parseOk(session.handleLine(line));
    EXPECT_EQ(r.field("id")->asInt(), 0);
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
    EXPECT_NE(r.field("error")->field("message")->asStr().find("offset"),
              std::string::npos);
    EXPECT_EQ(session.handleLine(R"({"id":2,"kind":"ping"})"),
              R"({"id":2,"result":{"pong":true}})");
}

TEST(Serve, IntegerOutsideInt64IsBadJson)
{
    expectBadJsonThenPing(R"({"id":99999999999999999999,"kind":"ping"})");
}

TEST(Serve, DeepNestingIsBadJson)
{
    expectBadJsonThenPing(std::string(200000, '[') +
                          std::string(200000, ']'));
}

TEST(Serve, PreCancellation)
{
    ServeSession session(ServeOptions{});
    // The loop is serial: cancel names a FUTURE id.
    EXPECT_EQ(
        session.handleLine(R"({"id":1,"kind":"cancel","target":5})"),
        R"({"id":1,"result":{"target":5}})");
    // Unrelated ids are unaffected.
    Json r = parseOk(session.handleLine(R"({"id":2,"kind":"ping"})"));
    EXPECT_NE(r.field("result"), nullptr);
    // The canceled id is rejected when it arrives...
    r = parseOk(session.handleLine(R"({"id":5,"kind":"ping"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "canceled");
    // ...exactly once: the mark is consumed.
    r = parseOk(session.handleLine(R"({"id":5,"kind":"ping"})"));
    EXPECT_NE(r.field("result"), nullptr);
    EXPECT_EQ(counterValue(session, "serve.canceled"), 1);
}

TEST(Serve, AnalyzeWarmHitThroughSessionStore)
{
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    const std::string app_text = framework::printAppText(*built.app);

    Json request = Json::object();
    request.set("id", Json::integer(1));
    request.set("kind", Json::str("analyze"));
    request.set("app", Json::str(app_text));

    ServeSession session(ServeOptions{});
    Json cold = parseOk(session.handleLine(request.dump()));
    const Json *cold_result = cold.field("result");
    ASSERT_NE(cold_result, nullptr);
    EXPECT_EQ(cold_result->field("app")->asStr(), "OpenSudoku");
    EXPECT_TRUE(
        cold_result->field("store")->field("firstSubmission")->asBool());
    EXPECT_EQ(
        cold_result->field("store")->field("harnessesReused")->asInt(),
        0);

    request.set("id", Json::integer(2));
    Json warm = parseOk(session.handleLine(request.dump()));
    const Json *warm_result = warm.field("result");
    ASSERT_NE(warm_result, nullptr);
    const Json *warm_store = warm_result->field("store");
    EXPECT_FALSE(warm_store->field("firstSubmission")->asBool());
    EXPECT_EQ(warm_store->field("harnessesComputed")->asInt(), 0);
    EXPECT_GT(warm_store->field("harnessesReused")->asInt(), 0);
    EXPECT_EQ(warm_store->field("methodsChanged")->asInt(), 0);
    // Warm == cold on the wire too: same report string, same counts.
    EXPECT_EQ(warm_result->field("report")->asStr(),
              cold_result->field("report")->asStr());
    EXPECT_EQ(warm_result->field("races")->asInt(),
              cold_result->field("races")->asInt());

    EXPECT_GT(counterValue(session, "store.harness_hits"), 0);
}

TEST(Serve, LoopRunsUntilShutdownAndIgnoresBlankLines)
{
    std::istringstream in("{\"id\":1,\"kind\":\"ping\"}\n"
                          "\n"
                          "{\"id\":2,\"kind\":\"stats\"}\n"
                          "{\"id\":3,\"kind\":\"shutdown\"}\n"
                          "{\"id\":4,\"kind\":\"ping\"}\n");
    std::ostringstream out;
    int handled = serveLoop(in, out, ServeOptions{});
    EXPECT_EQ(handled, 3) << "shutdown must stop the loop";

    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        Json r = parseOk(line);
        EXPECT_NE(r.field("id"), nullptr);
        ++count;
    }
    EXPECT_EQ(count, 3);
}

TEST(Serve, StatsReportsCountersAndStoreTraffic)
{
    ServeSession session(ServeOptions{});
    session.handleLine(R"({"id":1,"kind":"ping"})");
    Json r = parseOk(session.handleLine(R"({"id":2,"kind":"stats"})"));
    const Json *result = r.field("result");
    ASSERT_NE(result, nullptr);
    // Counts include the stats request itself (incremented on entry).
    EXPECT_EQ(result->field("counters")->field("serve.requests")
                  ->asInt(),
              2);
    const Json *store = result->field("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->field("puts")->asInt(), 0);
}

} // namespace
} // namespace sierra::serve
