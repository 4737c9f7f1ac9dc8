// Tests of the benchmark's own helpers: the percentile rule, closed-
// loop timing, failure counting and span self time. Build and run with
// `python3 sierrabench/run.py --selftest`; exits non-zero on a failure.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "spans.hh"
#include "stats.hh"

using namespace sierrabench;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

void
sleepMs(double ms)
{
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentileRule()
{
    CHECK(percentile(oneTo(100), 50) == 50);
    CHECK(percentile(oneTo(100), 90) == 90);
    CHECK(percentile(oneTo(10), 100) == 10);
    CHECK(percentile(oneTo(1), 90) == 1);
    CHECK(std::isnan(percentile({}, 50)));

    // The highest reported percentile keeps at least ten samples above.
    CHECK(samplesBeyond(100, 90) == 10);
    CHECK(samplesBeyond(99, 90) == 9);
    CHECK(samplesBeyond(20, 50) == 10);
    CHECK(minSamplesFor(90) == 100);
    CHECK(minSamplesFor(50) == 20);
    for (int n = minSamplesFor(90); n < 1000; n += 37)
        CHECK(samplesBeyond(n, 90) >= kMinSamplesBeyond);

    // Failed requests enter as +infinity: with more than 10% failed the
    // p90 misses any limit.
    std::vector<double> v = oneTo(100);
    for (int i = 0; i < 11; ++i)
        v[static_cast<size_t>(i)] = INFINITY;
    CHECK(std::isinf(percentile(v, 90)));
    CHECK(!std::isinf(percentile(v, 50)));

    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 2, 3}) == 2.5);
}

void
testClosedLoopTiming()
{
    // Each request takes 2 ms and its check 1 ms; the latency must
    // cover the request only, and a request is sent only after the
    // previous one was checked.
    int in_flight = 0;
    bool overlapped = false;
    const LoopResult r = runClosedLoop(
        0.05, 5, 5.0,
        [&](int64_t) {
            overlapped = overlapped || in_flight != 0;
            ++in_flight;
            sleepMs(2);
        },
        [&](int64_t) {
            --in_flight;
            sleepMs(1);
            return Outcome{true, ""};
        });
    CHECK(!overlapped);
    CHECK(r.attempted >= 5);
    CHECK(r.latencyMs.size() == static_cast<size_t>(r.attempted));
    CHECK(r.sentS.size() == r.latencyMs.size());
    for (size_t i = 0; i < r.latencyMs.size(); ++i) {
        CHECK(r.latencyMs[i] >= 2.0);
        CHECK(r.cpuMs[i] < 1.0); // sleeping costs no CPU
        if (i + 1 == r.latencyMs.size())
            break;
        // The next send waits for this request and its 1 ms check, and
        // the check is not part of the latency.
        const double gap_ms = 1e3 * (r.sentS[i + 1] - r.sentS[i]);
        CHECK(gap_ms >= 3.0);
        CHECK(r.latencyMs[i] <= gap_ms - 1.0);
    }

    // CPU is measured over the request only: a request that spins for
    // 3 ms costs about that much CPU, its 3 ms spinning check none.
    auto spin = [](double ms) {
        const auto end = std::chrono::steady_clock::now() +
                         std::chrono::duration<double, std::milli>(ms);
        while (std::chrono::steady_clock::now() < end) {
        }
    };
    const LoopResult busy = runClosedLoop(
        0.0, 3, 5.0, [&](int64_t) { spin(3); },
        [&](int64_t) {
            spin(3);
            return Outcome{true, ""};
        });
    for (double cpu : busy.cpuMs)
        CHECK(cpu > 1.0 && cpu < 5.0);

    // The minimum request count extends a short phase...
    const LoopResult min =
        runClosedLoop(0.0, 7, 5.0, [](int64_t) {},
                      [](int64_t) { return Outcome{true, ""}; });
    CHECK(min.attempted == 7);
    // ...but never past the hard limit.
    const LoopResult hard = runClosedLoop(
        0.0, 1000000, 0.02, [](int64_t) { sleepMs(1); },
        [](int64_t) { return Outcome{true, ""}; });
    CHECK(hard.attempted < 1000000);
    CHECK(hard.sentS.back() < 0.5);
}

void
testFailureCounting()
{
    // Every fourth request fails; failures stay counted everywhere.
    const LoopResult r = runClosedLoop(
        0.0, 40, 5.0, [](int64_t) {},
        [](int64_t i) {
            return Outcome{i % 4 != 3, i % 2 ? "edit" : "resubmit"};
        });
    CHECK(r.attempted == 40);
    CHECK(r.failed == 10);
    CHECK(r.failedFrac() == 0.25);
    const std::vector<double> all = r.samples();
    int inf = 0;
    for (double v : all)
        inf += std::isinf(v) ? 1 : 0;
    CHECK(inf == 10);
    CHECK(r.samples("edit").size() == 20);
    CHECK(r.samples("resubmit").size() == 20);

    const LoopResult head = r.prefix(16);
    CHECK(head.attempted == 16 && head.failed == 4);
    CHECK(head.sentS.size() == 16 && head.cpuMs.size() == 16);

    // Per group, the lower quartile of its requests' latency and CPU; a
    // group all of whose requests failed reads +infinity.
    LoopResult g;
    for (int i = 0; i < 8; ++i) {
        g.latencyMs.push_back(i + 1);
        g.cpuMs.push_back(10 * (i + 1));
        g.outcomes.push_back({i != 4, i < 4 ? "edit" : "resubmit", i / 4});
    }
    g.latencyMs[5] = 100; // group 1: a failure, 100, 7 and 8
    std::vector<GroupStat> q = g.groups(25);
    CHECK(q.size() == 2);
    CHECK(q[0].latencyMs == 1 && q[0].cpuMs == 10 && q[0].kind == "edit");
    CHECK(q[1].latencyMs == 7 && q[1].cpuMs == 50 && q[1].requests == 4);
    CHECK(q[1].kind == "resubmit");
    g.outcomes[5].ok = g.outcomes[6].ok = g.outcomes[7].ok = false;
    q = g.groups(25);
    CHECK(std::isinf(q[1].latencyMs));

    // A single failed request among many makes the run incorrect, and
    // the printed result says so.
    RunResult clean;
    clean.addPhase("untraced",
                   runClosedLoop(0.0, 20, 5.0, [](int64_t) {},
                                 [](int64_t) { return Outcome{true, ""}; }));
    CHECK(clean.correct && clean.attempted == 20 && clean.failed == 0);
    RunResult one;
    one.addPhase("untraced",
                 runClosedLoop(0.0, 500, 5.0, [](int64_t) {},
                               [](int64_t i) {
                                   return Outcome{i != 123, ""};
                               }));
    CHECK(!one.correct && one.attempted == 500 && one.failed == 1);
    CHECK(resultLine(one).rfind(
              "{\"correct\": false, \"attempted\": 500, \"failed\": 1, ", 0) ==
          0);
    one.addPhase("traced", runClosedLoop(0.0, 20, 5.0, [](int64_t) {},
                                         [](int64_t) {
                                             return Outcome{true, ""};
                                         }));
    CHECK(!one.correct && one.attempted == 520 && one.failed == 1);
}

void
testSpanSelfTime()
{
    // parent [0, 10 ms) with overlapping children [1, 4) and [3, 6):
    // the children cover 5 ms, so the parent's self time is 5 ms.
    std::vector<Span> spans = {
        {"parent", 0, 10000000, -1, 0},
        {"a", 1000000, 4000000, 0, 0},
        {"b", 3000000, 6000000, 0, 0},
        {"b", 7000000, 8000000, -1, 1},
    };
    const std::vector<double> self = SpanRecorder::selfMs(spans);
    CHECK(std::fabs(self[0] - 5.0) < 1e-9);
    CHECK(std::fabs(self[1] - 3.0) < 1e-9);
    const auto by_name = SpanRecorder::selfMsByName(spans);
    CHECK(std::fabs(by_name.at("b") - 4.0) < 1e-9);

    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", -1, 3);
        ScopedSpan inner(&rec, "inner", outer.id(), 3);
        sleepMs(1);
    }
    const std::vector<Span> recorded = rec.spans();
    CHECK(recorded.size() == 2);
    CHECK(recorded[1].parent == 0 && recorded[1].request == 3);
    CHECK(recorded[0].ms() >= recorded[1].ms());
    ScopedSpan untraced(nullptr, "none", -1, 0);
    CHECK(untraced.id() == -1);
}

void
testJson()
{
    CHECK(jsonNumber(INFINITY) == "1000000000");
    CHECK(jsonNumber(0.5) == "0.5");
    CHECK(jsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
    CHECK(hex64(fnv1a("")) == "cbf29ce484222325");
}

} // namespace

int
main()
{
    testPercentileRule();
    testClosedLoopTiming();
    testFailureCounting();
    testSpanSelfTime();
    testJson();
    if (failures == 0)
        std::printf("sierrabench selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
