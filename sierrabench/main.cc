/**
 * @file
 * sierrabench: bundle-to-report latency of SIERRA on three workloads.
 *
 *   sierrabench --workload fleet|deep|serve --seed N --seconds S
 *               --trace 0|1 --out DIR
 *
 * Every request hands the program AIR bundle text and is timed until
 * the report text comes back, in a closed loop with one client. With
 * --trace 0 the run measures the end-to-end metrics; with --trace 1 it
 * runs an untraced phase and a traced phase of S/2 seconds each and
 * prints the per-layer metrics of the traced phase. The last stdout
 * line is the JSON result; README.md in this directory documents every
 * metric.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/store.hh"
#include "corpus/ground_truth.hh"
#include "framework/app_text.hh"
#include "inputs.hh"
#include "replica.hh"
#include "serve/incremental.hh"
#include "serve/serve.hh"
#include "sierra/artifact.hh"
#include "sierra/detector.hh"
#include "spans.hh"
#include "stats.hh"

namespace fs = std::filesystem;

namespace sierrabench {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

// ---------------------------------------------------------------------
// Workload shapes. Sizes are chosen so a 30-second run holds well over
// the 100 samples a p90 needs; kMinRequests extends a shorter phase.

constexpr int kSetupRepeats = 9; //!< setup_s: lower quartile of these
constexpr int kMinRequests = 120; //!< floor per closed-loop phase
constexpr double kGroupQuantile = 25; //!< see addEndToEnd

const AppShape kFleetShape{200, 1, 4, 1, 3};  // F-Droid-analogue apps
const AppShape kDeepShape{21, 4, 4, 20, 28, 0xDEE9}; // large harnesses
const AppShape kServeShape{20, 4, 4, 3, 6};   // medium apps
constexpr int kServeEdits = 3;       //!< edit variants per serve app
// The serve stream's share of edits among requests. No measured daemon
// traffic gives this ratio; half is an assumption, and serve's
// combined report metrics depend on it (an edit costs about twice a
// resubmission). edit_ms_* and resubmit_ms_p50 report each class alone.
constexpr double kServeEditShare = 0.5;

// ---------------------------------------------------------------------
// Build and run metadata.

bool
buildIsSanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::string(SIERRABENCH_CXX_FLAGS).find("-fsanitize") !=
           std::string::npos;
#endif
}

bool
buildIsOptimized()
{
#if defined(__OPTIMIZE__)
    const std::string type = SIERRABENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo" ||
           type == "MinSizeRel";
#else
    return false;
#endif
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------------
// Result assembly.

void
printResult(const RunResult &r)
{
    std::string meta = "{\"meta\":{";
    bool first = true;
    for (const auto &[k, v] : r.meta) {
        meta += (first ? "" : ",") + jsonString(k) + ":" + v;
        first = false;
    }
    meta += "}}";
    std::cout << meta << "\n";
    for (const std::string &p : r.problems)
        std::cerr << "sierrabench: " << p << "\n";
    std::cout << resultLine(r) << std::endl;
}

/**
 * End-to-end metrics of one untraced phase, taken over every request
 * it made: nearest-rank latency percentiles over the requests, correct
 * reports over the summed request latency, and the mean process CPU of
 * a request. The time between requests, where the benchmark scores the
 * report, is left out of all of them.
 *
 * `across_apps` (fleet only): the latency percentiles and throughput
 * are taken over apps instead, each app's latency the lower quartile of
 * its requests. On a shared machine fleet's 2 ms requests lose time to
 * other tenants in bursts of minutes, and the per-request figures moved
 * by 28-82% between two sets of runs (README.md); the lower quartile
 * keeps most of that out but still moves with any change that slows
 * more than a quarter of an app's requests. CPU per report stays a
 * mean over every request everywhere.
 *
 * `classes` (serve): edits and resubmissions are reported apart;
 * elsewhere every request is a full cold analysis, which is what an
 * edit or a resubmission costs without a store, so those metrics are
 * taken over all requests.
 */
void
addEndToEnd(RunResult &out, const LoopResult &loop, double setup_s,
            bool across_apps, bool classes)
{
    const std::vector<GroupStat> groups =
        across_apps ? loop.groups(kGroupQuantile) : std::vector<GroupStat>{};
    auto pct = [&](const std::string &kind, double q) {
        std::vector<double> v;
        if (across_apps) {
            for (const GroupStat &g : groups)
                v.push_back(g.latencyMs);
        } else {
            v = loop.samples(kind);
        }
        if (static_cast<int>(v.size()) < minSamplesFor(q))
            out.fail("too few samples for a p" + jsonNumber(q));
        return percentile(v, q);
    };
    const std::string edit = classes ? "edit" : "";
    const std::string resubmit = classes ? "resubmit" : "";

    double busy_ms = 0, cpu_ms = 0;
    for (size_t i = 0; i < loop.latencyMs.size(); ++i) {
        busy_ms += loop.latencyMs[i];
        cpu_ms += loop.cpuMs[i];
    }
    if (across_apps) {
        busy_ms = 0;
        for (const GroupStat &g : groups)
            busy_ms += static_cast<double>(g.requests) * g.latencyMs;
    }
    const double n = static_cast<double>(loop.attempted);
    out.add("report_ms_p50", pct("", 50), "ms");
    out.add("report_ms_p90", pct("", 90), "ms");
    out.add("reports_per_s",
            static_cast<double>(loop.attempted - loop.failed) /
                (busy_ms / 1e3),
            "1/s");
    out.add("cpu_ms_per_report", cpu_ms / n, "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("setup_s", setup_s, "s");
    out.add("ok_frac", 1.0 - loop.failedFrac(), "frac");
    out.add("edit_ms_p50", pct(edit, 50), "ms");
    out.add("edit_ms_p90", pct(edit, 90), "ms");
    out.add("resubmit_ms_p50", pct(resubmit, 50), "ms");

    out.meta["samples"] = std::to_string(loop.attempted);
    if (across_apps)
        out.meta["groups"] = std::to_string(groups.size());
    out.meta["failed_frac"] = jsonNumber(loop.failedFrac());
}

/** One line per request: index, send time (s), latency (ms), CPU (ms),
 *  ok, class, group. */
void
writeSeries(RunResult &out, const LoopResult &loop, const fs::path &path)
{
    std::ofstream file(path);
    for (size_t i = 0; i < loop.latencyMs.size(); ++i)
        file << i << "\t" << loop.sentS[i] << "\t" << loop.latencyMs[i]
             << "\t" << loop.cpuMs[i] << "\t"
             << (loop.outcomes[i].ok ? 1 : 0) << "\t"
             << loop.outcomes[i].kind << "\t" << loop.outcomes[i].group
             << "\n";
    out.meta["series_file"] = jsonString(path.string());
}

/** Accumulators of the per-layer metrics over traced requests. */
struct LayerTotals {
    int64_t requests{0};
    double bundleBytes{0};
    double plans{0}, actions{0};
    double ptaVisits{0}, ptaSkips{0};
    double ifdsSolves{0}, ifdsReuses{0};
    double closurePairs{0};
    double pairsConsidered{0}, prefilterSkipped{0};
    double accessesTotal{0}, accessesDropped{0};
    double symQueries{0}, symStates{0}, symRefuted{0}, symSurvived{0};
    double symCacheHits{0}, symTimedOut{0}, symCpuMs{0};
    double unaccountedMs{0};
    double poolWaitMs{0}, poolOverheadMs{0}, poolTaskMs{0},
        poolCapacityMs{0};
    // serve
    double reused{0}, harnesses{0}, dirty{0};
    double storeIoMs{0}, storePuts{0}, storeBytes{0};

    void
    addHarness(const sierra::HarnessAnalysis &ha)
    {
        const auto &pta = ha.pta->stats;
        ptaVisits += static_cast<double>(pta.instrVisits);
        ptaSkips += static_cast<double>(pta.deltaSkips);
        if (ha.inter) {
            ifdsSolves += static_cast<double>(
                ha.inter->stats().summaryComputations);
            ifdsReuses +=
                static_cast<double>(ha.inter->stats().summaryReuses);
        }
        actions += ha.numActions();
        closurePairs += static_cast<double>(ha.hbEdges());
        pairsConsidered +=
            static_cast<double>(ha.racyStats.accessPairsConsidered);
        prefilterSkipped +=
            static_cast<double>(ha.racyStats.prefilterSkipped);
        accessesTotal += ha.accessesTotal;
        accessesDropped += ha.accessesDropped;
        const auto &ref = ha.refutation;
        symQueries += static_cast<double>(ref.exec.queries);
        symStates += static_cast<double>(ref.exec.statesExpanded);
        symCacheHits += static_cast<double>(ref.exec.cacheHits);
        symRefuted += ref.refuted;
        symSurvived += ref.survived;
        symTimedOut += ref.timedOut;
        symCpuMs += 1e3 * ref.cpuSeconds;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Every per-layer metric, from the traced phase's spans and totals. */
void
addPerLayer(RunResult &out, const std::vector<Span> &spans,
            const LayerTotals &t, double traced_p50, double untraced_p50)
{
    const std::map<std::string, double> self =
        SpanRecorder::selfMsByName(spans);
    const double n = static_cast<double>(std::max<int64_t>(t.requests, 1));
    auto ms = [&](const char *span) {
        auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second / n;
    };
    auto per = [&](double v) { return v / n; };
    const double parse_ms = ms("framework.parse");

    out.add("framework.parse_ms", parse_ms, "ms");
    out.add("framework.parse_mb_per_s",
            ratio(per(t.bundleBytes) / 1e6, parse_ms / 1e3), "MB/s");
    out.add("harness.build_ms", ms("harness.build"), "ms");
    out.add("harness.plans", per(t.plans), "count");
    out.add("harness.actions", per(t.actions), "count");
    out.add("analysis.cha_ms", ms("analysis.cha"), "ms");
    out.add("analysis.effects_ms", ms("analysis.effects"), "ms");
    out.add("analysis.pta_ms", ms("analysis.pta"), "ms");
    out.add("analysis.pta_instr_visits", per(t.ptaVisits), "count");
    out.add("analysis.pta_delta_skip_ratio",
            ratio(t.ptaSkips, t.ptaVisits + t.ptaSkips), "ratio");
    out.add("analysis.escape_ms", ms("analysis.escape"), "ms");
    out.add("analysis.lockset_ms", ms("analysis.lockset"), "ms");
    out.add("analysis.deadlock_ms", ms("analysis.deadlock"), "ms");
    out.add("analysis.enablement_ms", ms("analysis.enablement"), "ms");
    out.add("analysis.ifds_ms", ms("analysis.ifds"), "ms");
    out.add("analysis.ifds_solves", per(t.ifdsSolves), "count");
    out.add("analysis.ifds_reuse_ratio",
            ratio(t.ifdsReuses, t.ifdsSolves + t.ifdsReuses), "ratio");
    out.add("analysis.nullflow_ms", ms("analysis.nullflow"), "ms");
    out.add("hb.shbg_ms", ms("hb.shbg"), "ms");
    out.add("hb.closure_pairs", per(t.closurePairs), "count");
    out.add("race.extract_ms", ms("race.extract"), "ms");
    out.add("race.pairs_ms", ms("race.pairs"), "ms");
    out.add("race.pairs_considered", per(t.pairsConsidered), "count");
    out.add("race.prefilter_skip_ratio",
            ratio(t.prefilterSkipped, t.pairsConsidered), "ratio");
    out.add("race.escape_drop_ratio",
            ratio(t.accessesDropped, t.accessesTotal), "ratio");
    out.add("race.prioritize_ms", ms("race.prioritize"), "ms");
    out.add("symbolic.refute_ms", ms("symbolic.refute"), "ms");
    out.add("symbolic.refute_cpu_ms", per(t.symCpuMs), "ms");
    out.add("symbolic.queries", per(t.symQueries), "count");
    out.add("symbolic.states_expanded", per(t.symStates), "count");
    out.add("symbolic.refuted_ratio",
            ratio(t.symRefuted, t.symRefuted + t.symSurvived), "ratio");
    out.add("symbolic.cache_hit_ratio", ratio(t.symCacheHits, t.symQueries),
            "ratio");
    out.add("symbolic.timed_out", per(t.symTimedOut), "count");
    out.add("sierra.analyze_ms", ms("sierra.analyze"), "ms");
    out.add("sierra.format_ms", ms("sierra.format"), "ms");
    out.add("sierra.unaccounted_ms", per(t.unaccountedMs), "ms");
    out.add("util.pool_wait_ms", per(t.poolWaitMs), "ms");
    out.add("util.pool_overhead_ms", per(t.poolOverheadMs), "ms");
    out.add("util.parallel_eff", ratio(t.poolTaskMs, t.poolCapacityMs),
            "ratio");
    out.add("serve.handle_ms", ms("serve.handle"), "ms");
    out.add("serve.decode_ms", ms("serve.decode"), "ms");
    out.add("serve.incremental_ms", ms("serve.incremental"), "ms");
    out.add("serve.reuse_ratio", ratio(t.reused, t.harnesses), "ratio");
    out.add("serve.dirty_methods", per(t.dirty), "count");
    out.add("analysis.store_hash_ms", ms("analysis.store_hash"), "ms");
    out.add("analysis.store_io_ms", per(t.storeIoMs), "ms");
    out.add("analysis.store_puts", per(t.storePuts), "count");
    out.add("analysis.store_bytes_written", per(t.storeBytes), "count");
    out.add("trace.report_ms_p50", traced_p50, "ms");
    out.add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
}

/** Lower quartile over `repeats` set-ups of the wall seconds each
 *  spent in the program, as `setup` measures and returns them. */
double
timedSetup(int repeats, const std::function<double()> &setup)
{
    std::vector<double> secs;
    for (int i = 0; i < repeats; ++i)
        secs.push_back(setup());
    return percentile(secs, kGroupQuantile);
}

// ---------------------------------------------------------------------
// fleet and deep: parse -> SierraDetector -> analyze -> formatReport.

struct Analyzed {
    std::unique_ptr<sierra::framework::App> app;
    std::unique_ptr<sierra::SierraDetector> detector;
    sierra::AppReport report;
    std::string text;
};

/** One request. With a recorder, each layer call gets a span below
 *  `root`; without, this is the untraced path. */
Analyzed
analyzeBundle(const std::string &bundle, const sierra::SierraOptions &opts,
              SpanRecorder *rec, int root, int64_t request)
{
    Analyzed a;
    {
        ScopedSpan s(rec, "framework.parse", root, request);
        sierra::framework::AppTextResult parsed =
            sierra::framework::parseAppText(bundle);
        a.app = std::move(parsed.app);
    }
    if (!a.app)
        return a;
    {
        ScopedSpan s(rec, "harness.build", root, request);
        a.detector = std::make_unique<sierra::SierraDetector>(*a.app, opts);
    }
    {
        ScopedSpan s(rec, "sierra.analyze", root, request);
        a.report = a.detector->analyze(opts);
    }
    {
        ScopedSpan s(rec, "sierra.format", root, request);
        a.text = sierra::formatReport(a.report);
    }
    return a;
}

std::vector<std::string>
bundlesOf(const std::vector<AppInput> &apps)
{
    std::vector<std::string> out;
    for (const AppInput &a : apps)
        out.push_back(a.bundle);
    return out;
}

/** Record the seed's inputs: one digest over every bundle in the
 *  metadata, one line per bundle in a file, and the digest of the next
 *  seed's inputs, which must differ. */
void
recordInputs(RunResult &out, const std::string &workload, uint64_t seed,
             const std::vector<std::string> &bundles,
             const std::vector<std::string> &next_seed_bundles,
             const fs::path &out_dir)
{
    const uint64_t digest = digestBundles(bundles);
    const uint64_t next = digestBundles(next_seed_bundles);
    out.meta["inputs_digest"] = jsonString(hex64(digest));
    out.meta["inputs_bundles"] = std::to_string(bundles.size());
    out.meta["next_seed_inputs_digest"] = jsonString(hex64(next));
    if (digest == next)
        out.fail("seeds " + std::to_string(seed) + " and " +
                 std::to_string(seed + 1) + " generate the same inputs");
    const fs::path path = out_dir / ("inputs-" + workload + "-" +
                                     std::to_string(seed) + ".txt");
    std::ofstream file(path);
    for (size_t i = 0; i < bundles.size(); ++i)
        file << i << " " << hex64(fnv1a(bundles[i])) << " "
             << bundles[i].size() << "\n";
    out.meta["inputs_file"] = jsonString(path.string());
}

/**
 * Summed over traced requests: the request's wall minus the layer
 * calls that cover it -- the request's own child spans other than
 * `opaque` (the program call the replica stands in for), and the child
 * spans of the request's replica root.
 */
double
unaccountedMs(const std::vector<Span> &spans, const std::string &opaque)
{
    std::map<int64_t, double> left;
    for (const Span &s : spans) {
        if (s.parent < 0) {
            if (s.name == "request")
                left[s.request] += s.ms();
            continue;
        }
        const Span &p = spans[static_cast<size_t>(s.parent)];
        if (p.parent >= 0)
            continue;
        if ((p.name == "request" && s.name != opaque) ||
            p.name == "replica")
            left[s.request] -= s.ms();
    }
    double total = 0;
    for (const auto &[request, ms] : left)
        total += ms;
    return total;
}

/** Write the traced phase's spans out and add the per-layer metrics. */
void
finishTrace(RunResult &out, const SpanRecorder &rec, LayerTotals &totals,
            const std::string &opaque, const LoopResult &plain,
            const LoopResult &traced, const fs::path &spans_path)
{
    const std::vector<Span> spans = rec.spans();
    totals.unaccountedMs = unaccountedMs(spans, opaque);
    if (!rec.writeJsonl(spans_path.string()))
        out.fail("cannot write " + spans_path.string());
    out.meta["spans_file"] = jsonString(spans_path.string());
    out.meta["spans"] = std::to_string(spans.size());
    out.meta["traced_samples"] = std::to_string(traced.attempted);
    addPerLayer(out, spans, totals, percentile(traced.samples(), 50),
                percentile(plain.samples(), 50));
}

RunResult
runAnalyzeWorkload(const std::string &workload, uint64_t seed,
                   double seconds, bool trace, const fs::path &out_dir,
                   int jobs)
{
    RunResult out;
    const AppShape &shape = workload == "fleet" ? kFleetShape : kDeepShape;
    const std::vector<AppInput> apps = makeApps(workload, seed, shape);
    recordInputs(out, workload, seed, bundlesOf(apps),
                 bundlesOf(makeApps(workload, seed + 1, shape)), out_dir);

    sierra::SierraOptions opts;
    opts.jobs = jobs;

    // Score every report against the seeded ground truth; the report
    // text of an app must also never change between requests.
    std::vector<std::optional<uint64_t>> first_text(apps.size());
    auto judge = [&](size_t app, const Analyzed &a) {
        if (!a.app)
            return false;
        const sierra::corpus::Score s =
            sierra::corpus::scoreReport(a.report, apps[app].truth);
        if (s.missedTrueKeys != 0 || s.unexpectedFalsePositives != 0)
            return false;
        const uint64_t h =
            fnv1a(sierra::formatReport(a.report, 50, false));
        if (!first_text[app])
            first_text[app] = h;
        return *first_text[app] == h;
    };

    // Set-up: the program's first requests, one on each of the
    // smallest quarter of the apps (at least 4), timed like every
    // request and summed. They are the same apps on every seed of deep,
    // whose recipes are fixed, and alike on fleet's. Their reports are
    // scored like every other.
    std::vector<size_t> warm(apps.size());
    for (size_t i = 0; i < warm.size(); ++i)
        warm[i] = i;
    std::stable_sort(warm.begin(), warm.end(), [&](size_t a, size_t b) {
        return apps[a].bundle.size() < apps[b].bundle.size();
    });
    warm.resize(std::max<size_t>(4, apps.size() / 4));
    const double setup_s = timedSetup(kSetupRepeats, [&] {
        double ms = 0;
        for (size_t app : warm) {
            const Clock::time_point t = Clock::now();
            const Analyzed a =
                analyzeBundle(apps[app].bundle, opts, nullptr, -1, -1);
            ms += msSince(t);
            if (!judge(app, a))
                out.fail("set-up report of app " + std::to_string(app) +
                         " failed the oracle");
        }
        return ms / 1e3;
    });

    const double phase = trace ? seconds / 2 : seconds;
    const double hard = phase * 2 + 30;
    const int64_t min_requests = std::max<int64_t>(
        kMinRequests, 2 * static_cast<int64_t>(apps.size()));
    Analyzed last;
    auto app_of = [&](int64_t i) {
        return static_cast<size_t>(i) % apps.size();
    };
    const LoopResult plain = runClosedLoop(
        phase, min_requests, hard,
        [&](int64_t i) {
            last = analyzeBundle(apps[app_of(i)].bundle, opts, nullptr,
                                 -1, i);
        },
        [&](int64_t i) {
            const bool ok = judge(app_of(i), last);
            last = Analyzed{};
            return Outcome{ok, "", static_cast<int>(app_of(i))};
        });
    out.addPhase("untraced", plain);
    if (!trace) {
        // Only whole passes over the apps count, so every app weighs
        // the same.
        const size_t n = static_cast<size_t>(plain.attempted);
        addEndToEnd(out,
                    plain.prefix(n >= apps.size() ? n - n % apps.size() : n),
                    setup_s, workload == "fleet", false);
        writeSeries(out, plain,
                    out_dir / ("series-" + workload + "-" +
                               std::to_string(seed) + ".tsv"));
        return out;
    }

    SpanRecorder rec;
    LayerTotals totals;
    int64_t mismatches = 0;
    const LoopResult traced = runClosedLoop(
        phase, min_requests, hard,
        [&](int64_t i) {
            ScopedSpan root(&rec, "request", -1, i);
            last = analyzeBundle(apps[app_of(i)].bundle, opts, &rec,
                                 root.id(), i);
        },
        [&](int64_t i) {
            // After the report returned: re-drive the harnesses through
            // the layer calls and check them against analyze()'s.
            bool ok = judge(app_of(i), last);
            if (ok) {
                ScopedSpan root(&rec, "replica", -1, i);
                PoolTiming pool;
                const std::vector<sierra::HarnessAnalysis> rep =
                    replicateAnalyze(*last.app, last.detector->plans(),
                                     opts, rec, root.id(), i, pool);
                const std::string diff =
                    compareWithReport(rep, last.report);
                if (!diff.empty()) {
                    ok = false;
                    if (++mismatches == 1)
                        out.fail("replica differs from analyze() on " +
                                 last.report.app + ": " + diff);
                }
                ++totals.requests;
                totals.bundleBytes +=
                    static_cast<double>(apps[app_of(i)].bundle.size());
                totals.plans += static_cast<double>(rep.size());
                for (const sierra::HarnessAnalysis &ha : rep)
                    totals.addHarness(ha);
                totals.poolWaitMs += pool.waitMs;
                totals.poolOverheadMs += pool.callMs - pool.longestTaskMs;
                totals.poolTaskMs += pool.taskMsSum;
                totals.poolCapacityMs += pool.callMs * pool.workers;
            }
            last = Analyzed{};
            return Outcome{ok, ""};
        });
    out.addPhase("traced", traced);
    out.meta["replica_mismatches"] = std::to_string(mismatches);
    finishTrace(out, rec, totals, "sierra.analyze", plain, traced,
                out_dir / ("spans-" + workload + "-" +
                           std::to_string(seed) + ".jsonl"));
    return out;
}

// ---------------------------------------------------------------------
// serve: one ServeSession driven through handleLine with wire JSON. Its
// store is the memory store: the disk store's request latencies and
// set-up spread by 25-30% between runs on the machine measured (see
// README.md), too much for the benchmark's bounds.

/** One serve app: its original bundle (variant 0) and its one-method
 *  edits, each with its wire request line and cold reference report. */
struct ServeApp {
    std::vector<std::string> bundles;
    std::vector<std::string> lines;
    std::vector<std::string> reference;
    int current{0}; //!< variant the store last saw
};

std::string
wireRequest(int64_t id, const std::string &bundle)
{
    sierra::serve::Json req = sierra::serve::Json::object();
    req.set("id", sierra::serve::Json::integer(id));
    req.set("kind", sierra::serve::Json::str("analyze"));
    req.set("app", sierra::serve::Json::str(bundle));
    return req.dump();
}

std::vector<ServeApp>
makeServeApps(uint64_t seed)
{
    const std::vector<AppInput> inputs = makeApps("serve", seed, kServeShape);
    std::vector<ServeApp> apps(inputs.size());
    for (size_t a = 0; a < inputs.size(); ++a) {
        ServeApp &app = apps[a];
        app.bundles.push_back(inputs[a].bundle);
        for (std::string &e : makeEdits(inputs[a].bundle, seed + a, kServeEdits))
            app.bundles.push_back(std::move(e));
        for (size_t v = 0; v < app.bundles.size(); ++v)
            app.lines.push_back(wireRequest(
                static_cast<int64_t>(a * 100 + v), app.bundles[v]));
    }
    return apps;
}

std::vector<std::string>
bundlesOf(const std::vector<ServeApp> &apps)
{
    std::vector<std::string> out;
    for (const ServeApp &a : apps)
        out.insert(out.end(), a.bundles.begin(), a.bundles.end());
    return out;
}

/** The report text of a response line, or nullopt on an error. */
std::optional<std::string>
responseReport(const std::string &response)
{
    sierra::serve::Json json;
    std::string error;
    if (!sierra::serve::Json::parse(response, json, error))
        return std::nullopt;
    const sierra::serve::Json *result = json.field("result");
    const sierra::serve::Json *report =
        result ? result->field("report") : nullptr;
    if (!report || report->kind() != sierra::serve::Json::Kind::Str)
        return std::nullopt;
    return report->asStr();
}

RunResult
runServe(uint64_t seed, double seconds, bool trace, const fs::path &out_dir,
         int jobs)
{
    RunResult out;
    sierra::SierraOptions opts;
    opts.jobs = jobs;
    std::vector<ServeApp> apps;
    std::vector<std::string> cold;
    std::unique_ptr<sierra::serve::ServeSession> session;

    // Set-up: a fresh session and store, and the cold pass submitting
    // every app once. The inputs are made before, outside the timer.
    apps = makeServeApps(seed);
    const double setup_s = timedSetup(kSetupRepeats, [&] {
        session.reset();
        cold.clear();
        const Clock::time_point t = Clock::now();
        session = std::make_unique<sierra::serve::ServeSession>(
            sierra::serve::ServeOptions{"", jobs});
        for (const ServeApp &app : apps)
            cold.push_back(session->handleLine(app.lines[0]));
        return msSince(t) / 1e3;
    });
    recordInputs(out, "serve", seed, bundlesOf(apps),
                 bundlesOf(makeServeApps(seed + 1)), out_dir);

    // Cold references, outside every timed phase: each bundle analyzed
    // from scratch with no store.
    size_t variants = 0;
    int64_t cold_failures = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        ServeApp &app = apps[a];
        for (const std::string &bundle : app.bundles) {
            Analyzed r = analyzeBundle(bundle, opts, nullptr, -1, -1);
            app.reference.push_back(
                r.app ? sierra::formatReport(r.report, 50, false) : "");
        }
        variants += app.bundles.size();
        if (responseReport(cold[a]) != app.reference[0])
            ++cold_failures;
    }
    out.meta["serve_bundles"] = std::to_string(variants);
    if (cold_failures > 0)
        out.fail(std::to_string(cold_failures) +
                 " cold submissions differ from the cold reference");

    // The request stream: a seeded mix of unchanged resubmissions and
    // one-method edits (to an edit variant, or back to the original).
    std::mt19937_64 rng(seed ^ 0x5e7eull);
    struct Next {
        size_t app{0};
        int variant{0};
    } next;
    auto choose = [&] {
        next.app = static_cast<size_t>(rng() % apps.size());
        const ServeApp &app = apps[next.app];
        const int edits = static_cast<int>(app.bundles.size()) - 1;
        const bool edit =
            edits > 0 && std::uniform_real_distribution<double>(0, 1)(rng) <
                             kServeEditShare;
        next.variant = app.current;
        if (edit)
            next.variant = app.current == 0
                               ? 1 + static_cast<int>(rng() % edits)
                               : 0;
    };
    std::string response;
    Next sent;
    auto send = [&](int64_t) {
        sent = next;
        response = session->handleLine(apps[sent.app].lines[sent.variant]);
    };
    auto judge = [&](int64_t) {
        ServeApp &app = apps[sent.app];
        const bool ok = responseReport(response) ==
                        app.reference[static_cast<size_t>(sent.variant)];
        // A group is one transition of one app: resubmitting a variant,
        // or editing from one variant to another.
        Outcome o{ok, sent.variant == app.current ? "resubmit" : "edit",
                  static_cast<int>(sent.app) * 64 + app.current * 8 +
                      sent.variant};
        app.current = sent.variant;
        choose();
        return o;
    };
    choose();

    const double phase = trace ? seconds / 2 : seconds;
    const double hard = phase * 2 + 30;
    const LoopResult plain =
        runClosedLoop(phase, 4 * kMinRequests, hard, send, judge);
    out.attempted += static_cast<int64_t>(apps.size());
    out.failed += cold_failures;
    out.addPhase("untraced", plain);
    if (!trace) {
        addEndToEnd(out, plain, setup_s, false, true);
        writeSeries(out, plain,
                    out_dir / ("series-serve-" + std::to_string(seed) +
                               ".tsv"));
        session.reset();
        return out;
    }

    // Traced phase. A replica store, brought to the session store's
    // state by submitting every variant of every app once (ending on
    // the current one), lets the benchmark time the layers that
    // handleLine runs: decode, bundle parse, incremental analysis, and
    // separately on a copy of the app harness build, method hashing,
    // the artifact reads and writes, and rendering.
    sierra::analysis::store::Store rstore;
    auto submit = [&](const std::string &bundle) {
        sierra::framework::AppTextResult parsed =
            sierra::framework::parseAppText(bundle);
        sierra::serve::IncrementalAnalyzer analyzer(rstore);
        return analyzer.analyze(*parsed.app, opts);
    };
    for (ServeApp &app : apps) {
        for (size_t v = 0; v < app.bundles.size(); ++v) {
            if (static_cast<int>(v) != app.current)
                submit(app.bundles[v]);
        }
        submit(app.bundles[static_cast<size_t>(app.current)]);
    }

    SpanRecorder rec;
    LayerTotals totals;
    int64_t mismatches = 0, probe_mismatches = 0;
    const LoopResult traced = runClosedLoop(
        phase, 4 * kMinRequests, hard,
        [&](int64_t i) {
            ScopedSpan root(&rec, "request", -1, i);
            ScopedSpan handle(&rec, "serve.handle", root.id(), i);
            send(i);
        },
        [&](int64_t i) {
            const Next req = sent;
            const std::string &line = apps[req.app].lines[req.variant];
            const std::string &bundle_text =
                apps[req.app].bundles[req.variant];
            Outcome o = judge(i);
            auto since = [](Clock::time_point t) { return msSince(t); };
            namespace store = sierra::analysis::store;

            // Probe: a second parse of the bundle, whose harness build
            // and method hashing are timed on their own and give the
            // keys of the app's harness artifacts.
            ScopedSpan probe(&rec, "probe", -1, i);
            sierra::framework::AppTextResult copy;
            {
                ScopedSpan s(&rec, "probe.parse", probe.id(), i);
                copy = sierra::framework::parseAppText(bundle_text);
            }
            if (!copy.ok()) {
                o.ok = false;
                return o;
            }
            Clock::time_point t = Clock::now();
            std::optional<sierra::SierraDetector> detector;
            {
                ScopedSpan s(&rec, "harness.build", probe.id(), i);
                detector.emplace(*copy.app, opts);
            }
            const double build_ms = since(t);
            uint64_t shape = 0;
            t = Clock::now();
            {
                ScopedSpan s(&rec, "analysis.store_hash", probe.id(), i);
                const auto hashes = store::hashMethods(*copy.app);
                shape = store::shapeHash(*copy.app);
                (void)hashes;
            }
            const double hash_ms = since(t);
            shape = store::mixHash(
                shape,
                sierra::serve::IncrementalAnalyzer::optionsFingerprint(opts));
            std::vector<std::string> keys;
            std::vector<std::optional<std::string>> blobs_before;
            for (const auto &plan : detector->plans()) {
                keys.push_back(store::hashHex(
                    store::mixHash(shape, store::fnv64(plan.activityClass))));
                blobs_before.push_back(rstore.get("harness", keys.back()));
            }

            std::optional<ScopedSpan> root;
            root.emplace(&rec, "replica", -1, i);
            sierra::serve::Json decoded;
            {
                ScopedSpan s(&rec, "serve.decode", root->id(), i);
                std::string error;
                sierra::serve::Json::parse(line, decoded, error);
            }
            const sierra::serve::Json *bundle = decoded.field("app");
            sierra::framework::AppTextResult parsed;
            {
                ScopedSpan s(&rec, "framework.parse", root->id(), i);
                parsed = sierra::framework::parseAppText(
                    bundle ? bundle->asStr() : std::string());
            }
            if (!parsed.ok()) {
                o.ok = false;
                return o;
            }
            const store::StoreStats before = rstore.stats();
            t = Clock::now();
            sierra::serve::IncrementalResult r;
            {
                ScopedSpan s(&rec, "serve.incremental", root->id(), i);
                sierra::serve::IncrementalAnalyzer analyzer(rstore);
                r = analyzer.analyze(*parsed.app, opts);
            }
            const double incremental_ms = since(t);
            const store::StoreStats after = rstore.stats();
            root.reset();

            // The artifact traffic the incremental call ran inside
            // analyze(), timed again on its own: every plan's artifact
            // read and parsed (the reuse check offers each plan), and
            // every artifact the call rewrote serialized and put into a
            // scratch store.
            double artifact_ms = 0;
            int loaded = 0, rewritten = 0;
            {
                ScopedSpan s(&rec, "store.artifacts", probe.id(), i);
                store::Store scratch;
                for (size_t k = 0; k < keys.size(); ++k) {
                    t = Clock::now();
                    const std::optional<std::string> blob =
                        rstore.get("harness", keys[k]);
                    const std::optional<sierra::HarnessArtifact> art =
                        blob ? sierra::parseArtifact(*blob) : std::nullopt;
                    artifact_ms += since(t);
                    if (!art)
                        continue;
                    ++loaded;
                    if (blob == blobs_before[k])
                        continue;
                    ++rewritten;
                    t = Clock::now();
                    scratch.put("harness", keys[k],
                                sierra::serializeArtifact(*art));
                    artifact_ms += since(t);
                }
            }
            t = Clock::now();
            {
                ScopedSpan s(&rec, "sierra.format", probe.id(), i);
                const std::string text =
                    sierra::formatReport(r.report, 50, false);
                (void)text;
            }
            const double format_ms = since(t);

            if (r.reportText !=
                apps[req.app].reference[static_cast<size_t>(req.variant)]) {
                o.ok = false;
                if (++mismatches == 1)
                    out.fail("replica report differs from handleLine's "
                             "on " + r.report.app);
            }
            if (loaded != r.harnessesTotal ||
                rewritten != r.harnessesComputed) {
                o.ok = false;
                if (++probe_mismatches == 1)
                    out.fail("artifact probe found " +
                             std::to_string(loaded) + " artifacts and " +
                             std::to_string(rewritten) +
                             " rewritten on " + r.report.app + ", the " +
                             "call reports " +
                             std::to_string(r.harnessesTotal) + " and " +
                             std::to_string(r.harnessesComputed));
            }
            ++totals.requests;
            totals.bundleBytes += static_cast<double>(bundle_text.size());
            totals.plans += r.harnessesTotal;
            totals.actions += r.report.actions;
            totals.harnesses += r.harnessesTotal;
            totals.reused += r.harnessesReused;
            totals.dirty += static_cast<double>(r.dirty.size());
            totals.storePuts += static_cast<double>(after.puts - before.puts);
            totals.storeBytes +=
                static_cast<double>(after.bytesWritten - before.bytesWritten);
            // Outside analyze(): the index diff, dirty closure and index
            // writes; inside it: the artifact traffic timed above.
            totals.storeIoMs += incremental_ms - 1e3 * r.report.times.total -
                                hash_ms - build_ms - format_ms + artifact_ms;
            return o;
        });
    out.addPhase("traced", traced);
    out.meta["replica_mismatches"] = std::to_string(mismatches);
    out.meta["artifact_probe_mismatches"] = std::to_string(probe_mismatches);
    finishTrace(out, rec, totals, "serve.handle", plain, traced,
                out_dir / ("spans-serve-" + std::to_string(seed) + ".jsonl"));
    return out;
}

int
usage()
{
    std::cerr << "usage: sierrabench --workload fleet|deep|serve --seed N "
                 "--seconds S --trace 0|1 --out DIR\n";
    return 2;
}

} // namespace
} // namespace sierrabench

int
main(int argc, char **argv)
{
    using namespace sierrabench;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || args.size() != 5 || !args.count("--workload") ||
        !args.count("--seed") || !args.count("--seconds") ||
        !args.count("--trace") || !args.count("--out"))
        return usage();
    const std::string workload = args["--workload"];
    if (workload != "fleet" && workload != "deep" && workload != "serve")
        return usage();
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    try {
        seed = std::stoull(args["--seed"]);
        seconds = std::stod(args["--seconds"]);
        trace = std::stoi(args["--trace"]);
    } catch (const std::exception &) {
        return usage();
    }
    if (!(seconds > 0 && seconds <= 60) || (trace != 0 && trace != 1))
        return usage();

    if (buildIsSanitized() || !buildIsOptimized()) {
        std::cerr << "sierrabench: refusing to measure a "
                  << (buildIsSanitized() ? "sanitizer" : "unoptimized")
                  << " build (" << SIERRABENCH_BUILD_TYPE << ": "
                  << SIERRABENCH_CXX_FLAGS << ")\n";
        return 3;
    }
    const fs::path out_dir = args["--out"];
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "sierrabench: cannot create " << out_dir << "\n";
        return 1;
    }

    const int jobs = cpusAvailable();
    RunResult r = workload == "serve"
                      ? runServe(seed, seconds, trace == 1, out_dir, jobs)
                      : runAnalyzeWorkload(workload, seed, seconds,
                                           trace == 1, out_dir, jobs);
    r.meta["workload"] = jsonString(workload);
    r.meta["seed"] = std::to_string(seed);
    r.meta["seconds"] = jsonNumber(seconds);
    r.meta["trace"] = std::to_string(trace);
    r.meta["nproc"] = std::to_string(jobs);
    r.meta["jobs"] = std::to_string(jobs);
    r.meta["compiler"] = jsonString(SIERRABENCH_COMPILER);
    r.meta["build_type"] = jsonString(SIERRABENCH_BUILD_TYPE);
    r.meta["cxx_flags"] = jsonString(SIERRABENCH_CXX_FLAGS);
    printResult(r);
    return 0;
}
