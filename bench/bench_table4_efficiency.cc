/**
 * @file
 * Paper Table 4: SIERRA efficiency -- per-stage analysis time for every
 * row of the stage table (sierra/stage.hh), driven by the metrics
 * registry (SierraOptions::metrics) so the table and the
 * counter-derived rates come from the same instrumented run. The BENCH
 * `median_ms` object has one key per stage name plus `total` (wall).
 *
 * The paper reports seconds on real APKs with WALA; the model corpus
 * runs in milliseconds, so times are printed in ms. The *shape* to
 * check against the paper: call graph + pointer analysis and symbolic
 * refutation dominate, SHBG construction is cheap.
 *
 * Reproduce with: ./build/bench/bench_table4_efficiency
 * (optionally SIERRA_TRACE=table4.json to also capture a trace).
 */

#include "bench_util.hh"

#include "util/metrics.hh"

int
main()
{
    using namespace sierra;
    bench::header("Table 4: SIERRA efficiency (times in milliseconds)");
    // One column per stage-table row, then the run's cpu and wall.
    std::printf("%-18s", "App");
    for (const Stage &stage : kStages)
        std::printf(" %10s", stage.textKey);
    std::printf(" %10s %10s\n", "cpu", "wall");

    std::vector<std::vector<double>> stage_ms(kNumStages);
    std::vector<double> cpu, wall;
    util::metrics::Registry all;
    for (const auto &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp built = corpus::buildNamedApp(spec);
        SierraDetector detector(*built.app);
        SierraOptions options;
        options.metrics = &all;
        AppReport report = detector.analyze(options);
        const StageTimes &t = report.times;
        std::printf("%-18s", spec.name.c_str());
        for (size_t i = 0; i < kNumStages; ++i) {
            stage_ms[i].push_back(t.stage[i] * 1e3);
            std::printf(" %10.2f", t.stage[i] * 1e3);
        }
        std::printf(" %10.2f %10.2f\n", t.totalCpu * 1e3, t.total * 1e3);
        cpu.push_back(t.totalCpu * 1e3);
        wall.push_back(t.total * 1e3);
    }
    std::printf("%-18s", "Median");
    std::string median_ms;
    for (size_t i = 0; i < kNumStages; ++i) {
        double median = bench::median(stage_ms[i]);
        std::printf(" %10.2f", median);
        char field[64];
        std::snprintf(field, sizeof(field), "\"%s\":%.2f,",
                      kStages[i].name, median);
        median_ms += field;
    }
    std::printf(" %10.2f %10.2f\n", bench::median(cpu),
                bench::median(wall));

    // Counter-derived work rates over the whole corpus, straight from
    // the registry the pipeline filled.
    const int64_t considered = all.counter("race.access_pairs_considered");
    const int64_t skipped = all.counter("race.prefilter_skipped");
    const int64_t queries = all.counter("symbolic.queries");
    const int64_t states = all.counter("symbolic.states_expanded");
    const int64_t hits = all.counter("symbolic.cache_hits");
    const double cpu_s =
        all.histogram("harness.cpu.seconds").sum;
    std::printf("\ncorpus totals (metrics registry):\n");
    std::printf("  pta worklist iterations: %lld, instr visits: %lld\n",
                (long long)all.counter("pta.worklist_iterations"),
                (long long)all.counter("pta.instr_visits"));
    std::printf("  shbg direct edges: %lld, closure pairs: %lld\n",
                (long long)all.counter("shbg.direct_edges"),
                (long long)all.counter("shbg.closure_pairs"));
    std::printf("  access pairs considered: %lld, prefilter skipped: "
                "%.1f%%\n",
                (long long)considered,
                considered ? 100.0 * skipped / considered : 0.0);
    std::printf("  symbolic queries: %lld, states expanded: %lld "
                "(%.0f states/cpu-s), cache hit rate: %.1f%%\n",
                (long long)queries, (long long)states,
                cpu_s > 0 ? states / cpu_s : 0.0,
                (hits + states) ? 100.0 * hits / (hits + states) : 0.0);
    std::printf("  refuted: lockset %lld, symbolic %lld, surviving "
                "%lld\n",
                (long long)all.counter("refuted_by.lockset"),
                (long long)all.counter("refuted_by.symbolic"),
                (long long)all.counter("refuted_by.none"));

    bench::benchJson(
        "table4_efficiency",
        "{\"bench\":\"table4_efficiency\","
        "\"median_ms\":{%s\"total\":%.2f},"
        "\"counters\":{\"symbolic_queries\":%lld,"
        "\"states_expanded\":%lld,\"cache_hits\":%lld,"
        "\"pairs_considered\":%lld,\"prefilter_skipped\":%lld,"
        "\"pta_delta_props\":%lld,\"arena_bytes\":%lld,"
        "\"peak_rss_bytes\":%lld}"
        "}",
        median_ms.c_str(), bench::median(wall), (long long)queries,
        (long long)states, (long long)hits, (long long)considered,
        (long long)skipped,
        (long long)all.counter("pta.delta_props"),
        (long long)all.counter("arena.bytes_allocated"),
        (long long)all.counter("mem.peak_rss_bytes"));

    std::printf("\nPaper medians (seconds, real APKs): CG+PA 1310, HBG "
                "28.5, refutation 560.5,\ntotal 1899. Expected shape: "
                "HBG << CG+PA and refutation.\n");
    return 0;
}
