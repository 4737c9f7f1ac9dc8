/**
 * @file
 * Paper Table 5: medians over the 174-app F-Droid dataset analogue
 * (effectiveness and efficiency, Section 6.6).
 */

#include <cinttypes>

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Table 5: 174-app dataset (medians)");

    std::vector<double> size, harnesses, actions, hb, ordered, racy,
        after, cg, hbg_t, refute, total;
    int apps_with_fp = 0;
    int apps_with_miss = 0;

    for (int i = 0; i < corpus::kFdroidAppCount; ++i) {
        bench::AppStats s = bench::evaluateApp(
            "fdroid", corpus::buildFdroidApp(i), {});
        size.push_back(static_cast<double>(s.codeSize));
        harnesses.push_back(s.harnesses);
        actions.push_back(s.actions);
        hb.push_back(static_cast<double>(s.hbEdges));
        ordered.push_back(s.orderedPct);
        racy.push_back(s.racyAs);
        after.push_back(s.afterRefutation);
        cg.push_back(s.times[StageId::CgPa] * 1e3);
        hbg_t.push_back(s.times[StageId::Hbg] * 1e3);
        refute.push_back(s.times[StageId::Refutation] * 1e3);
        total.push_back(s.times.total * 1e3);
        apps_with_fp += s.falsePositives > 0;
        apps_with_miss += s.missed > 0;
    }

    bench::row("apps", "%d", corpus::kFdroidAppCount);
    bench::row("model size (B)", "%.0f", bench::median(size));
    bench::row("harnesses", "%.1f", bench::median(harnesses));
    bench::row("actions", "%.1f", bench::median(actions));
    bench::row("HB edges", "%.0f", bench::median(hb));
    bench::row("ordered %", "%.1f", bench::median(ordered));
    bench::row("racy pairs", "%.1f", bench::median(racy));
    bench::row("after refut.", "%.1f", bench::median(after));
    bench::row("cg+pa (ms)", "%.2f", bench::median(cg));
    bench::row("hbg (ms)", "%.2f", bench::median(hbg_t));
    bench::row("refute (ms)", "%.2f", bench::median(refute));
    bench::row("total (ms)", "%.2f", bench::median(total));
    bench::row("apps w/ FPs", "%d", apps_with_fp);
    bench::row("apps w/ misses", "%d", apps_with_miss);

    std::printf("\nPaper medians: size 1114KB, harnesses 4.5, actions "
                "67.5, HB edges 1223,\nordered 17.3%%, racy pairs 68, "
                "after refutation 43.5, CG 139s, HBG 27s,\nrefutation "
                "648s, total 960s.\n");
    return 0;
}
