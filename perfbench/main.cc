/**
 * @file
 * The `perfbench` binary: `perfbench --workload report|serve|record
 * --seed N --seconds S --trace 0|1 --ta PATH --work DIR`.
 *
 * With --trace 0 it runs the workload untraced and reports the
 * end-to-end metrics. With --trace 1 it runs every layer's probes with
 * spans around the public calls, prints a per-layer self-time table,
 * writes the spans to DIR/spans-<workload>.tsv and reports the
 * per-layer metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

int
usage()
{
    std::cerr << "usage: perfbench --workload report|serve|record --seed N "
                 "--seconds S --trace 0|1 --ta PATH --work DIR\n";
    return 2;
}

bool
parseArgs(int argc, char** argv, Context& ctx)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        try {
            if (k == "--workload")
                ctx.workload = v;
            else if (k == "--seed")
                ctx.seed = std::stoull(v);
            else if (k == "--seconds")
                ctx.seconds = std::stod(v);
            else if (k == "--trace")
                ctx.traced = std::stoi(v) != 0;
            else if (k == "--ta")
                ctx.ta = v;
            else if (k == "--work")
                ctx.work = v;
            else
                return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 &&
           (ctx.workload == "report" || ctx.workload == "serve" ||
            ctx.workload == "record") &&
           ctx.seconds > 0 && !ctx.ta.empty() && !ctx.work.empty();
}

/** Per-layer self-time table, one block per operation kind plus one
 *  for the probes outside operations; self% is of the block's wall. */
void
printTable(const std::vector<Span>& spans)
{
    for (const auto& [group, layers] : layerTotals(spans)) {
        const auto op = layers.find(group);
        const double wall = op == layers.end() ? 0.0 : op->second.total_ms;
        std::printf("%-16s %-28s %8s %12s %12s %7s\n", group.c_str(), "span", "calls",
                    "total_ms", "self_ms", "self%");
        for (const auto& [name, t] : layers)
            std::printf("%-16s %-28s %8llu %12.1f %12.1f %7.1f\n", "", name.c_str(),
                        static_cast<unsigned long long>(t.calls), t.total_ms, t.self_ms,
                        wall > 0.0 ? 100.0 * t.self_ms / wall : 0.0);
    }
}

void
printJson(const Result& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    Context ctx;
    if (!parseArgs(argc, argv, ctx))
        return usage();
    Result out;
    try {
        std::filesystem::create_directories(ctx.work);
        if (!ctx.traced) {
            if (ctx.workload == "report")
                runReport(ctx, out);
            else if (ctx.workload == "serve")
                runServe(ctx, out);
            else
                runRecord(ctx, out);
        } else {
            SpanRecorder rec;
            tracedReport(ctx, ctx.workload == "report", rec, out);
            tracedServe(ctx, ctx.workload == "serve", rec, out);
            tracedRecord(ctx, ctx.workload == "record", rec, out);
            printTable(rec.spans());
            writeSpans(ctx.work + "/spans-" + ctx.workload + ".tsv", rec.spans());
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    for (const std::string& n : out.notes)
        std::printf("%s\n", n.c_str());
    for (const auto& [name, m] : out.metrics)
        std::printf("%-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    printJson(out);
    return 0;
}
