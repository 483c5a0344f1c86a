/**
 * @file
 * `report` workload: the analyst's batch use. One client runs
 * `ta --threads 1` serially over one generated multi_core trace
 * (2M records, v3 blocks, index stride 4096), cycling through `all`,
 * `transfers <csv>` and `intervals <csv>`. Statistics (the DMA matcher,
 * paid twice by `transfers`) and rendering dominate it; decode is a
 * few percent. Serial runs keep it steady on a shared host.
 */
#include <fstream>
#include <sstream>

#include "bench.h"
#include "ta/analyzer.h"
#include "ta/profile.h"
#include "ta/timeline.h"
#include "trace/block.h"
#include "trace/gen.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace perfbench {
namespace {

using namespace cell;

constexpr std::uint64_t kReportRecords = 2'000'000;
constexpr std::uint32_t kReportSpes = 6;

/** Output digests (FNV-1a 64) of the three commands at kDefaultSeed,
 *  pinned at the commit that defined the benchmark. */
constexpr std::uint64_t kPinned[3] = {
    0x55875f6322b89b91ull, // all (stdout)
    0x3d878102ef642ac4ull, // transfers (CSV)
    0x5d0067b0368c45c6ull, // intervals (CSV)
};

struct Paths
{
    std::string v3, v1, csv;
};

Paths
paths(const Context& ctx)
{
    return {ctx.work + "/report.pdt", ctx.work + "/report.v1.pdt",
            ctx.work + "/report.csv"};
}

/** Generate the report trace and write it as v3 + index (what
 *  `trace_gen --scenario multi_core --compress --index 4096` does). */
trace::TraceData
makeTrace(const Context& ctx, const std::string& path)
{
    trace::gen::GenOptions g;
    g.seed = ctx.seed;
    g.scenario = static_cast<int>(trace::gen::Scenario::MultiCore);
    // Fixed SPE count: the seed changes the content, not the shape
    // (the DMA matcher's cost grows with records per SPE).
    g.num_spes = kReportSpes;
    g.records = kReportRecords;
    trace::TraceData data = trace::gen::generate(g);
    trace::WriteOptions w;
    w.compress = true;
    w.index_stride = 4096;
    trace::writeFile(path, data, w);
    return data;
}

/** `ta all`'s stdout, rendered in-process (tools/ta_cli.cc order). */
void
renderAll(std::ostream& os, const ta::Analysis& a)
{
    ta::printSummary(os, a);
    os << "\n";
    ta::printStallBreakdown(os, a);
    os << "\n";
    ta::printDmaReport(os, a);
    os << "\n";
    ta::printDmaHistogram(os, a);
    os << "\n";
    ta::printEventCounts(os, a);
    os << "\n";
    ta::printTracingReport(os, a);
    os << "\n";
    ta::printLossReport(os, a);
    os << "\n" << ta::renderAscii(a.model, a.intervals) << "\n";
    ta::printActivity(os, a);
}

enum class Cmd
{
    All,
    Transfers,
    Intervals
};
constexpr Cmd kCycle[] = {Cmd::All, Cmd::Transfers, Cmd::Intervals};

const char*
cmdName(Cmd c)
{
    return c == Cmd::All ? "all" : c == Cmd::Transfers ? "transfers" : "intervals";
}

void
render(Cmd c, std::ostream& os, const ta::Analysis& a)
{
    if (c == Cmd::All)
        renderAll(os, a);
    else if (c == Cmd::Transfers)
        ta::exportDmaTransfersCsv(os, a);
    else
        ta::exportIntervalsCsv(os, a);
}

/** Digest of one command's primary output (stdout for `all`, the CSV
 *  otherwise) and of its stdout. */
struct Digests
{
    std::uint64_t output = 0;
    std::uint64_t stdout_fnv = 0;
};

} // namespace

void
runReport(const Context& ctx, Result& out)
{
    const Paths p = paths(ctx);
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point t0 = Clock::now();
        makeTrace(ctx, p.v3);
        setups.push_back(secondsSince(t0));
    }
    const std::string out_path = ctx.work + "/report.stdout";
    const std::string err_path = ctx.work + "/report.stderr";
    // One untimed `ta all` loads the binary and the trace into the page
    // cache before the first timed run.
    runChild({ctx.ta, "--threads", "1", cmdName(Cmd::All), p.v3}, out_path, err_path);

    struct Op
    {
        Cmd cmd;
        bool exited_ok;
        Digests got;
    };
    std::vector<Op> ops;
    // One operation is one cycle through the three commands. They
    // differ in cost, so a median over single `ta` runs would fall
    // where their time ranges meet and jump from one to the other.
    std::vector<double> cycle_ms;
    double busy_s = 0.0;
    double peak_rss = 0.0;
    const Clock::time_point start = Clock::now();
    while (cycle_ms.empty() || secondsSince(start) < ctx.seconds) {
        double cycle_s = 0.0;
        for (Cmd c : kCycle) {
            std::vector<std::string> argv = {ctx.ta, "--threads", "1", cmdName(c),
                                             p.v3};
            if (c != Cmd::All)
                argv.push_back(p.csv);
            const ChildResult r = runChild(argv, out_path, err_path);
            cycle_s += r.wall_s;
            busy_s += r.wall_s;
            peak_rss = std::max(peak_rss, r.max_rss_mb);
            Op op{c, r.ok(), {}};
            if (op.exited_ok) {
                op.got.stdout_fnv = fnvFile(out_path);
                op.got.output = c == Cmd::All ? op.got.stdout_fnv : fnvFile(p.csv);
            }
            ops.push_back(op);
        }
        cycle_ms.push_back(cycle_s * 1e3);
    }

    // Reference digests, outside the timed part: the same printers
    // in-process over ta::analyze.
    Digests want[3];
    {
        const ta::Analysis a = ta::analyze(trace::readFile(p.v3));
        for (Cmd c : kCycle) {
            std::ostringstream os;
            render(c, os, a);
            Digests& d = want[static_cast<int>(c)];
            d.output = ta::fnv1a64(os.str());
            d.stdout_fnv = c == Cmd::All ? d.output
                                         : ta::fnv1a64("wrote " + p.csv + "\n");
        }
    }
    for (Cmd c : kCycle) {
        const std::uint64_t w = want[static_cast<int>(c)].output;
        const std::uint64_t pin = kPinned[static_cast<int>(c)];
        out.notes.push_back(std::string("reference ") + cmdName(c) + " " + hex(w));
        if (ctx.seed != kDefaultSeed)
            continue;
        ++out.attempted; // the pinned-digest check of the reference
        if (w != pin)
            out.fail(std::string("in-process ") + cmdName(c) + " digest " + hex(w) +
                     " != pinned " + hex(pin));
    }
    for (const Op& op : ops) {
        ++out.attempted;
        const Digests& w = want[static_cast<int>(op.cmd)];
        if (!op.exited_ok)
            out.fail(std::string("ta ") + cmdName(op.cmd) + " exited non-zero");
        else if (op.got.output != w.output || op.got.stdout_fnv != w.stdout_fnv)
            out.fail(std::string("ta ") + cmdName(op.cmd) + " output " +
                     hex(op.got.output) + " != reference " + hex(w.output));
    }

    const double records =
        static_cast<double>(kReportRecords) * static_cast<double>(ops.size());
    const double bytes = static_cast<double>(std::ifstream(p.v3, std::ios::ate |
                                                                     std::ios::binary)
                                                 .tellg());
    out.set("setup_s", median(setups), "s");
    out.set("wall_p50_ms", median(cycle_ms), "ms");
    out.set("wall_p99_ms", percentile(cycle_ms, 0.99), "ms");
    out.set("records_per_s", records / busy_s, "1/s");
    out.set("queries_per_s", static_cast<double>(cycle_ms.size()) / busy_s, "1/s");
    out.set("peak_rss_mb", peak_rss, "MB");
    out.set("trace_bytes_per_record", bytes / static_cast<double>(kReportRecords),
            "B/record");
}

void
tracedReport(const Context& ctx, bool own, SpanRecorder& rec, Result& out)
{
    const Paths p = paths(ctx);
    {
        const trace::TraceData data = makeTrace(ctx, p.v3);
        trace::writeFile(p.v1, data);
    }

    // Decode probes: whole-file reads of both containers, and every v3
    // block through BlockReader::readBlock.
    for (int rep = 0; rep < 3; ++rep) {
        {
            Scope s(rec, "trace.decode.v1");
            trace::readFile(p.v1);
        }
        Scope s(rec, "trace.decode.v3");
        trace::readFile(p.v3);
    }
    {
        trace::BlockReader br(p.v3);
        trace::DecodedBlock block;
        for (std::uint64_t i = 0; i < br.blockCount(); ++i) {
            Scope s(rec, "trace.decode.block");
            br.readBlock(i, block);
        }
    }

    // The three commands in-process, one span per layer; the same
    // calls `ta --threads 1` makes (readFile, then ta::analyze's
    // three builds, then the printers writing their output).
    std::uint64_t op_id = 0;
    std::uint64_t rendered_bytes = 0;
    ta::Analysis last;
    const auto runOps = [&](SpanRecorder& r, bool keep) {
        double wall = 0.0;
        for (Cmd c : kCycle) {
            r.setOp(r.enabled() ? ++op_id : 0);
            const Clock::time_point t0 = Clock::now();
            std::string text;
            {
                Scope op(r, "op.report");
                trace::TraceData data;
                {
                    Scope s(r, "trace.decode.v3");
                    data = trace::readFile(p.v3);
                }
                ta::Analysis a;
                {
                    Scope s(r, "ta.model");
                    a.model = ta::TraceModel::build(data);
                }
                {
                    Scope s(r, "ta.intervals");
                    a.intervals = ta::IntervalSet::build(a.model);
                }
                {
                    Scope s(r, "ta.stats");
                    a.stats = ta::TraceStats::build(a.model, a.intervals);
                }
                {
                    Scope s(r, c == Cmd::All         ? "ta.report.all"
                               : c == Cmd::Transfers ? "ta.report.transfers_csv"
                                                     : "ta.report.intervals_csv");
                    std::ostringstream os;
                    render(c, os, a);
                    text = std::move(os).str();
                    std::ofstream(c == Cmd::All ? ctx.work + "/report.stdout" : p.csv)
                        << text;
                }
                if (keep && c == Cmd::Intervals)
                    last = std::move(a);
            }
            wall += secondsSince(t0);
            if (keep) {
                rendered_bytes += text.size();
                const std::uint64_t pin = kPinned[static_cast<int>(c)];
                const std::uint64_t got = ta::fnv1a64(text);
                if (ctx.seed == kDefaultSeed && got != pin)
                    out.fail(std::string("in-process ") + cmdName(c) + " digest " +
                             hex(got) + " != pinned " + hex(pin));
            }
        }
        r.setOp(0);
        return wall;
    };
    // Untraced first (own phase only), so neither pass gets a warmer
    // page cache than the other in the overhead comparison.
    double plain_s = 0.0;
    if (own) {
        SpanRecorder off(false);
        plain_s = runOps(off, false);
    }
    const double traced_ops_s = runOps(rec, true);

    // The DMA matcher on its own, once per SPE, from outside stats.
    std::uint64_t commands = 0, observed = 0;
    for (std::uint32_t spe = 0; spe < last.model.numSpes(); ++spe) {
        Scope s(rec, "ta.stats.dma_match");
        for (const ta::DmaTransfer& t : ta::matchDmaTransfers(last.intervals, spe)) {
            ++commands;
            observed += t.observed;
        }
    }
    std::uint64_t intervals = 0;
    for (const auto& core : last.intervals.per_core)
        intervals += core.size();

    const std::vector<Span>& spans = rec.spans();
    const auto med = [&spans](const std::string& name) {
        std::vector<double> v;
        for (const Span& s : spans)
            if (s.name == name)
                v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        return median(v);
    };
    const double render_ms = spanMs(spans, "ta.report.all") +
                             spanMs(spans, "ta.report.transfers_csv") +
                             spanMs(spans, "ta.report.intervals_csv");
    out.set("trace.decode.v3_ms", med("trace.decode.v3"), "ms");
    out.set("trace.decode.v1_ms", med("trace.decode.v1"), "ms");
    out.set("trace.decode.block_us", med("trace.decode.block") * 1e3, "us");
    out.set("ta.model.ms", med("ta.model"), "ms");
    out.set("ta.intervals.ms", med("ta.intervals"), "ms");
    out.set("ta.intervals.count", static_cast<double>(intervals), "count");
    out.set("ta.stats.ms", med("ta.stats"), "ms");
    out.set("ta.stats.dma_match_ms", spanMs(spans, "ta.stats.dma_match"), "ms");
    out.set("ta.stats.dma_commands", static_cast<double>(commands), "count");
    out.set("ta.stats.dma_observed_ratio",
            commands ? static_cast<double>(observed) / static_cast<double>(commands)
                     : 0.0,
            "ratio");
    out.set("ta.report.all_ms", spanMs(spans, "ta.report.all"), "ms");
    out.set("ta.report.transfers_csv_ms", spanMs(spans, "ta.report.transfers_csv"),
            "ms");
    out.set("ta.report.intervals_csv_ms", spanMs(spans, "ta.report.intervals_csv"),
            "ms");
    out.set("ta.report.mb_per_s",
            static_cast<double>(rendered_bytes) / 1e6 / (render_ms / 1e3), "MB/s");
    out.attempted += 3;

    if (own) {
        out.set("bench.span_coverage", spanCoverage(spans, "op.report"), "ratio");
        out.set("bench.tracing_overhead_pct",
                100.0 * (traced_ops_s - plain_s) / plain_s, "%");
    }
}

} // namespace perfbench
