/**
 * @file
 * `record` workload: the write side. Each operation builds one of the
 * src/wl Cell workloads, runs it traced under PDT and encodes the
 * trace with trace::writeBuffer (v3 blocks + footer index). Sizes are
 * scaled up from the bench/ figures so the simulator and tracer, not
 * process start-up, dominate each operation; matmul stays at the
 * bench size (n=128) because its host-side multiply grows as n^3 and
 * would hide the simulator. The seed only permutes the order.
 */
#include <algorithm>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>

#include "bench.h"
#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "trace/writer.h"
#include "wl/conv2d.h"
#include "wl/fft.h"
#include "wl/gather.h"
#include "wl/matmul.h"
#include "wl/pipeline.h"
#include "wl/reduction.h"
#include "wl/triad.h"
#include "wl/workqueue.h"

namespace perfbench {
namespace {

using namespace cell;

using Factory = std::function<std::unique_ptr<wl::WorkloadBase>(rt::CellSystem&)>;

/** One recorded workload with the results pinned at the commit that
 *  defined the benchmark: simulated cycles traced and untraced, and
 *  the FNV-1a 64 of the encoded v3 trace. */
struct RecordCase
{
    const char* name;
    Factory make;
    std::uint64_t traced_cycles;
    std::uint64_t untraced_cycles;
    std::uint64_t trace_fnv;
};

template <typename W, typename P>
Factory
factory(P p)
{
    return [p](rt::CellSystem& sys) -> std::unique_ptr<wl::WorkloadBase> {
        return std::make_unique<W>(sys, p);
    };
}

std::vector<RecordCase>
recordCases()
{
    wl::TriadParams triad;
    triad.n_elements = 1 << 19;
    wl::MatmulParams matmul; // n=128: the host-side multiply grows as n^3
    wl::Conv2dParams conv;
    conv.width = 1024;
    conv.height = 512;
    wl::FftParams fft;
    fft.n_ffts = 1024;
    wl::ReductionParams red;
    red.n_elements = 1 << 19;
    red.tile_elems = 256;
    wl::PipelineParams pipe;
    pipe.n_elements = 1 << 18;
    wl::GatherParams gather;
    gather.n_indices = 1 << 15;
    wl::WorkQueueParams wq;
    wq.n_items = 1024;
    return {
        {"triad", factory<wl::Triad>(triad), 804100, 786940,
         0x2fe4c8a45124ec38ull},
        {"matmul", factory<wl::Matmul>(matmul), 98494, 94334,
         0x907f0f871ce1bffdull},
        {"conv2d", factory<wl::Conv2d>(conv), 765814, 744620,
         0x52b4480d6d021838ull},
        {"fft", factory<wl::Fft>(fft), 550866, 541584,
         0x9674649a793436d6ull},
        {"reduction", factory<wl::Reduction>(red), 575788, 525394,
         0x451786b33a1b865aull},
        {"pipeline", factory<wl::Pipeline>(pipe), 1218624, 1082532,
         0xfd297753ab7b9646ull},
        {"gather", factory<wl::Gather>(gather), 761382, 727274,
         0x75b309fed28b4d5dull},
        {"workqueue", factory<wl::WorkQueue>(wq), 10154856, 10103356,
         0x23ab732f9334419cull},
    };
}

trace::WriteOptions
encodeOptions()
{
    trace::WriteOptions w;
    w.compress = true;
    w.index_stride = 4096;
    return w;
}

/** What one traced recording produced. */
struct Recording
{
    bool verified = false;
    std::uint64_t cycles = 0;
    std::uint64_t records = 0;
    std::uint64_t dropped = 0;
    std::uint64_t flushes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fnv = 0;
    double run_ms = 0.0;
};

/** Build, run traced, finalize and encode one case. Spans (when
 *  @p rec records) mark each layer; verify() and the teardown run
 *  after the timed part. Returns the operation's wall time in seconds
 *  via @p op_s. */
Recording
recordOnce(const RecordCase& c, SpanRecorder& rec, double& op_s)
{
    Recording out;
    std::unique_ptr<rt::CellSystem> sys;
    std::unique_ptr<pdt::Pdt> tracer;
    std::unique_ptr<wl::WorkloadBase> w;
    trace::TraceData data;
    std::vector<std::uint8_t> buf;
    const Clock::time_point t0 = Clock::now();
    {
        Scope op(rec, "op.record");
        {
            Scope s(rec, "wl.build");
            sys = std::make_unique<rt::CellSystem>();
            tracer = std::make_unique<pdt::Pdt>(*sys);
            w = c.make(*sys);
            w->start();
        }
        {
            Scope s(rec, "pdt.tracer.run");
            const Clock::time_point r0 = Clock::now();
            sys->run();
            out.run_ms = secondsSince(r0) * 1e3;
        }
        {
            Scope s(rec, "pdt.tracer.finalize");
            data = tracer->finalize();
        }
        {
            Scope s(rec, "trace.encode");
            buf = trace::writeBuffer(data, encodeOptions());
        }
    }
    op_s = secondsSince(t0);
    out.verified = w->verify();
    out.cycles = w->elapsed();
    out.records = data.records.size();
    out.bytes = buf.size();
    out.fnv = ta::fnv1a64(std::string(buf.begin(), buf.end()));
    for (const pdt::SpuTracerCounters& s : tracer->stats().spu) {
        out.dropped += s.dropped;
        out.flushes += s.flushes;
    }
    return out;
}

/** Untraced run: simulated cycles, host run time, events dispatched. */
struct Untraced
{
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    double run_ms = 0.0;
};

Untraced
runUntraced(const RecordCase& c, SpanRecorder& rec)
{
    rt::CellSystem sys;
    std::unique_ptr<wl::WorkloadBase> w = c.make(sys);
    w->start();
    Untraced u;
    {
        Scope s(rec, "sim.engine.run");
        const Clock::time_point r0 = Clock::now();
        sys.run();
        u.run_ms = secondsSince(r0) * 1e3;
    }
    u.cycles = w->elapsed();
    u.events = sys.engine().eventsDispatched();
    return u;
}

/** The first thing wrong with @p r, or "" when it matches the pins. */
std::string
checkRecording(const RecordCase& c, const Recording& r)
{
    const std::string name = c.name;
    if (!r.verified)
        return name + ": verify() failed";
    if (r.dropped != 0)
        return name + ": tracer dropped events";
    if (r.cycles != c.traced_cycles)
        return name + ": traced cycles " + std::to_string(r.cycles) +
               " != pinned " + std::to_string(c.traced_cycles);
    if (r.fnv != c.trace_fnv)
        return name + ": trace digest " + hex(r.fnv) + " != pinned " + hex(c.trace_fnv);
    return "";
}

} // namespace

void
runRecord(const Context& ctx, Result& out)
{
    // As in bench/common.h: fixed glibc thresholds, so operations
    // reuse heap memory instead of re-faulting fresh pages, and the
    // peak RSS does not depend on the seeded order of the cases.
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    std::vector<RecordCase> cases = recordCases();

    // Set-up: build every workload's inputs (system, tracer, workload
    // construction fills the host arrays), 25 times: one set-up takes
    // about 10 ms, so a few would leave the median at the mercy of one
    // slow moment of the host.
    std::vector<double> setups;
    for (int rep = 0; rep < 25; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (const RecordCase& c : cases) {
            rt::CellSystem sys;
            pdt::Pdt tracer(sys);
            std::unique_ptr<wl::WorkloadBase> w = c.make(sys);
        }
        setups.push_back(secondsSince(t0));
    }

    // One untimed warm-up cycle in the fixed order grows the heap to
    // its working size before the seeded order runs.
    SpanRecorder off(false);
    for (const RecordCase& c : cases) {
        double op_s = 0.0;
        recordOnce(c, off, op_s);
    }

    std::uint64_t state = ctx.seed;
    for (std::size_t i = cases.size(); i > 1; --i)
        std::swap(cases[i - 1], cases[splitmix64(state) % i]);

    std::map<std::string, std::vector<double>> per_case;
    std::map<std::string, Recording> last;
    // One operation is one cycle: each case recorded once, in the
    // seeded order. The eight cases take 5-15 ms each, so percentiles
    // over single recordings would fall in the gaps between cases and
    // jump with the slowest or fastest recording of one of them.
    std::vector<double> cycle_ms;
    double busy_s = 0.0;
    std::uint64_t records = 0, bytes = 0;
    const Clock::time_point start = Clock::now();
    while (cycle_ms.empty() || secondsSince(start) < ctx.seconds) {
        double cycle_s = 0.0;
        for (const RecordCase& c : cases) {
            double op_s = 0.0;
            const Recording r = recordOnce(c, off, op_s);
            ++out.attempted;
            cycle_s += op_s;
            per_case[c.name].push_back(op_s * 1e3);
            last[c.name] = r;
            busy_s += op_s;
            records += r.records;
            bytes += r.bytes;
            const std::string problem = checkRecording(c, r);
            if (!problem.empty())
                out.fail(problem);
        }
        cycle_ms.push_back(cycle_s * 1e3);
    }

    // The untraced reference run of each case is an operation too.
    for (const RecordCase& c : cases) {
        const Untraced u = runUntraced(c, off);
        const Recording& r = last[c.name];
        out.notes.push_back("record " + std::string(c.name) + ": " +
                            std::to_string(r.records) + " records, cycles " +
                            std::to_string(r.cycles) + " traced / " +
                            std::to_string(u.cycles) + " untraced, digest " +
                            hex(r.fnv) + ", median " +
                            std::to_string(median(per_case[c.name])) + " ms");
        ++out.attempted;
        if (u.cycles != c.untraced_cycles)
            out.fail(std::string(c.name) + ": untraced cycles " +
                     std::to_string(u.cycles) + " != pinned " +
                     std::to_string(c.untraced_cycles));
    }

    out.set("setup_s", median(setups), "s");
    out.set("wall_p50_ms", median(cycle_ms), "ms");
    out.set("wall_p99_ms", percentile(cycle_ms, 0.99), "ms");
    out.set("records_per_s", static_cast<double>(records) / busy_s, "1/s");
    out.set("queries_per_s", static_cast<double>(cycle_ms.size()) / busy_s,
            "1/s");
    out.set("peak_rss_mb", selfPeakRssMb(), "MB");
    out.set("trace_bytes_per_record",
            static_cast<double>(bytes) / static_cast<double>(records),
            "B/record");
}

void
tracedRecord(const Context&, bool own, SpanRecorder& rec, Result& out)
{
    const std::vector<RecordCase> cases = recordCases();
    // The same operations with spans off, first (own phase only), for
    // the tracing overhead.
    double plain_s = 0.0;
    if (own) {
        SpanRecorder off(false);
        for (const RecordCase& c : cases) {
            double op_s = 0.0;
            recordOnce(c, off, op_s);
            plain_s += op_s;
        }
    }
    std::uint64_t events = 0, cyc_traced = 0, cyc_untraced = 0;
    std::uint64_t records = 0, flushes = 0;
    double untraced_ms = 0.0, traced_ms = 0.0;
    double traced_op_s = 0.0;
    std::uint64_t op = 0;
    for (const RecordCase& c : cases) {
        rec.setOp(0);
        const Untraced u = runUntraced(c, rec);
        events += u.events;
        cyc_untraced += u.cycles;
        untraced_ms += u.run_ms;
        rec.setOp(++op);
        double op_s = 0.0;
        const Recording r = recordOnce(c, rec, op_s);
        traced_op_s += op_s;
        cyc_traced += r.cycles;
        records += r.records;
        flushes += r.flushes;
        traced_ms += r.run_ms;
        ++out.attempted;
        const std::string problem = checkRecording(c, r);
        if (!problem.empty())
            out.fail(problem);
    }
    rec.setOp(0);
    const std::vector<Span>& spans = rec.spans();
    const double run_ms = spanMs(spans, "sim.engine.run");
    const double encode_ms = spanMs(spans, "trace.encode");
    out.set("sim.engine.run_ms", run_ms, "ms");
    out.set("sim.engine.events", static_cast<double>(events), "count");
    out.set("sim.engine.ns_per_event",
            run_ms * 1e6 / static_cast<double>(events), "ns");
    out.set("pdt.tracer.host_overhead_pct",
            100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
    out.set("pdt.tracer.finalize_ms", spanMs(spans, "pdt.tracer.finalize"),
            "ms");
    out.set("pdt.tracer.records", static_cast<double>(records), "count");
    out.set("pdt.tracer.flushes", static_cast<double>(flushes), "count");
    out.set("pdt.tracer.sim_overhead_pct",
            100.0 * static_cast<double>(cyc_traced - cyc_untraced) /
                static_cast<double>(cyc_untraced),
            "%");
    out.set("trace.encode.ms", encode_ms, "ms");
    out.set("trace.encode.records_per_s",
            static_cast<double>(records) / (encode_ms / 1e3), "1/s");

    if (own) {
        out.set("bench.span_coverage", spanCoverage(spans, "op.record"),
                "ratio");
        out.set("bench.tracing_overhead_pct",
                100.0 * (traced_op_s - plain_s) / plain_s, "%");
    }
}

} // namespace perfbench
