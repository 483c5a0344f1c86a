/**
 * @file
 * `serve` workload: a `ta serve --workers 2 --per-query 2 --threads 4`
 * daemon with the default 64 MiB block cache, driven by two
 * closed-loop clients through Client::callWithRetry. About 90% of
 * requests are Window queries over two indexed v3 2M-record traces
 * (multi_core and basic, ~128 MB decoded: twice the cache), with
 * widths from span/1024 to span/64 at uniform positions; about 5% are
 * windowed Profile queries and about 5% whole-trace Stats/Loss on a
 * 200k-record v1 drop_storm trace. Index seek, block decode and cache
 * hits set p50; the sharded whole-trace analysis sets p99.
 */
#include <cmath>
#include <csignal>
#include <fstream>
#include <sstream>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "ta/parallel.h"
#include "ta/profile.h"
#include "ta/query.h"
#include "ta/serve.h"
#include "trace/gen.h"
#include "trace/writer.h"

namespace perfbench {
namespace {

using namespace cell;
using ta::serve::Op;
using ta::serve::Request;
using ta::serve::Response;
using ta::serve::Status;

constexpr std::uint64_t kBigRecords = 2'000'000;
constexpr std::uint64_t kStormRecords = 200'000;
constexpr unsigned kClients = 2;

struct TraceFile
{
    const char* name;
    trace::gen::Scenario scenario;
    std::uint32_t spes; ///< fixed, so the seed changes content, not shape
    std::uint64_t records;
    bool v3;            ///< v3 + index; otherwise plain v1
};

constexpr TraceFile kTraces[] = {
    {"mc", trace::gen::Scenario::MultiCore, 6, kBigRecords, true},
    {"basic", trace::gen::Scenario::Basic, 2, kBigRecords, true},
    {"storm", trace::gen::Scenario::DropStorm, 3, kStormRecords, false},
};

std::string
tracePath(const Context& ctx, const TraceFile& t)
{
    return ctx.work + "/serve_" + t.name + ".pdt";
}

/** Generate the three served traces; returns total v3 bytes and
 *  records via the out-parameters. */
void
makeTraces(const Context& ctx, std::uint64_t& v3_bytes, std::uint64_t& v3_records)
{
    v3_bytes = v3_records = 0;
    std::uint64_t i = 0;
    for (const TraceFile& t : kTraces) {
        trace::gen::GenOptions g;
        g.seed = ctx.seed + i++;
        g.scenario = static_cast<int>(t.scenario);
        g.num_spes = t.spes;
        g.records = t.records;
        const trace::TraceData data = trace::gen::generate(g);
        trace::WriteOptions w;
        if (t.v3) {
            w.compress = true;
            w.index_stride = 4096;
        }
        const std::vector<std::uint8_t> buf = trace::writeBuffer(data, w);
        std::ofstream(tracePath(ctx, t), std::ios::binary)
            .write(reinterpret_cast<const char*>(buf.data()),
                   static_cast<std::streamsize>(buf.size()));
        if (t.v3) {
            v3_bytes += buf.size();
            v3_records += data.records.size();
        }
    }
}

/** The daemon process; stopped and reaped on every exit path. */
class Daemon
{
  public:
    Daemon(const Context& ctx, std::string socket) : socket_(std::move(socket))
    {
        std::vector<std::string> argv = {ctx.ta,      "--workers", "2",
                                         "--per-query", "2",       "--threads",
                                         "4",         "serve",     socket_};
        for (const TraceFile& t : kTraces)
            argv.push_back(std::string(t.name) + "=" + tracePath(ctx, t));
        ::unlink(socket_.c_str());
        pid_ = spawnChild(argv, ctx.work + "/serve.log");
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            try {
                ta::serve::Client c(socket_);
                Request ping;
                if (c.call(ping).status == Status::Ok)
                    return;
            } catch (const std::exception&) {
            }
            int st = 0;
            if (::waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("ta serve exited at start-up (see serve.log)");
            }
            if (secondsSince(t0) > 60.0)
                throw std::runtime_error("ta serve did not answer a ping");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Peak resident set (VmHWM) of the daemon in MiB. */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (in >> key) {
            if (key == "VmHWM:") {
                double kb = 0.0;
                in >> kb;
                return kb / 1024.0;
            }
        }
        return 0.0;
    }

    /** Ask for a clean shutdown; true if the daemon exited 0. */
    bool stop()
    {
        if (pid_ < 0)
            return true;
        try {
            ta::serve::Client c(socket_);
            Request req;
            req.op = Op::Shutdown;
            c.call(req);
        } catch (const std::exception&) {
            ::kill(pid_, SIGTERM);
        }
        int st = 0;
        const Clock::time_point t0 = Clock::now();
        while (::waitpid(pid_, &st, WNOHANG) != pid_) {
            if (secondsSince(t0) > 20.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &st, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(st) && WEXITSTATUS(st) == 0;
    }

  private:
    std::string socket_;
    int pid_ = -1;
};

/** Daemon counters from a server-stats body (key=value lines). */
std::map<std::string, double>
serverStats(const std::string& socket)
{
    ta::serve::Client c(socket);
    Request req;
    req.op = Op::ServerStats;
    const Response rsp = c.callWithRetry(req);
    std::map<std::string, double> out;
    std::istringstream in(rsp.body);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            out[line.substr(0, eq)] = std::stod(line.substr(eq + 1));
    }
    return out;
}

/** Time range of each big trace, for placing windows. */
struct TraceRanges
{
    std::uint64_t start[2] = {0, 0};
    std::uint64_t end[2] = {0, 0};
};

/** The seeded request mix. */
Request
nextRequest(std::uint64_t& state, const TraceRanges& s)
{
    Request req;
    const double r = uniform01(state);
    if (r >= 0.95) {
        req.op = uniform01(state) < 0.5 ? Op::Stats : Op::Loss;
        req.name = "storm";
        return req;
    }
    const int t = uniform01(state) < 0.5 ? 0 : 1;
    const double span = static_cast<double>(s.end[t] - s.start[t]);
    // Log-uniform width between span/1024 and span/64.
    const double width = std::max(1.0, span * std::exp2(-6.0 - 4.0 * uniform01(state)));
    req.from = s.start[t] + static_cast<std::uint64_t>(uniform01(state) * (span - width));
    req.to = req.from + static_cast<std::uint64_t>(width);
    req.name = kTraces[t].name;
    if (r < 0.90) {
        req.op = Op::Window;
    } else {
        req.op = Op::Profile;
        req.windowed = true;
    }
    return req;
}

/** One completed client call. */
struct Call
{
    Request req;
    Status status = Status::Error;
    bool transport_error = false;
    std::uint64_t body_fnv = 0;
    double rtt_ms = 0.0;
};

/** Two closed-loop clients until @p seconds pass (or @p per_client
 *  calls each, when nonzero). Spans go to one recorder per client. */
std::vector<Call>
driveClients(const std::string& socket, const Context& ctx, const TraceRanges& ranges,
             double seconds, std::size_t per_client, std::vector<SpanRecorder>& recs,
             double& wall_s)
{
    std::vector<std::vector<Call>> calls(kClients);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            std::uint64_t state = ctx.seed * 0x9e3779b97f4a7c15ull + c + 1;
            ta::serve::ClientOptions opt;
            opt.backoff_seed = c + 1;
            ta::serve::Client client(socket, opt);
            SpanRecorder& rec = recs[c];
            for (std::uint64_t i = 0;; ++i) {
                if (per_client ? i >= per_client : secondsSince(start) >= seconds)
                    break;
                Call call;
                call.req = nextRequest(state, ranges);
                rec.setOp(rec.enabled() ? (c + 1) * 1'000'000 + i + 1 : 0);
                const Clock::time_point t0 = Clock::now();
                try {
                    Scope op(rec, "op.serve");
                    Scope s(rec, call.req.op == Op::Window    ? "ta.serve.window"
                                 : call.req.op == Op::Profile ? "ta.serve.profile"
                                 : call.req.op == Op::Stats   ? "ta.serve.stats"
                                                              : "ta.serve.loss");
                    const Response rsp = client.callWithRetry(call.req);
                    call.status = rsp.status;
                    call.rtt_ms = secondsSince(t0) * 1e3;
                    call.body_fnv = ta::fnv1a64(rsp.body);
                } catch (const std::exception&) {
                    call.transport_error = true;
                    call.rtt_ms = secondsSince(t0) * 1e3;
                }
                calls[c].push_back(std::move(call));
            }
            rec.setOp(0);
        });
    }
    for (std::thread& t : threads)
        t.join();
    wall_s = secondsSince(start);
    std::vector<Call> all;
    for (auto& v : calls)
        for (Call& c : v)
            all.push_back(std::move(c));
    return all;
}

TraceRanges
traceRanges(const ta::Analysis* big)
{
    TraceRanges s;
    for (int t = 0; t < 2; ++t) {
        s.start[t] = big[t].model.startTb();
        s.end[t] = big[t].model.endTb();
    }
    return s;
}

} // namespace

void
runServe(const Context& ctx, Result& out)
{
    const std::string socket = ctx.work + "/ta.sock";
    std::uint64_t v3_bytes = 0, v3_records = 0;
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < 3; ++rep) {
        if (daemon)
            daemon->stop();
        const Clock::time_point t0 = Clock::now();
        makeTraces(ctx, v3_bytes, v3_records);
        daemon = std::make_unique<Daemon>(ctx, socket);
        setups.push_back(secondsSince(t0));
    }

    // References, outside set-up and timing: full analyses of every
    // served trace.
    ta::ParallelOptions popt;
    popt.threads = 4;
    ta::Analysis big[2] = {ta::analyzeFileParallel(tracePath(ctx, kTraces[0]), popt),
                           ta::analyzeFileParallel(tracePath(ctx, kTraces[1]), popt)};
    const ta::Analysis storm = ta::analyzeFileParallel(tracePath(ctx, kTraces[2]), popt);
    std::uint64_t want_stats = 0, want_loss = 0;
    {
        std::ostringstream s, l;
        ta::printSummary(s, storm);
        ta::printLossReport(l, storm);
        want_stats = ta::fnv1a64(s.str());
        want_loss = ta::fnv1a64(l.str());
    }
    const TraceRanges ranges = traceRanges(big);

    const auto before = serverStats(socket);
    std::vector<SpanRecorder> recs(kClients, SpanRecorder(false));
    double wall_s = 0.0;
    const std::vector<Call> calls =
        driveClients(socket, ctx, ranges, ctx.seconds, 0, recs, wall_s);
    const auto after = serverStats(socket);
    const double rss = daemon->peakRssMb();
    if (!daemon->stop())
        out.fail("ta serve did not shut down cleanly");

    // Check every body against the brute-force reference.
    std::vector<std::string> problems(calls.size());
    std::vector<std::uint64_t> answered(calls.size(), 0);
    {
        ta::WorkerPool pool(4);
        pool.parallelFor(calls.size(), [&](std::uint64_t i) {
            const Call& c = calls[i];
            if (c.transport_error) {
                problems[i] = "transport error";
                return;
            }
            if (c.status != Status::Ok) {
                problems[i] = std::string("status ") + ta::serve::statusName(c.status);
                return;
            }
            std::uint64_t want = 0;
            if (c.req.op == Op::Stats || c.req.op == Op::Loss) {
                want = c.req.op == Op::Stats ? want_stats : want_loss;
                answered[i] = storm.stats.total_records;
            } else {
                const ta::Analysis& a = big[c.req.name == kTraces[0].name ? 0 : 1];
                const ta::WindowResult w = ta::queryWindow(a, c.req.from, c.req.to);
                for (const ta::CoreTimeline& tl : w.cores)
                    answered[i] += tl.events.size();
                if (c.req.op == Op::Window) {
                    want = ta::fnv1a64(ta::windowReport(w));
                } else {
                    std::ostringstream os;
                    ta::printActivity(os, ta::windowAnalysis(w), c.req.buckets);
                    want = ta::fnv1a64(os.str());
                }
            }
            if (want != c.body_fnv)
                problems[i] = std::string(ta::serve::opName(c.req.op)) + " " +
                              c.req.name + " [" + std::to_string(c.req.from) + ", " +
                              std::to_string(c.req.to) + ") body differs from reference";
        });
    }
    std::vector<double> rtt;
    std::uint64_t records = 0, ok = 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        ++out.attempted;
        rtt.push_back(calls[i].rtt_ms);
        if (!problems[i].empty()) {
            out.fail(problems[i]);
            continue;
        }
        ++ok;
        records += answered[i];
    }
    const auto delta = [&](const char* k) { return after.at(k) - before.at(k); };
    const auto count = [](double v) { return std::to_string(static_cast<long long>(v)); };
    // Every shed or timed-out attempt is retried by callWithRetry.
    out.notes.push_back("server: " + count(delta("shed")) + " shed, " +
                        count(delta("timeouts")) + " timeouts, " +
                        count(delta("shed") + delta("timeouts")) + " retries, queue peak " +
                        count(after.at("queue_peak")) + ", " +
                        std::to_string(calls.size()) + " calls");

    out.set("setup_s", median(setups), "s");
    out.set("wall_p50_ms", median(rtt), "ms");
    out.set("wall_p99_ms", percentile(rtt, 0.99), "ms");
    out.set("records_per_s", static_cast<double>(records) / wall_s, "1/s");
    out.set("queries_per_s", static_cast<double>(ok) / wall_s, "1/s");
    out.set("peak_rss_mb", rss, "MB");
    out.set("trace_bytes_per_record",
            static_cast<double>(v3_bytes) / static_cast<double>(v3_records), "B/record");
}

void
tracedServe(const Context& ctx, bool own, SpanRecorder& rec, Result& out)
{
    std::uint64_t v3_bytes = 0, v3_records = 0;
    makeTraces(ctx, v3_bytes, v3_records);
    ta::ParallelOptions popt;
    popt.threads = 4;
    TraceRanges ranges;
    {
        const ta::Analysis big[2] = {
            ta::analyzeFileParallel(tracePath(ctx, kTraces[0]), popt),
            ta::analyzeFileParallel(tracePath(ctx, kTraces[1]), popt)};
        ranges = traceRanges(big);
    }

    // ta.parallel: the small trace at 1 and 2 threads.
    const std::string storm = tracePath(ctx, kTraces[2]);
    std::vector<double> t1, t2;
    for (int rep = 0; rep < 3; ++rep) {
        for (unsigned threads : {1u, 2u}) {
            ta::ParallelOptions p;
            p.threads = threads;
            const Clock::time_point t0 = Clock::now();
            {
                Scope s(rec, threads == 1 ? "ta.parallel.analyze_1t" : "ta.parallel.analyze");
                ta::analyzeFileParallel(storm, p);
            }
            (threads == 1 ? t1 : t2).push_back(secondsSince(t0) * 1e3);
        }
    }
    out.set("ta.parallel.analyze_ms", median(t2), "ms");
    out.set("ta.parallel.speedup", median(t1) / median(t2), "ratio");

    // ta.query: the window mix in-process, own 64 MiB cache.
    constexpr std::size_t kQueries = 800;
    ta::BlockCache cache(64u << 20);
    std::uint64_t state = ctx.seed * 0x9e3779b97f4a7c15ull + 1;
    std::vector<double> q_ms;
    std::uint64_t scanned = 0, indexed = 0;
    while (q_ms.size() < kQueries) {
        const Request req = nextRequest(state, ranges);
        if (req.op != Op::Window)
            continue;
        ta::QueryOptions q;
        q.threads = 2;
        q.cache = &cache;
        const Clock::time_point t0 = Clock::now();
        Scope s(rec, "ta.query.window");
        const ta::WindowResult w = ta::queryWindowFile(
            tracePath(ctx, kTraces[req.name == kTraces[0].name ? 0 : 1]), req.from,
            req.to, q);
        q_ms.push_back(secondsSince(t0) * 1e3);
        scanned += w.records_scanned;
        indexed += w.used_index;
    }
    const ta::BlockCache::Stats cs = cache.stats();
    const double window_p50 = median(q_ms);
    out.set("ta.query.window_p50_ms", window_p50, "ms");
    out.set("ta.query.window_p99_ms", percentile(q_ms, 0.99), "ms");
    out.set("ta.query.records_scanned",
            static_cast<double>(scanned) / static_cast<double>(kQueries), "count");
    out.set("ta.query.index_used_ratio",
            static_cast<double>(indexed) / static_cast<double>(kQueries), "ratio");
    out.set("ta.query.cache_hit_ratio",
            static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses),
            "ratio");
    out.set("ta.query.cache_evictions", static_cast<double>(cs.evictions), "count");

    // ta.serve: the full mix through a fresh daemon, a fixed call
    // count. The untraced repeat (own phase only) gets its own fresh
    // daemon so both see the same cold cache.
    constexpr std::size_t kPerClient = 400;
    const std::string socket = ctx.work + "/ta.sock";
    struct Mix
    {
        std::vector<Call> calls;
        double wall_s = 0.0;
        std::map<std::string, double> before, after;
    };
    const auto runMix = [&](std::vector<SpanRecorder>& recs) {
        Mix m;
        Daemon daemon(ctx, socket);
        m.before = serverStats(socket);
        m.calls = driveClients(socket, ctx, ranges, 0.0, kPerClient, recs, m.wall_s);
        m.after = serverStats(socket);
        if (!daemon.stop())
            out.fail("ta serve did not shut down cleanly");
        return m;
    };
    double plain_wall = 0.0;
    if (own) {
        std::vector<SpanRecorder> off(kClients, SpanRecorder(false));
        plain_wall = runMix(off).wall_s;
    }
    std::vector<SpanRecorder> recs(kClients);
    const Mix m = runMix(recs);
    for (const SpanRecorder& r : recs)
        rec.merge(r);
    std::vector<double> win, stats;
    for (const Call& c : m.calls) {
        ++out.attempted;
        if (c.transport_error || c.status != Status::Ok)
            out.fail("served call failed");
        if (c.req.op == Op::Window)
            win.push_back(c.rtt_ms);
        else if (c.req.op == Op::Stats)
            stats.push_back(c.rtt_ms);
    }
    const auto delta = [&m](const char* k) { return m.after.at(k) - m.before.at(k); };
    out.set("ta.serve.window_rtt_p50_ms", median(win), "ms");
    out.set("ta.serve.stats_rtt_p50_ms", median(stats), "ms");
    out.set("ta.serve.overhead_ms", median(win) - window_p50, "ms");
    out.set("ta.serve.queue_peak", m.after.at("queue_peak"), "count");
    // Every shed or timed-out attempt is retried by callWithRetry.
    out.set("ta.serve.retries", delta("shed") + delta("timeouts"), "count");
    out.set("ta.serve.shed", delta("shed"), "count");
    out.set("ta.serve.timeouts", delta("timeouts"), "count");
    if (own) {
        out.set("bench.span_coverage", spanCoverage(rec.spans(), "op.serve"), "ratio");
        out.set("bench.tracing_overhead_pct",
                100.0 * (m.wall_s - plain_wall) / plain_wall, "%");
    }
}

} // namespace perfbench
