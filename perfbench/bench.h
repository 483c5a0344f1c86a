/**
 * @file
 * Shared pieces of the repository benchmark: run context, metric
 * sink, in-memory layer spans, and small helpers (timing, digests,
 * percentiles, child processes).
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions; nothing inside the library is
 * instrumented. A span has a name, start, end, parent and operation
 * id; a layer's self time is its span minus the part its child spans
 * cover.
 */
#ifndef CELL_PERFBENCH_BENCH_H
#define CELL_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose outputs have digests pinned in the benchmark. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Everything a workload needs from the command line. */
struct Context
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool traced = false;
    std::string ta;   ///< path of the `ta` binary under test
    std::string work; ///< scratch directory inside the checkout
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run reports: outcome counts and named metrics. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; ///< human-readable lines

    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Count a failed check; @p why goes to the human-readable log. */
    void fail(const std::string& why);
};

// ---------------------------------------------------------------------------
// Spans

struct Span
{
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1; ///< index into the same recorder, -1 = root
    std::uint64_t op = 0;     ///< operation id; 0 = outside any operation
};

/** In-memory span log for one thread. Disabled recorders cost one
 *  branch per scope, which is how the untraced comparison runs. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    /** Operation id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    std::int64_t open(const char* name);
    void close(std::int64_t id);

    const std::vector<Span>& spans() const { return spans_; }
    /** Append @p other's spans (another thread's), fixing parents. */
    void merge(const SpanRecorder& other);

  private:
    bool enabled_;
    std::uint64_t op_ = 0;
    std::int64_t current_ = -1;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(SpanRecorder& rec, const char* name)
        : rec_(rec), id_(rec.open(name))
    {
    }
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder& rec_;
    std::int64_t id_;
};

/** Per-name totals over a span log. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/** Totals by group, then span name; self time = span minus its
 *  children. A span's group is the name of its root span when that
 *  is an operation ("op.*"), else "probes". */
std::map<std::string, std::map<std::string, LayerTotals>>
layerTotals(const std::vector<Span>& spans);

/** Share of the wall time of spans named @p op_name that their child
 *  spans cover (1.0 = every microsecond is inside a layer span). */
double spanCoverage(const std::vector<Span>& spans, const std::string& op_name);

/** Milliseconds in spans named @p name (summed). */
double spanMs(const std::vector<Span>& spans, const std::string& name);

/** Write the log as TSV (op, id, parent, name, start_ns, end_ns). */
void writeSpans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Helpers

/** Nearest-rank percentile (q in [0,1]) of @p v; sorts a copy. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** @p v as 16 hex digits (digests in messages). */
std::string hex(std::uint64_t v);

/** FNV-1a 64 of a whole file's bytes; throws if unreadable. */
std::uint64_t fnvFile(const std::string& path);

/** splitmix64 step: deterministic stream from a seed. */
std::uint64_t splitmix64(std::uint64_t& state);
/** Uniform double in [0,1) from a splitmix64 stream. */
double uniform01(std::uint64_t& state);

/** Peak resident set of this process in MiB. */
double selfPeakRssMb();

/** Outcome of a child process. */
struct ChildResult
{
    int status = -1;      ///< raw wait status
    double wall_s = 0.0;  ///< spawn to reap
    double max_rss_mb = 0.0;
    bool ok() const;
};

/** Run @p argv with stdout sent to @p stdout_path and stderr to
 *  @p stderr_path, wait for it with wait4 and return its status, wall
 *  time and peak RSS. */
ChildResult runChild(const std::vector<std::string>& argv,
                     const std::string& stdout_path,
                     const std::string& stderr_path);

/** Start @p argv in the background (stdout/stderr to @p log_path). */
int spawnChild(const std::vector<std::string>& argv,
               const std::string& log_path);

/** Workload entry points; each fills @p out. */
void runReport(const Context& ctx, Result& out);
void runServe(const Context& ctx, Result& out);
void runRecord(const Context& ctx, Result& out);

/** Traced phases: each records its layers' per-layer metrics into
 *  @p out. @p own marks the selected workload's phase, which also
 *  reports bench.span_coverage and bench.tracing_overhead_pct. */
void tracedReport(const Context& ctx, bool own, SpanRecorder& rec, Result& out);
void tracedServe(const Context& ctx, bool own, SpanRecorder& rec, Result& out);
void tracedRecord(const Context& ctx, bool own, SpanRecorder& rec, Result& out);

} // namespace perfbench

#endif // CELL_PERFBENCH_BENCH_H
