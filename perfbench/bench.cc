#include "bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

void
Result::fail(const std::string& why)
{
    ++failed;
    // Keep the log readable when one defect fails every operation.
    if (notes.size() < 40)
        notes.push_back("FAIL: " + why);
}

// ---------------------------------------------------------------------------
// Spans

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

} // namespace

std::int64_t
SpanRecorder::open(const char* name)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, nowNs(), 0, current_, op_});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
}

void
SpanRecorder::close(std::int64_t id)
{
    if (id < 0)
        return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = nowNs();
    current_ = s.parent;
}

void
SpanRecorder::merge(const SpanRecorder& other)
{
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(std::move(s));
    }
}

namespace {

/** Per span: nanoseconds covered by its direct children. Children of
 *  one parent come from one thread, so they never overlap. */
std::vector<std::uint64_t>
childCoverage(const std::vector<Span>& spans)
{
    std::vector<std::uint64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
        if (s.parent >= 0)
            covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    return covered;
}

} // namespace

std::map<std::string, std::map<std::string, LayerTotals>>
layerTotals(const std::vector<Span>& spans)
{
    const std::vector<std::uint64_t> covered = childCoverage(spans);
    std::map<std::string, std::map<std::string, LayerTotals>> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t root = i;
        while (spans[root].parent >= 0)
            root = static_cast<std::size_t>(spans[root].parent);
        const std::string& top = spans[root].name;
        const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
        LayerTotals& t = out[top.rfind("op.", 0) == 0 ? top : "probes"][spans[i].name];
        ++t.calls;
        t.total_ms += static_cast<double>(dur) / 1e6;
        t.self_ms += static_cast<double>(dur - std::min(dur, covered[i])) / 1e6;
    }
    return out;
}

double
spanCoverage(const std::vector<Span>& spans, const std::string& op_name)
{
    const std::vector<std::uint64_t> covered = childCoverage(spans);
    double wall = 0.0;
    double inside = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != op_name)
            continue;
        const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
        wall += static_cast<double>(dur);
        inside += static_cast<double>(std::min(dur, covered[i]));
    }
    return wall > 0.0 ? inside / wall : 0.0;
}

double
spanMs(const std::vector<Span>& spans, const std::string& name)
{
    double ms = 0.0;
    for (const Span& s : spans) {
        if (s.name == name)
            ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    return ms;
}

void
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream os(path);
    os << "op\tid\tparent\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        os << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name
           << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Helpers

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
fnvFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<char> buf(1 << 20);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const std::streamsize n = in.gcount();
        for (std::streamsize i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
uniform01(std::uint64_t& state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double
selfPeakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
ChildResult::ok() const
{
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

std::vector<char*>
argvPointers(const std::vector<std::string>& argv)
{
    std::vector<char*> out;
    for (const std::string& a : argv)
        out.push_back(const_cast<char*>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

pid_t
spawnRedirected(const std::vector<std::string>& argv,
                const std::string& out_path, const std::string& err_path)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args = argvPointers(argv);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throw std::runtime_error("cannot start " + argv[0] + ": " +
                                 std::strerror(rc));
    return pid;
}

} // namespace

ChildResult
runChild(const std::vector<std::string>& argv, const std::string& stdout_path,
         const std::string& stderr_path)
{
    ChildResult r;
    const Clock::time_point t0 = Clock::now();
    const pid_t pid = spawnRedirected(argv, stdout_path, stderr_path);
    struct rusage ru
    {
    };
    pid_t got = -1;
    do {
        got = wait4(pid, &r.status, 0, &ru);
    } while (got < 0 && errno == EINTR);
    r.wall_s = secondsSince(t0);
    if (got != pid)
        throw std::runtime_error("wait4 failed for " + argv[0]);
    r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

int
spawnChild(const std::vector<std::string>& argv, const std::string& log_path)
{
    return spawnRedirected(argv, "/dev/null", log_path);
}

} // namespace perfbench
