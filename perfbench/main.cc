/**
 * @file
 * The simulator benchmark driver.
 *
 *   vans_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-out <file>] [--tiny]
 *
 * Sets the workload up at least three times and for at least one
 * second (setup_s is the median), then runs one untimed reference
 * round and timed rounds until --seconds have passed, each timed round
 * in a child process forked from the state after the reference round
 * (peak_rss_mb is read then too). Every round repeats the same
 * simulated work, so its MetricsRegistry digests and counters must
 * equal the reference round's; that and the figure benches' shape
 * checks are the run's checks. With --trace 1, untraced and traced
 * rounds alternate: the traced ones attribute host time to layers and
 * the difference gives the tracing overhead.
 *
 * Everything is printed as "metric <name> <value> <unit>" lines; the
 * last line is one JSON object with the end-to-end metrics (--trace
 * 0) or the per-layer metrics (--trace 1).
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sha256.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Set up at least this many times, and until this much time has
 *  gone into set-up, so a cheap set-up is timed over many repeats. */
constexpr unsigned minSetups = 3;
constexpr double minSetupSeconds = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool tiny = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vans_perfbench: %s\nusage: vans_perfbench --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--tiny]\nworkloads:",
                 why);
    for (const auto &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds >= 0))
                usage("--seconds takes a non-negative number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Digest of a round: the per-world digests and the counters. */
std::string
roundDigest(const RoundResult &r)
{
    std::string all;
    for (const auto &[world, digest] : r.digests)
        all += world + " " + digest + "\n";
    char buf[64];
    for (const auto &[key, value] : r.counters) {
        std::snprintf(buf, sizeof buf, "%.17g", value);
        all += key + " " + buf + "\n";
    }
    return sha256Hex(all);
}

bool
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        ssize_t w = write(fd, p, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

bool
readAll(int fd, void *data, std::size_t n)
{
    char *p = static_cast<char *>(data);
    while (n > 0) {
        ssize_t got = read(fd, p, n);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/** What a timed round's child process sends back. */
struct ChildRound
{
    double seconds;
    char digest[65];
    std::uint64_t spans;
};

/**
 * Run one timed round in a forked child and wait for it. Every timed
 * round thus starts from the same process state, so whatever a round
 * leaves behind (a leak, a fragmented heap) cannot slow the next. The
 * child sends back its round time, its digest and the spans it added
 * to @p spans; a Span's name pointers stay valid across fork().
 * @return false if the child failed.
 */
bool
runForkedRound(Workload &wl, SpanRecorder &spans, unsigned index,
               double &seconds, std::string &digest)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        bool ok = false;
        try {
            std::size_t base = spans.spans().size();
            auto t0 = Clock::now();
            RoundResult res;
            {
                SpanRecorder::Scope root(spans, "bench", "round", index);
                res = wl.round(spans);
            }
            ChildRound out{secondsSince(t0), {}, spans.spans().size() - base};
            std::string d = roundDigest(res);
            std::memcpy(out.digest, d.c_str(), sizeof out.digest);
            ok = writeAll(fds[1], &out, sizeof out) &&
                 writeAll(fds[1], spans.spans().data() + base,
                          out.spans * sizeof(Span));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "vans_perfbench: round %u: %s\n", index,
                         e.what());
        }
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    ChildRound in{};
    bool ok = readAll(fds[0], &in, sizeof in);
    std::vector<Span> more(ok ? in.spans : 0);
    ok = ok && readAll(fds[0], more.data(), more.size() * sizeof(Span));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return false;
    spans.append(more);
    seconds = in.seconds;
    digest.assign(in.digest, 64);
    return true;
}

/** Deterministic per-layer metrics from the first round's counters. */
std::vector<Metric>
countedMetrics(const std::map<std::string, double> &c)
{
    auto v = [&c](const char *key) {
        auto it = c.find(key);
        return it == c.end() ? 0.0 : it->second;
    };
    return {
        {"common.events_per_req", ratio(v("events"), v("reqs")),
         "events/req"},
        {"common.peak_pending", v("peak.pending"), "count"},
        {"common.pool_peak_live", v("peak.pool_live"), "count"},
        {"common.snapshot_bytes", v("snapshot_bytes"), "B"},
        {"dram.cmds", v("dram.cmds"), "count"},
        {"dram.ref_cmds", v("dram.ref_cmds"), "count"},
        {"dram.row_hit_ratio",
         ratio(v("dram.row_hits"), v("dram.row_accesses")), "ratio"},
        {"baselines.ddr4_reqs", v("baselines.ddr4_reqs"), "count"},
        {"nvram.imc_wpq_stalls", v("nvram.imc_wpq_stalls"), "count"},
        {"nvram.imc_bus_turnarounds", v("nvram.imc_bus_turnarounds"),
         "count"},
        {"nvram.lsq_write_merges", v("nvram.lsq_write_merges"), "count"},
        {"nvram.lsq_partial_drains", v("nvram.lsq_partial_drains"),
         "count"},
        {"nvram.rmw_read_hit_ratio",
         ratio(v("nvram.rmw_read_hits"), v("nvram.rmw_reads")), "ratio"},
        {"nvram.rmw_fills", v("nvram.rmw_fills"), "count"},
        {"nvram.ait_buf_hit_ratio",
         ratio(v("nvram.ait_buf_hits"), v("nvram.ait_buf_lookups")),
         "ratio"},
        {"nvram.media_reads", v("nvram.media_reads"), "count"},
        {"nvram.media_writes", v("nvram.media_writes"), "count"},
        {"nvram.wear_migrations", v("nvram.wear_migrations"), "count"},
        {"nvram.dcache_hit_ratio",
         ratio(v("nvram.dcache_hits"), v("nvram.dcache_lookups")),
         "ratio"},
        {"nvram.dcache_dirty_evicts", v("nvram.dcache_dirty_evicts"),
         "count"},
        {"nvram.dcache_mshr_merges", v("nvram.dcache_mshr_merges"),
         "count"},
        {"nvram.sim_ns_per_req", ratio(v("nvram.sim_ns"), v("nvram.reqs")),
         "ns"},
        {"nvram.accuracy_lens_pct", 100 * v("accuracy.lens"), "%"},
        {"nvram.accuracy_spec_pct", 100 * v("accuracy.spec"), "%"},
        {"cache.llc_mpki",
         1000 * ratio(v("cpu.llc_misses"), v("cpu.insts")), "MPKI"},
        {"cache.tlb_mpki",
         1000 * ratio(v("cpu.tlb_misses"), v("cpu.insts")), "MPKI"},
        {"cache.replay_accesses", v("cache.replay_accesses"), "count"},
        {"cpu.ipc", ratio(v("cpu.insts"), v("cpu.cycles")), "IPC"},
        {"cpu.insts", v("cpu.insts"), "count"},
        {"workloads.trace_records", v("workloads.trace_records"), "count"},
    };
}

/**
 * Which per-layer share each span key feeds. Measured-phase shares
 * are of the traced rounds' time, setup shares of the traced setup's.
 */
struct ShareDef
{
    const char *metric;
    const char *root;
    std::vector<std::string> keys; ///< "layer.call"; "layer." = any call.
};

const std::vector<ShareDef> &
shareDefs()
{
    static const std::vector<ShareDef> defs = {
        {"common.ctor_dtor_pct",
         "round",
         {"common.construct", "common.destroy"}},
        {"common.restore_pct", "round", {"common.restoreInto"}},
        {"common.metrics_pct", "round", {"common.metricsInto"}},
        {"lens.ptrchase_pct", "round", {"lens.ptrChase"}},
        {"lens.stream_pct",
         "round",
         {"lens.streamReads", "lens.streamWrites", "lens.fence"}},
        {"cpu.run_pct", "round", {"cpu.CpuCore::run"}},
        {"baselines.run_pct", "round", {"baselines.CpuCore::run"}},
        {"cache.ctor_dtor_pct", "round", {"cache.construct", "cache.destroy"}},
        {"cache.replay_pct", "round", {"cache.Hierarchy::access"}},
        {"bench.glue_pct", "round", {"bench."}},
        {"common.capture_setup_pct", "setup", {"common.capture"}},
        {"lens.warm_setup_pct", "setup", {"lens.warm"}},
        {"workloads.gen_setup_pct", "setup", {"workloads."}},
    };
    return defs;
}

bool
keyMatches(const std::string &key, const std::string &pattern)
{
    return pattern.back() == '.' ? key.rfind(pattern, 0) == 0
                                 : key == pattern;
}

void
printSelfTimes(const SpanRecorder &spans, const char *root)
{
    double total = spans.rootTime(root);
    auto self = spans.selfTimes(root);
    double sum = 0;
    std::printf("self time by layer.call under '%s' (%.4f s traced):\n",
                root, total);
    for (const auto &[key, s] : self) {
        std::printf("  %-28s %10.4f s %7.2f %%\n", key.c_str(), s,
                    100 * ratio(s, total));
        sum += s;
    }
    std::printf("  %-28s %10.4f s %7.2f %%\n", "(sum)", sum,
                100 * ratio(sum, total));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
run(const Options &o)
{
    vans::setQuiet(true);
    std::printf("workload %s seed %llu seconds %g trace %d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.tiny ? " tiny" : "");
    std::printf("build_type %s\nnproc %ld\n", PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN));

    // One recorder holds the traced run: the first set-up and the
    // traced rounds. Untraced phases record into a disabled one.
    SpanRecorder traced(o.trace);
    SpanRecorder untraced(false);

    std::unique_ptr<Workload> wl;
    std::vector<double> setupTimes;
    double setupTotal = 0;
    for (unsigned k = 0; k < minSetups || setupTotal < minSetupSeconds;
         ++k) {
        SpanRecorder &spans = k == 0 ? traced : untraced;
        wl.reset(); // so peak RSS holds one set-up, not two
        wl = makeWorkload(o.workload, o.seed, o.tiny);
        auto t0 = Clock::now();
        {
            SpanRecorder::Scope root(spans, "bench", "setup");
            wl->setup(spans);
        }
        setupTimes.push_back(secondsSince(t0));
        setupTotal += setupTimes.back();
    }
    std::printf("setup: %zu times, median %.6f s, min %.6f s, max "
                "%.6f s\n",
                setupTimes.size(), median(setupTimes),
                *std::min_element(setupTimes.begin(), setupTimes.end()),
                *std::max_element(setupTimes.begin(), setupTimes.end()));

    // Round 1 warms the host (allocator, caches) and is the reference
    // the timed rounds must reproduce; it runs in this process.
    RoundResult first;
    {
        auto t0 = Clock::now();
        first = wl->round(untraced);
        std::printf("round 1 (reference, untimed): %.4f s\n",
                    secondsSince(t0));
    }
    double referenceRss = peakRssMb();
    std::string firstDigest = roundDigest(first);
    std::printf("%s", first.report.c_str());
    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const Check &c : first.checks) {
        ++attempted;
        failed += c.ok ? 0 : 1;
        std::printf("check [%s] %s\n", c.ok ? "OK" : "FAIL",
                    c.claim.c_str());
    }

    std::vector<double> plainTimes;
    std::vector<double> tracedTimes;
    auto start = Clock::now();
    for (unsigned r = 2;; ++r) {
        bool tracedRound = o.trace && r % 2 == 1;
        double dt = 0;
        std::string digest;
        if (!runForkedRound(*wl, tracedRound ? traced : untraced, r, dt,
                            digest)) {
            std::fprintf(stderr, "vans_perfbench: round %u failed\n", r);
            return 1;
        }
        (tracedRound ? tracedTimes : plainTimes).push_back(dt);
        bool same = digest == firstDigest;
        ++attempted;
        failed += same ? 0 : 1;
        std::printf("round %u%s: %.4f s, digest %s [%s]\n", r,
                    tracedRound ? " (traced)" : "", dt, digest.c_str(),
                    same ? "OK, reproduces round 1" : "FAIL, differs");
        bool enough = !plainTimes.empty() &&
                      (!o.trace || !tracedTimes.empty());
        if (enough && secondsSince(start) >= o.seconds)
            break;
    }

    for (const auto &[world, digest] : first.digests)
        std::printf("digest %s %s\n", world.c_str(), digest.c_str());
    std::printf("digest round %s\n", firstDigest.c_str());

    const auto &c = first.counters;
    double reqs = c.at("reqs");
    double events = c.at("events");
    double roundS = median(plainTimes);
    std::vector<Metric> endToEnd = {
        {"sim_reqs_per_s", ratio(reqs, roundS), "1/s"},
        {"setup_s", median(setupTimes), "s"},
        {"peak_rss_mb", referenceRss, "MB"},
    };
    std::vector<Metric> perLayer = countedMetrics(c);
    perLayer.push_back({"common.host_ns_per_event",
                        1e9 * ratio(roundS, events), "ns"});

    if (o.trace) {
        printSelfTimes(traced, "setup");
        printSelfTimes(traced, "round");
        for (const ShareDef &d : shareDefs()) {
            double total = traced.rootTime(d.root);
            double s = 0;
            for (const auto &[key, self] : traced.selfTimes(d.root)) {
                for (const std::string &p : d.keys)
                    s += keyMatches(key, p) ? self : 0;
            }
            perLayer.push_back({d.metric, 100 * ratio(s, total), "%"});
        }
        double plain = median(plainTimes);
        double overhead =
            100 * ratio(median(tracedTimes) - plain, plain);
        std::printf("tracing overhead: %.2f %% (traced round %.4f s, "
                    "untraced %.4f s)\n",
                    overhead, median(tracedTimes), plain);
        perLayer.push_back({"bench.trace_overhead_pct", overhead, "%"});
        if (!o.traceOut.empty()) {
            if (!traced.writeChromeJson(o.traceOut)) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.traceOut.c_str());
                return 1;
            }
            std::printf("spans written to %s\n", o.traceOut.c_str());
        }
    }

    for (const auto *list : {&endToEnd, &perLayer}) {
        for (const Metric &m : *list) {
            std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    std::printf("checks attempted %zu failed %zu\n", attempted, failed);
    printJson(failed == 0, attempted, failed, o.trace ? perLayer : endToEnd);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vans_perfbench: %s\n", e.what());
        return 1;
    }
}
