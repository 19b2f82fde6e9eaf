#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "baselines/dram_system.hh"
#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/curve.hh"
#include "common/metrics.hh"
#include "common/snapshot.hh"
#include "common/sweep.hh"
#include "cpu/core.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"
#include "sha256.hh"
#include "workloads/cloud.hh"
#include "workloads/spec_synth.hh"

namespace perfbench
{

using namespace vans;
using Scope = SpanRecorder::Scope;

namespace
{

/** Last component of a stat-group name without its index digits:
 *  "vans.imc.dimm0.lsq" -> "lsq", "vans.imc.ch0" -> "ch". */
std::string
leafName(const std::string &group)
{
    std::string leaf = group.substr(group.rfind('.') + 1);
    while (!leaf.empty() && std::isdigit(static_cast<unsigned char>(leaf.back())))
        leaf.pop_back();
    return leaf;
}

/**
 * Add one stat group's layer counters to @p c. DRAM controllers (the
 * AIT buffer's, the Memory Mode cache's and the DDR4 baseline's) are
 * recognised by their command counters and summed together.
 */
void
addGroup(const StatGroup &g, std::map<std::string, double> &c)
{
    auto v = [&g](const char *stat) {
        return static_cast<double>(g.scalarValue(stat));
    };
    std::string leaf = leafName(g.name());
    if (g.allScalars().count("cmd_act")) {
        c["dram.cmds"] += v("cmd_act") + v("cmd_pre") + v("cmd_rd") +
                          v("cmd_wr") + v("cmd_ref");
        c["dram.ref_cmds"] += v("cmd_ref");
        c["dram.row_hits"] += v("row_hits");
        c["dram.row_accesses"] +=
            v("row_hits") + v("row_misses") + v("row_conflicts");
    } else if (leaf == "ch") {
        c["nvram.imc_wpq_stalls"] += v("wpq_stalls");
        c["nvram.imc_bus_turnarounds"] += v("bus_turnarounds");
    } else if (leaf == "lsq") {
        c["nvram.lsq_write_merges"] += v("write_merges");
        c["nvram.lsq_partial_drains"] += v("partial_drains");
    } else if (leaf == "rmw") {
        c["nvram.rmw_read_hits"] += v("read_hits");
        c["nvram.rmw_reads"] += v("read_hits") + v("read_misses");
        c["nvram.rmw_fills"] += v("rmw_fills");
    } else if (leaf == "ait") {
        c["nvram.ait_buf_hits"] += v("buf_hits");
        c["nvram.ait_buf_lookups"] += v("buf_hits") + v("buf_misses");
    } else if (leaf == "media") {
        c["nvram.media_reads"] += v("chunk_reads");
        c["nvram.media_writes"] += v("chunk_writes");
    } else if (leaf == "wear") {
        c["nvram.wear_migrations"] += v("migrations");
    } else if (leaf == "dcache") {
        c["nvram.dcache_hits"] += v("hits");
        c["nvram.dcache_lookups"] += v("hits") + v("misses");
        c["nvram.dcache_dirty_evicts"] += v("dirty_evicts");
        c["nvram.dcache_mshr_merges"] += v("mshr_merges");
    }
}

/**
 * Counts one world's simulated work from the moment it is handed to
 * the workload (after construction or restore) and digests its final
 * MetricsRegistry JSON. A restored world carries the warm phase's
 * counters, so everything is reported as a difference.
 */
class WorldProbe
{
  public:
    WorldProbe(SpanRecorder &s, std::uint32_t point, EventQueue &q,
               MemorySystem &m)
        : spans(s), id(point), eq(q), sys(m)
    {
        Scope span(spans, "common", "metricsInto", id);
        MetricsRegistry reg;
        before = sample(reg);
    }

    /** Add the world's counters to @p out and record its digest. */
    void
    finish(RoundResult &out, const std::string &world)
    {
        Scope span(spans, "common", "metricsInto", id);
        MetricsRegistry reg;
        auto after = sample(reg);
        for (const auto &[key, value] : after)
            out.counters[key] += value - before[key];
        double &pending = out.counters["peak.pending"];
        pending = std::max(pending,
                           static_cast<double>(eq.peakPending()));
        double &live = out.counters["peak.pool_live"];
        live = std::max(live, poolPeakLive);
        out.digests.emplace_back(world, sha256Hex(reg.toJson()));
    }

  private:
    std::map<std::string, double>
    sample(MetricsRegistry &reg)
    {
        sys.metricsInto(reg);
        // The DRAM baselines export nothing through metricsInto; their
        // front end and controller groups are registered here.
        if (auto *dram = dynamic_cast<baselines::DramMainMemory *>(&sys)) {
            reg.add(dram->stats());
            reg.add(dram->controller().stats());
        }
        std::map<std::string, double> c;
        for (const StatGroup *g : reg.all())
            addGroup(*g, c);
        StatGroup pool("pool");
        sys.pool().statsInto(pool);
        c["reqs"] = static_cast<double>(pool.scalarValue("releases"));
        c["events"] = static_cast<double>(eq.executed());
        poolPeakLive = static_cast<double>(pool.scalarValue("peak_live"));
        return c;
    }

    SpanRecorder &spans;
    std::uint32_t id;
    EventQueue &eq;
    MemorySystem &sys;
    std::map<std::string, double> before;
    double poolPeakLive = 0;
};

// ---- LENS on VANS: lens-appdirect and memmode-mix -------------------

struct LensSizes
{
    std::uint64_t maxRegion;
    std::uint64_t warmupLines;
    std::uint64_t measureLines;
    /** Streams cover min(region, streamBytes) from the region base. */
    std::uint64_t streamBytes;
};

class LensWorkload : public Workload
{
  public:
    LensWorkload(bool memory_mode, std::uint64_t run_seed, bool tiny)
        : memoryMode(memory_mode), seed(run_seed)
    {
        cfg = nvram::NvramConfig::optaneDefault();
        if (memoryMode)
            cfg.mode = nvram::SystemMode::Memory;
        LensSizes full{memoryMode ? 256ull << 20 : 64ull << 20, 6000,
                       2000, 2ull << 20};
        LensSizes small{1ull << 20, 500, 300, 64ull << 10};
        sizes = tiny ? small : full;
        // Factor-2 steps, as in fig05: coarser steps merge the rises
        // at the RMW (16 KB) and AIT (16 MB) capacities into one.
        regions = logSweep(4096, sizes.maxRegion, 2);
    }

    void
    setup(SpanRecorder &spans) override
    {
        EventQueue eq;
        std::unique_ptr<nvram::VansSystem> proto;
        {
            Scope s(spans, "common", "construct");
            proto = std::make_unique<nvram::VansSystem>(eq, cfg);
        }
        {
            // One read per 4 KB page (fig09's warm phase), capped at
            // the 64 MB Memory Mode cache: beyond it the points fall
            // back to NVM whatever the warm state.
            Scope s(spans, "lens", "warm");
            bench::warmSpan(*proto, 0,
                            std::min(regions.back(), cfg.dcacheCapacity));
        }
        Scope s(spans, "common", "capture");
        snapshot::awaitQuiescence(eq, *proto);
        snap = snapshot::WorldSnapshot::capture(eq, *proto);
    }

    RoundResult
    round(SpanRecorder &spans) override
    {
        RoundResult out;
        Curve ld("lat-ld");
        Curve st("lat-st");
        for (std::size_t i = 0; i < regions.size(); ++i) {
            auto id = static_cast<std::uint32_t>(i + 1);
            std::uint64_t region = regions[i];
            Scope point(spans, "bench", "point", id);
            EventQueue eq;
            std::unique_ptr<nvram::VansSystem> sys;
            {
                Scope s(spans, "common", "construct", id);
                sys = std::make_unique<nvram::VansSystem>(eq, cfg);
            }
            {
                Scope s(spans, "common", "restoreInto", id);
                snap.restoreInto(eq, *sys);
            }
            WorldProbe probe(spans, id, eq, *sys);
            Tick start = eq.curTick();
            lens::Driver drv(*sys);

            lens::PtrChaseParams pc;
            pc.regionBytes = region;
            pc.warmupLines = sizes.warmupLines;
            pc.measureLines = sizes.measureLines;
            pc.seed = SweepRunner::pointSeed(seed, i);
            pc.coverageWarm = true;
            {
                Scope s(spans, "lens", "ptrChase", id);
                ld.add(static_cast<double>(region),
                       lens::ptrChase(drv, pc).nsPerLine);
                pc.writeMode = true;
                st.add(static_cast<double>(region),
                       lens::ptrChase(drv, pc).nsPerLine);
            }
            std::vector<Addr> lines;
            for (Addr a = 0; a < std::min(region, sizes.streamBytes);
                 a += cacheLineSize)
                lines.push_back(a);
            {
                Scope s(spans, "lens", "streamReads", id);
                drv.streamReads(lines, 10);
            }
            {
                Scope s(spans, "lens", "streamWrites", id);
                drv.streamWrites(lines, 16, 3.0);
            }
            {
                Scope s(spans, "lens", "fence", id);
                drv.fence();
            }
            out.counters["nvram.sim_ns"] += ticksToNs(eq.curTick() - start);
            probe.finish(out, "point-" + formatSize(region));
            Scope s(spans, "common", "destroy", id);
            sys.reset();
        }
        out.counters["nvram.reqs"] = out.counters["reqs"];
        out.counters["snapshot_bytes"] =
            static_cast<double>(snap.sizeBytes());
        check(out, ld, st);
        out.report = "region     lat-ld(ns)  lat-st(ns)\n";
        char line[96];
        for (std::size_t i = 0; i < regions.size(); ++i) {
            std::snprintf(line, sizeof line, "%-9s %11.1f %11.1f\n",
                          formatSize(regions[i]).c_str(), ld[i].y,
                          st[i].y);
            out.report += line;
        }
        return out;
    }

  private:
    void
    check(RoundResult &out, const Curve &ld, const Curve &st) const
    {
        auto ld_ref = bench::optaneLoadReference(regions);
        auto st_ref = bench::optaneStoreReference(regions);
        out.counters["accuracy.lens"] =
            (ld.accuracyAgainst(ld_ref) + st.accuracyAgainst(st_ref)) / 2;
        if (!memoryMode) {
            // fig05 / fig09: the RMW buffer and AIT buffer capacities.
            auto infl = ld.findInflections(0.22);
            out.checks.push_back(
                {"load inflections at 16KB and 16MB",
                 infl.size() == 2 && infl[0] == (16u << 10) &&
                     infl[1] == (16u << 20)});
            out.checks.push_back(
                {"load curve accuracy > 80% vs reference",
                 ld.accuracyAgainst(ld_ref) > 0.80});
        } else {
            // fig09 in Memory Mode: DRAM-cache hits beat the App
            // Direct reference, misses fall back toward NVM latency.
            out.checks.push_back(
                {"cached regions complete below the App Direct reference",
                 ld.valueAt(64 << 10) < ld_ref.valueAt(64 << 10)});
            out.checks.push_back(
                {"hit latency below miss latency (4MB vs 256MB region)",
                 ld.valueAt(256ull << 20) > 1.5 * ld.valueAt(4 << 20)});
        }
    }

    bool memoryMode;
    std::uint64_t seed;
    nvram::NvramConfig cfg;
    LensSizes sizes{};
    std::vector<std::uint64_t> regions;
    snapshot::WorldSnapshot snap;
};

// ---- CpuCore over SPEC, Redis and YCSB traces: cpu-traces -------------

struct Trace
{
    std::string name;
    std::vector<trace::TraceInst> insts;
};

class CpuTracesWorkload : public Workload
{
  public:
    CpuTracesWorkload(std::uint64_t run_seed, bool tiny)
        : seed(run_seed),
          specInsts(tiny ? 20000 : 120000),
          cloudOps(tiny ? 500 : 6000),
          specCount(tiny ? 3 : workloads::specTable4().size())
    {}

    void
    setup(SpanRecorder &spans) override
    {
        spec.clear();
        const auto &table = workloads::specTable4();
        for (std::size_t i = 0; i < specCount; ++i) {
            const auto &w = table[i];
            Scope s(spans, "workloads", "generateSpecTrace",
                    static_cast<std::uint32_t>(i + 1));
            spec.push_back(
                {w.name + (w.suite == "2017" ? "17" : ""),
                 workloads::generateSpecTrace(
                     w, specInsts, 32ull << 20,
                     SweepRunner::pointSeed(seed, i))});
        }
        workloads::CloudParams rp;
        rp.operations = cloudOps;
        rp.footprintBytes = 512ull << 20;
        rp.seed = SweepRunner::pointSeed(seed, 100);
        {
            Scope s(spans, "workloads", "redisTrace");
            redis = {"redis", workloads::redisTrace(rp)};
        }
        workloads::CloudParams yp;
        yp.operations = 2 * cloudOps;
        yp.footprintBytes = 256ull << 20;
        yp.seed = SweepRunner::pointSeed(seed, 101);
        Scope s(spans, "workloads", "ycsbTrace");
        ycsb = {"ycsb", workloads::ycsbTrace(yp)};
    }

    RoundResult
    round(SpanRecorder &spans) override
    {
        RoundResult out;
        nvram::NvramConfig six = nvram::NvramConfig::optaneDefault();
        six.numDimms = 6;
        six.interleaved = true;
        double err = 0;
        for (std::size_t i = 0; i < spec.size(); ++i) {
            auto id = static_cast<std::uint32_t>(i + 1);
            Scope point(spans, "bench", "trace", id);
            Tick dram = runDdr4(spans, out, id, spec[i]);
            Tick nvm = runVans(spans, out, id, six, spec[i]);
            double slowdown =
                static_cast<double>(nvm) / static_cast<double>(dram);
            double ref = bench::optaneSpeedupReference(spec[i].name);
            err += std::min(1.0, std::abs(slowdown - ref) / ref);
            out.checks.push_back(
                {"NVRAM slows " + spec[i].name, nvm > dram});
        }
        out.counters["accuracy.spec"] =
            1.0 - err / static_cast<double>(spec.size());

        auto n = static_cast<std::uint32_t>(spec.size());
        {
            Scope point(spans, "bench", "trace", n + 1);
            cpu::CoreStats st;
            runVans(spans, out, n + 1, nvram::NvramConfig::optaneDefault(),
                    redis, &st);
            out.checks.push_back({"redis reads miss the LLC heavily",
                                  st.llcMpki > 5.0});
            out.checks.push_back({"redis reads miss the TLB heavily",
                                  st.tlbMpki > 5.0});
        }
        {
            Scope point(spans, "bench", "trace", n + 2);
            nvram::NvramConfig wear = nvram::NvramConfig::optaneDefault();
            wear.wearThreshold = 600;
            double before = out.counters["nvram.wear_migrations"];
            runVans(spans, out, n + 2, wear, ycsb);
            out.checks.push_back(
                {"YCSB hot writes trigger wear migrations",
                 out.counters["nvram.wear_migrations"] - before >= 1});
        }
        replayCaches(spans, out, n + 3);
        std::size_t records = redis.insts.size() + ycsb.insts.size();
        for (const Trace &t : spec)
            records += t.insts.size();
        out.counters["workloads.trace_records"] =
            static_cast<double>(records);
        return out;
    }

  private:

    cpu::CoreStats
    runCore(SpanRecorder &spans, const char *layer, std::uint32_t id,
            MemorySystem &mem, const Trace &t)
    {
        trace::VectorTraceSource src(t.insts);
        std::unique_ptr<cache::Hierarchy> caches;
        {
            Scope s(spans, "cache", "construct", id);
            caches = std::make_unique<cache::Hierarchy>();
        }
        cpu::CoreStats st;
        {
            Scope s(spans, layer, "CpuCore::run", id);
            cpu::CpuCore core(mem, *caches);
            st = core.run(src, 1u << 30);
        }
        Scope s(spans, "cache", "destroy", id);
        caches.reset();
        return st;
    }

    Tick
    runDdr4(SpanRecorder &spans, RoundResult &out, std::uint32_t id,
            const Trace &t)
    {
        EventQueue eq;
        std::unique_ptr<baselines::DramMainMemory> mem;
        {
            Scope s(spans, "common", "construct", id);
            mem = std::make_unique<baselines::DramMainMemory>(
                eq, baselines::DramMainMemory::ddr4Params());
        }
        WorldProbe probe(spans, id, eq, *mem);
        double reqs = out.counters["reqs"];
        auto st = runCore(spans, "baselines", id, *mem, t);
        probe.finish(out, "ddr4-" + t.name);
        out.counters["baselines.ddr4_reqs"] += out.counters["reqs"] - reqs;
        Scope s(spans, "common", "destroy", id);
        mem.reset();
        return st.elapsed;
    }

    Tick
    runVans(SpanRecorder &spans, RoundResult &out, std::uint32_t id,
            const nvram::NvramConfig &cfg, const Trace &t,
            cpu::CoreStats *stats = nullptr)
    {
        EventQueue eq;
        std::unique_ptr<nvram::VansSystem> mem;
        {
            Scope s(spans, "common", "construct", id);
            mem = std::make_unique<nvram::VansSystem>(eq, cfg);
        }
        WorldProbe probe(spans, id, eq, *mem);
        double reqs = out.counters["reqs"];
        auto st = runCore(spans, "cpu", id, *mem, t);
        probe.finish(out, "vans" + std::to_string(cfg.numDimms) + "-" +
                              t.name);
        auto insts = static_cast<double>(st.instructions);
        out.counters["nvram.reqs"] += out.counters["reqs"] - reqs;
        out.counters["nvram.sim_ns"] += ticksToNs(st.elapsed);
        out.counters["cpu.insts"] += insts;
        out.counters["cpu.cycles"] += st.ipc > 0 ? insts / st.ipc : 0;
        out.counters["cpu.llc_misses"] += st.llcMpki * insts / 1000;
        out.counters["cpu.tlb_misses"] += st.tlbMpki * insts / 1000;
        if (stats)
            *stats = st;
        Scope s(spans, "common", "destroy", id);
        mem.reset();
        return st.elapsed;
    }

    /** Replay the SPEC traces' loads and stores through a bare
     *  Hierarchy each: the cache layer's host cost with no core or
     *  memory model around it. */
    void
    replayCaches(SpanRecorder &spans, RoundResult &out, std::uint32_t id)
    {
        Scope point(spans, "bench", "trace", id);
        double accesses = 0;
        for (const Trace &t : spec) {
            std::unique_ptr<cache::Hierarchy> caches;
            {
                Scope s(spans, "cache", "construct", id);
                caches = std::make_unique<cache::Hierarchy>();
            }
            {
                Scope s(spans, "cache", "Hierarchy::access", id);
                for (const auto &inst : t.insts) {
                    if (inst.type != trace::InstType::Load &&
                        inst.type != trace::InstType::Store)
                        continue;
                    caches->access(inst.addr,
                                   inst.type == trace::InstType::Store);
                    accesses += 1;
                }
            }
            Scope s(spans, "cache", "destroy", id);
            caches.reset();
        }
        out.counters["cache.replay_accesses"] += accesses;
    }

    std::uint64_t seed;
    std::uint64_t specInsts;
    std::uint64_t cloudOps;
    std::size_t specCount;
    std::vector<Trace> spec;
    Trace redis;
    Trace ycsb;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "lens-appdirect", "memmode-mix", "cpu-traces"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    if (name == "lens-appdirect")
        return std::make_unique<LensWorkload>(false, seed, tiny);
    if (name == "memmode-mix")
        return std::make_unique<LensWorkload>(true, seed, tiny);
    if (name == "cpu-traces")
        return std::make_unique<CpuTracesWorkload>(seed, tiny);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
