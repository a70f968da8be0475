#include "traced.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <vector>

#include "cache/inspector.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/dasca_filter.hh"
#include "grid.hh"
#include "sim/simulator.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/resolve.hh"
#include "trace/stressors.hh"
#include "workloads/mixes.hh"
#include "workloads/parsec.hh"

namespace perfbench
{

namespace
{

using lap::MemRef;
using Buffers = std::vector<std::vector<MemRef>>;

/** Hides a value from the optimiser so a timed call whose result
 *  is otherwise unused is not folded away. */
template <typename T>
T
opaque(T value)
{
    asm volatile("" : "+r"(value));
    return value;
}

/** Serves one core's pre-generated references. */
class BufferSource final : public lap::TraceSource
{
  public:
    explicit BufferSource(const std::vector<MemRef> &refs) : refs_(refs)
    {
    }

    MemRef
    next() override
    {
        if (cursor_ >= refs_.size())
            lap_fatal("buffered stream exhausted after %zu refs",
                      refs_.size());
        return refs_[cursor_++];
    }

    void reset() override { cursor_ = 0; }
    void saveState(lap::ByteWriter &out) const override
    {
        out.u64(cursor_);
    }
    void loadState(lap::ByteReader &in) override { cursor_ = in.u64(); }

  private:
    const std::vector<MemRef> &refs_;
    std::uint64_t cursor_ = 0;
};

/** Decorator recording the core of every reference in issue order
 *  (the reference itself is the next one of that core's buffer). */
class CaptureSource final : public lap::TraceSource
{
  public:
    CaptureSource(lap::TraceSource &inner, std::uint8_t core,
                  std::vector<std::uint8_t> &order)
        : inner_(inner), order_(order), core_(core)
    {
    }

    MemRef
    next() override
    {
        order_.push_back(core_);
        return inner_.next();
    }

    void reset() override { inner_.reset(); }
    void saveState(lap::ByteWriter &out) const override
    {
        inner_.saveState(out);
    }
    void loadState(lap::ByteReader &in) override { inner_.loadState(in); }

  private:
    lap::TraceSource &inner_;
    std::vector<std::uint8_t> &order_;
    std::uint8_t core_;
};

/** Records the issue cycle of every completed transaction. */
class CycleCapture final : public lap::HierarchyObserver
{
  public:
    explicit CycleCapture(std::vector<lap::Cycle> &cycles)
        : cycles_(cycles)
    {
    }

    void
    onTransactionComplete(std::uint64_t, lap::Cycle now) override
    {
        cycles_.push_back(now);
    }

  private:
    std::vector<lap::Cycle> &cycles_;
};

std::string
statsBytes(const lap::HierarchyStats &stats)
{
    lap::ByteWriter out;
    stats.saveState(out);
    return out.data();
}

/** CRC of the hierarchy's complete state: counters, every cache's
 *  contents, replacement and bank timing, DRAM channel timing, the
 *  loop tracker and the verifier's shadow memory. */
std::uint32_t
stateDigest(lap::CacheHierarchy &h)
{
    lap::ByteWriter out;
    h.stats().saveState(out);
    for (std::uint32_t c = 0; c < h.params().numCores; ++c) {
        h.l1(c).saveState(out);
        h.l2(c).saveState(out);
    }
    h.llc().saveState(out);
    h.dram().saveState(out);
    h.loopTracker().saveState(out);
    h.verifier().saveState(out);
    return lap::crc32(out.data().data(), out.data().size());
}

std::vector<lap::TraceSource *>
pointers(const std::vector<std::unique_ptr<lap::TraceSource>> &sources)
{
    std::vector<lap::TraceSource *> raw;
    for (const auto &s : sources)
        raw.push_back(s.get());
    return raw;
}

std::vector<std::unique_ptr<lap::TraceSource>>
bufferSources(const Buffers &bufs)
{
    std::vector<std::unique_ptr<lap::TraceSource>> out;
    for (const auto &buf : bufs)
        out.push_back(std::make_unique<BufferSource>(buf));
    return out;
}

/** Drains @p refs references of each source into @p bufs. */
void
drain(std::vector<std::unique_ptr<lap::TraceSource>> &sources,
      std::uint64_t refs, Buffers &bufs)
{
    bufs.assign(sources.size(), {});
    for (std::size_t c = 0; c < sources.size(); ++c) {
        bufs[c].resize(refs);
        for (MemRef &ref : bufs[c])
            ref = sources[c]->next();
    }
}

std::vector<lap::WorkloadSpec>
mixSpecs(const std::string &name, std::uint32_t cores)
{
    for (const lap::MixSpec &mix : lap::tableThreeMixes()) {
        if (mix.name != name)
            continue;
        lap::MixSpec cycled = mix;
        while (cycled.benchmarks.size() < cores)
            cycled.benchmarks.push_back(
                mix.benchmarks[cycled.benchmarks.size()
                               % mix.benchmarks.size()]);
        return lap::resolveMix(cycled);
    }
    lap_fatal("perfbench traces Table III mixes only, not '%s'",
              name.c_str());
}

/** Everything the layer replays need from the job's stream. */
struct Stream
{
    Buffers bufs;
    std::vector<lap::CoreParams> cores;
    double sourceSeconds = 0.0;
};

Stream
produceStream(const TracedJobInput &in, Tracer &tracer,
              std::uint32_t tid, const Span &root)
{
    const lap::CampaignJob &job = *in.job;
    const lap::SimConfig &cfg = job.config;
    const std::uint64_t per_core = cfg.warmupRefs + cfg.measureRefs;
    Stream s;
    std::vector<double> mlp(cfg.numCores, 2.0);
    switch (job.workload.kind) {
      case lap::CampaignWorkload::Kind::Mix:
      case lap::CampaignWorkload::Kind::Parsec: {
        Span gen(tracer, "workloads.gen", in.index, tid, &root);
        std::vector<std::unique_ptr<lap::TraceSource>> sources;
        if (job.workload.kind == lap::CampaignWorkload::Kind::Mix) {
            const auto specs = mixSpecs(job.workload.name, cfg.numCores);
            sources = lap::buildMultiProgrammed(specs, cfg.seedSalt);
            for (std::uint32_t c = 0; c < cfg.numCores; ++c)
                mlp[c] = specs[c].mlp;
        } else {
            const lap::WorkloadSpec spec =
                lap::parsecBenchmark(job.workload.name);
            sources = lap::buildMultiThreaded(spec, cfg.numCores,
                                              cfg.seedSalt);
            mlp.assign(cfg.numCores, spec.mlp);
        }
        drain(sources, per_core, s.bufs);
        gen.setUnits(per_core * cfg.numCores);
        s.sourceSeconds = gen.end();
        break;
      }
      case lap::CampaignWorkload::Kind::Trace: {
        Span open(tracer, "trace.open", in.index, tid, &root);
        const auto store = lap::openTraceStore(
            cfg.tracePath, cfg.numCores, per_core, cfg.seedSalt);
        open.setUnits(1);
        s.sourceSeconds = open.end();
        Span replay(tracer, "trace.replay", in.index, tid, &root);
        auto sources = lap::buildReplaySources(store);
        drain(sources, per_core, s.bufs);
        replay.setUnits(per_core * cfg.numCores);
        s.sourceSeconds += replay.end();
        for (std::uint32_t c = 0; c < cfg.numCores; ++c)
            mlp[c] = store->coreMlp(c);
        // The stressor generator this file was recorded from; paid
        // once in set-up, never by the jobs.
        Span gen(tracer, "workloads.gen", in.index, tid, &root);
        const lap::TraceData regenerated = lap::buildStressorTrace(
            workloadShortName(job), cfg.numCores, per_core, in.seed);
        gen.setUnits(regenerated.totalRecords());
        break;
      }
      default:
        lap_fatal("perfbench traces mix, parsec and trace jobs only");
    }
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        lap::CoreParams cp;
        cp.issueWidth = cfg.issueWidth;
        cp.mlp = mlp[c];
        cp.l1Latency = cfg.l1Latency;
        s.cores.push_back(cp);
    }
    return s;
}

/** Writes the stream to a LAPTR1 file, then opens and replays it;
 *  the replayed references must equal the originals. */
void
fileRoundTrip(const TracedJobInput &in, const Stream &s, Tracer &tracer,
              std::uint32_t tid, const Span &root)
{
    const lap::SimConfig &cfg = in.job->config;
    const std::string path = in.workDir + "/roundtrip-"
        + std::to_string(in.index) + ".laptr";
    {
        lap::TraceData data;
        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            data.coreMlp.push_back(s.cores[c].mlp);
            data.cores.emplace_back();
            data.cores.back().reserve(s.bufs[c].size());
            for (const MemRef &ref : s.bufs[c])
                data.cores.back().push_back(lap::packRecord(ref, c));
        }
        lap::writeTraceFile(path, data);
    }
    Span open(tracer, "trace.open", in.index, tid, &root);
    const auto store = lap::openTraceStore(path, cfg.numCores,
                                           s.bufs[0].size(),
                                           cfg.seedSalt);
    open.setUnits(1);
    open.end();
    auto sources = lap::buildReplaySources(store);
    std::vector<MemRef> replayed;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        replayed.resize(s.bufs[c].size());
        Span replay(tracer, "trace.replay", in.index, tid, &root);
        for (MemRef &ref : replayed)
            ref = sources[c]->next();
        replay.setUnits(replayed.size());
        replay.end();
        for (std::size_t i = 0; i < replayed.size(); ++i) {
            const MemRef &a = replayed[i];
            const MemRef &b = s.bufs[c][i];
            if (a.addr != b.addr || a.type != b.type
                || a.gapInstrs != b.gapInstrs || a.site != b.site)
                lap_fatal("LAPTR1 round trip changed core %u ref %zu",
                          c, i);
        }
    }
    std::remove(path.c_str());
}

/** Calls fn(i, core, ref) for every reference in issue order. */
template <typename Fn>
void
forEachIssued(const Stream &s, const std::vector<std::uint8_t> &order,
              Fn &&fn)
{
    std::vector<std::uint64_t> cursor(s.bufs.size(), 0);
    for (std::uint64_t i = 0; i < order.size(); ++i) {
        const std::uint8_t c = order[i];
        fn(i, c, s.bufs[c][cursor[c]++]);
    }
}

/** What the captured run leaves for the replays. */
struct Captured
{
    std::vector<std::uint8_t> order; //!< Core of each ref, issue order.
    std::vector<lap::Cycle> cycles;  //!< Issue cycle of each ref.
    std::string runStats;            //!< The run's HierarchyStats.
    std::uint32_t runDigest = 0;     //!< The run's full state.
    std::string blob;                //!< Half-way checkpoint payload.
    std::uint64_t blobRefs = 0;
    double simSeconds = 0.0;
};

/**
 * The job's own simulation (cpu and sim layers) over the buffered
 * stream, capturing the issue order and cycles. Its metrics must
 * equal the untraced sweep's.
 */
Captured
runCaptured(const TracedJobInput &in, const Stream &s, Tracer &tracer,
            std::uint32_t tid, const Span &root)
{
    const lap::SimConfig &cfg = in.job->config;
    const std::uint64_t total = jobRefs(*in.job);
    Captured cap;
    cap.order.reserve(total);
    cap.cycles.reserve(total);
    CycleCapture cycle_capture(cap.cycles);
    Span construct(tracer, "sim.construct", in.index, tid, &root);
    lap::Simulator sim(cfg);
    const double construct_s = construct.end();
    sim.hierarchy().addObserver(&cycle_capture);
    auto buffered = bufferSources(s.bufs);
    std::vector<std::unique_ptr<lap::TraceSource>> captured;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        captured.push_back(std::make_unique<CaptureSource>(
            *buffered[c], static_cast<std::uint8_t>(c), cap.order));

    Span run(tracer, "cpu.runTraces", in.index, tid, &root);
    run.setUnits(total);
    // The campaign's mid-job cadence: four snapshots per job. A
    // resumable workload writes them as files like its untraced jobs
    // do; the others take in-memory payloads. The payload at the
    // half-way point feeds the restore measurement.
    const std::string ckpt_path =
        in.workDir + "/traced-" + std::to_string(in.index) + ".ckpt";
    double capture_s = 0.0;
    double save_s = 0.0;
    sim.setCheckpointHook(total / 4, [&](std::uint64_t issued) {
        Span save(tracer, "sim.ckpt_save", in.index, tid, &run);
        std::string payload;
        if (in.checkpointFiles)
            sim.saveCheckpoint(ckpt_path);
        else
            payload = sim.checkpointBytes();
        save_s += save.end();
        if (cap.blobRefs != 0 || issued < total / 2)
            return;
        cap.blobRefs = issued;
        if (payload.empty()) {
            Span capture(tracer, "sim.ckpt_capture", in.index, tid, &run);
            payload = sim.checkpointBytes();
            capture_s += capture.end();
        }
        cap.blob = std::move(payload);
    });
    const lap::Metrics metrics =
        sim.runTraces(pointers(captured), s.cores);
    const double run_s = run.end();
    sim.hierarchy().removeObserver(&cycle_capture);
    std::remove(ckpt_path.c_str());
    // What the untraced job pays: its checkpoint files, if any, but
    // never the extra payload captures.
    cap.simSeconds = s.sourceSeconds + construct_s + run_s - capture_s
        - (in.checkpointFiles ? 0.0 : save_s);

    if (canonicalMetrics(metrics) != in.expectCanonical)
        lap_fatal("traced run's simulated metrics differ from the "
                  "untraced sweep's");
    if (cap.order.size() != total || cap.cycles.size() != total)
        lap_fatal("captured %zu refs and %zu issue cycles, expected %llu",
                  cap.order.size(), cap.cycles.size(),
                  static_cast<unsigned long long>(total));
    cap.runStats = statsBytes(sim.hierarchy().stats());
    cap.runDigest = stateDigest(sim.hierarchy());
    return cap;
}

/** Restores the half-way payload into a fresh simulator and runs
 *  one reference past it. */
void
measureRestore(const TracedJobInput &in, const Stream &s,
               const Captured &cap, Tracer &tracer, std::uint32_t tid,
               const Span &root)
{
    Span construct(tracer, "sim.construct", in.index, tid, &root);
    lap::Simulator restored(in.job->config);
    construct.end();
    auto sources = bufferSources(s.bufs);
    restored.setRestoreBlob(cap.blob);
    restored.setStopAfterRefs(cap.blobRefs + 1);
    Span restore(tracer, "sim.ckpt_restore", in.index, tid, &root);
    restored.runTraces(pointers(sources), s.cores);
}

/**
 * Replays the captured stream into a fresh hierarchy, resetting its
 * statistics at the warm-up boundary as MultiCoreDriver does; the end
 * state must equal the run's exactly. Fills the hierarchy, cache
 * occupancy, DRAM and coherence counts; returns each reference's
 * service level.
 */
std::vector<std::uint8_t>
replayHierarchy(const TracedJobInput &in, const Stream &s,
                const Captured &cap, Tracer &tracer, std::uint32_t tid,
                const Span &root, LayerCounts &k)
{
    const lap::SimConfig &cfg = in.job->config;
    lap::CacheHierarchy h(
        lap::buildHierarchyParams(cfg), lap::buildPolicy(cfg),
        lap::buildPlacement(cfg),
        cfg.deadWriteBypass ? std::make_unique<lap::DascaFilter>()
                            : nullptr);
    const std::uint64_t warm_total = cfg.warmupRefs * cfg.numCores;
    std::vector<std::uint8_t> level(cap.order.size());
    std::uint64_t warm_dram_writes = 0;
    {
        Span replay(tracer, "hierarchy.replay", in.index, tid, &root);
        replay.setUnits(cap.order.size());
        forEachIssued(s, cap.order, [&](std::uint64_t i, std::uint8_t c,
                                        const MemRef &ref) {
            if (i == warm_total) {
                const lap::CacheInspector llc(h.llc());
                k.llcValidAtWarm = llc.validBlockCount();
                k.llcCapacity = llc.numSets() * llc.assoc();
                warm_dram_writes = h.dram().stats().writes;
                h.resetStats();
            }
            level[i] = static_cast<std::uint8_t>(
                h.access(c, ref.addr, ref.type, cap.cycles[i], ref.site)
                    .level);
        });
        h.finishMeasurement();
    }
    if (statsBytes(h.stats()) != cap.runStats)
        lap_fatal("replayed HierarchyStats differ from the run's");
    if (stateDigest(h) != cap.runDigest)
        lap_fatal("replayed hierarchy state (contents, replacement or "
                  "timing) differs from the run's");

    const lap::HierarchyStats &hs = h.stats();
    const lap::DramStats &dram = h.dram().stats();
    k.refs = cap.order.size();
    k.demand = hs.demandAccesses;
    k.l1Hits = hs.l1Hits;
    k.l2Hits = hs.l2Hits;
    k.llcHits = hs.llcHits;
    k.llcMisses = hs.llcMisses;
    k.llcWrites = hs.llcWritesTotal();
    k.backInvalidations = hs.llcBackInvalidations;
    k.redundantFills = hs.llcRedundantFills;
    k.demandFills = hs.llcDemandFills;
    k.dramOps = dram.reads + dram.writes;
    k.snoops = hs.snoop.totalMessages();
    // The run's own verifier calls: one check or version stamp per
    // demand access, one memory-version read per DRAM fill, one
    // writeback record per DRAM write.
    const auto memory = static_cast<std::uint8_t>(lap::ServiceLevel::Memory);
    k.verifierOpsInRun = k.refs
        + static_cast<std::uint64_t>(
            std::count(level.begin(), level.end(), memory))
        + warm_dram_writes + dram.writes;
    return level;
}

/** Cache::access / Cache::insert on a standalone LLC-geometry cache
 *  fed the block stream that reached the LLC. */
void
measureCache(const TracedJobInput &in, const Stream &s,
             const Captured &cap, const std::vector<std::uint8_t> &level,
             Tracer &tracer, std::uint32_t tid, const Span &root,
             LayerCounts &k)
{
    lap::Cache cache(lap::buildHierarchyParams(in.job->config).llc);
    const auto llc_level = static_cast<std::uint8_t>(lap::ServiceLevel::Llc);
    std::vector<lap::Addr> blocks;
    forEachIssued(s, cap.order, [&](std::uint64_t i, std::uint8_t,
                                    const MemRef &ref) {
        if (level[i] >= llc_level)
            blocks.push_back(cache.blockAddrOf(ref.addr));
    });
    {
        Span fill(tracer, "cache.fill_pass", in.index, tid, &root);
        fill.setUnits(blocks.size());
        for (const lap::Addr ba : blocks) {
            if (!cache.access(ba, lap::AccessType::Read)) {
                cache.insert(ba, lap::Cache::InsertAttrs{});
                ++k.cacheFillMisses;
            }
        }
    }
    Span probe(tracer, "cache.probe_pass", in.index, tid, &root);
    probe.setUnits(blocks.size());
    for (const lap::Addr ba : blocks)
        (void)opaque(
            static_cast<bool>(cache.access(ba, lap::AccessType::Read)));
}

/** Public Verifier calls on the recorded addresses, in the shape of
 *  the demand path: a version stamp per write, a checked read per
 *  read, a memory-version read per DRAM fill. */
void
measureVerifier(const TracedJobInput &in, const Stream &s,
                const Captured &cap, const std::vector<std::uint8_t> &level,
                Tracer &tracer, std::uint32_t tid, const Span &root)
{
    const auto memory = static_cast<std::uint8_t>(lap::ServiceLevel::Memory);
    const int block_bits = std::countr_zero(
        lap::buildHierarchyParams(in.job->config).llc.blockBytes);
    lap::Verifier verifier;
    std::uint64_t calls = 0;
    std::uint64_t sink = 0;
    Span verify(tracer, "mem.verifier", in.index, tid, &root);
    forEachIssued(s, cap.order, [&](std::uint64_t i, std::uint8_t,
                                    const MemRef &ref) {
        const lap::Addr ba = ref.addr >> block_bits;
        if (level[i] == memory) {
            sink += opaque(verifier.memVersion(ba));
            ++calls;
        }
        if (ref.type == lap::AccessType::Write) {
            sink += verifier.recordWrite(ba);
            ++calls;
        } else {
            verifier.checkRead(ba, opaque(verifier.latest(ba)),
                               "perfbench");
            calls += 2;
        }
    });
    verify.setUnits(calls);
    (void)opaque(sink);
}

} // namespace

void
LayerCounts::add(const LayerCounts &o)
{
    refs += o.refs;
    demand += o.demand;
    l1Hits += o.l1Hits;
    l2Hits += o.l2Hits;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    llcWrites += o.llcWrites;
    backInvalidations += o.backInvalidations;
    redundantFills += o.redundantFills;
    demandFills += o.demandFills;
    dramOps += o.dramOps;
    snoops += o.snoops;
    llcValidAtWarm += o.llcValidAtWarm;
    llcCapacity += o.llcCapacity;
    cacheFillMisses += o.cacheFillMisses;
    verifierOpsInRun += o.verifierOpsInRun;
    ckptBytes += o.ckptBytes;
    ckpts += o.ckpts;
}

TracedOutcome
runTracedJob(const TracedJobInput &in, Tracer &tracer, std::uint32_t tid)
{
    TracedOutcome out;
    Span root(tracer, "job.traced", in.index, tid);
    root.setUnits(jobRefs(*in.job));
    try {
        const lap::ScopedFatalThrow guard;
        const Stream s = produceStream(in, tracer, tid, root);
        out.sourceSeconds = s.sourceSeconds;
        if (in.fileRoundTrip)
            fileRoundTrip(in, s, tracer, tid, root);
        Captured cap = runCaptured(in, s, tracer, tid, root);
        out.simSeconds = cap.simSeconds;
        out.counts.ckptBytes = cap.blob.size();
        out.counts.ckpts = cap.blob.empty() ? 0 : 1;
        if (!cap.blob.empty())
            measureRestore(in, s, cap, tracer, tid, root);
        if (in.perturbReplay)
            for (std::size_t i = cap.cycles.size() / 2;
                 i < cap.cycles.size(); ++i)
                cap.cycles[i] += 1;
        const std::vector<std::uint8_t> level =
            replayHierarchy(in, s, cap, tracer, tid, root, out.counts);
        measureCache(in, s, cap, level, tracer, tid, root, out.counts);
        measureVerifier(in, s, cap, level, tracer, tid, root);
        out.ok = true;
    } catch (const lap::FatalError &err) {
        out.error = err.what();
    }
    return out;
}

} // namespace perfbench
