/**
 * @file
 * perfbench: the LAPSim sweep benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): set-up (median of several repetitions), then
 * as many full sweeps of the workload's campaign grid as fit into S
 * seconds, on runCampaign with a pool of min(nproc, 4) workers. Every
 * job's simulated output is checked: against the stored expected
 * file when one exists for this seed, and against the run's first
 * sweep always. Prints the end-to-end metrics.
 *
 * Traced (--trace 1): one untraced sweep (campaign scheduling and the
 * untraced per-ref cost), then the grid's traced jobs split layer by
 * layer (traced.hh). Prints the per-layer metrics and the per-ref
 * split, and writes the spans as Chrome trace_event JSON.
 *
 * The last line of standard output is the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign/engine.hh"
#include "common/logging.hh"
#include "grid.hh"
#include "spans.hh"
#include "traced.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string workDir = ".bench_build/perfbench/work";
    std::string spansOut;
    std::string expectedDir = "perfbench/expected";
    std::string writeExpectedDir;
    std::string commit = "unknown";
    bool perturbReplay = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload mix-grid|stressor-replay|"
                 "parsec8 [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       [--scale full|tiny] [--work-dir DIR] "
                 "[--spans-out FILE] [--expected-dir DIR]\n"
                 "       [--write-expected DIR] [--commit ID] "
                 "[--perturb-replay]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage((flag + ": expected a whole number").c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((flag + " needs a value").c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--seed") {
            o.seed = parseCount(flag, value());
        } else if (flag == "--seconds") {
            o.seconds = std::atof(value().c_str());
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--scale") {
            const std::string v = value();
            if (v != "full" && v != "tiny")
                usage("--scale takes full or tiny");
            o.scale = v == "tiny" ? Scale::Tiny : Scale::Full;
        } else if (flag == "--work-dir") {
            o.workDir = value();
        } else if (flag == "--spans-out") {
            o.spansOut = value();
        } else if (flag == "--expected-dir") {
            o.expectedDir = value();
        } else if (flag == "--write-expected") {
            o.writeExpectedDir = value();
        } else if (flag == "--commit") {
            o.commit = value();
        } else if (flag == "--perturb-replay") {
            o.perturbReplay = true;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

/** Highest percentile with at least ten samples beyond it (p50 when
 *  there are fewer than twenty samples). */
double
tailPercentile(std::size_t n)
{
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (std::floor(static_cast<double>(n) * (1.0 - p / 100.0))
            >= 10.0)
            return p;
    }
    return 50.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage usage_now;
    std::memset(&usage_now, 0, sizeof usage_now);
    getrusage(RUSAGE_SELF, &usage_now);
    return static_cast<double>(usage_now.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char ch : text) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            continue;
        out += ch;
    }
    return out + "\"";
}

/** One job's execution inside a sweep. */
struct JobRun
{
    bool ok = false;
    double seconds = 0.0; //!< Host seconds (the engine's wallMs).
    double endS = 0.0;    //!< Completion, seconds after sweep start.
    std::uint32_t lane = 0;
    std::string canonical;
    std::string error;
};

struct Sweep
{
    double wallS = 0.0;
    std::vector<JobRun> jobs; //!< Grid order.
};

Sweep
runSweep(const Prepared &prep, const Workload &workload,
         std::uint32_t width, const std::string &work_dir)
{
    lap::EngineOptions opts;
    opts.jobs = width;
    if (workload.resumable) {
        // Resumable campaign: rows stream to JSONL and every job
        // checkpoints mid-flight (the --restore path). A fresh file
        // per sweep, so no job is skipped as already done.
        opts.outPath = work_dir + "/" + workload.name + ".jsonl";
        std::remove(opts.outPath.c_str());
        opts.midJobRestore = true;
    }
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < prep.jobs.size(); ++i)
        index_of[prep.jobs[i].hash] = i;

    Sweep sweep;
    sweep.jobs.resize(prep.jobs.size());
    std::map<std::thread::id, std::uint32_t> lanes;
    const auto start = Clock::now();
    // Serialized by the engine (one call at a time, on the worker
    // that ran the job).
    opts.onJobDone = [&](const lap::CampaignJob &job,
                         const lap::JobOutcome &, std::size_t,
                         std::size_t) {
        JobRun &run = sweep.jobs.at(index_of.at(job.hash));
        run.endS = secondsSince(start);
        run.lane = lanes
                       .emplace(std::this_thread::get_id(),
                                static_cast<std::uint32_t>(lanes.size()))
                       .first->second;
    };
    const lap::CampaignResult result = lap::runCampaign(prep.spec, opts);
    sweep.wallS = secondsSince(start);
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const lap::JobOutcome &outcome = result.outcomes[i];
        JobRun &run = sweep.jobs[i];
        run.seconds = outcome.wallMs / 1000.0;
        run.ok = outcome.status == lap::JobStatus::Ok;
        if (run.ok)
            run.canonical = canonicalMetrics(outcome.metrics);
        else
            run.error = outcome.error.empty()
                ? lap::toString(outcome.status)
                : outcome.error;
    }
    return sweep;
}

/** Correctness bookkeeping over every job execution of the run. */
struct Checker
{
    const Prepared *prep = nullptr;
    Expected expected;
    std::vector<std::string> first; //!< First sweep's outputs.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    fail(const std::string &job, const std::string &why)
    {
        correct = false;
        std::printf("FAIL %s: %s\n", job.c_str(), why.c_str());
    }

    void
    check(const Sweep &sweep)
    {
        if (first.empty())
            first.resize(sweep.jobs.size());
        for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
            const JobRun &run = sweep.jobs[i];
            const std::string &name = prep->names[i];
            ++attempted;
            std::string why;
            if (!run.ok) {
                why = "job failed: " + run.error;
            } else if (expected.present) {
                const auto it = expected.jobs.find(name);
                if (it == expected.jobs.end())
                    why = "no expected output in " + expected.path;
                else if (it->second != run.canonical)
                    why = "simulated output differs from "
                        + expected.path + ": got " + run.canonical;
            }
            if (why.empty() && run.ok) {
                if (first[i].empty())
                    first[i] = run.canonical;
                else if (first[i] != run.canonical)
                    why = "simulated output differs between sweeps";
            }
            if (!why.empty()) {
                ++failed;
                fail(name, why);
            }
        }
    }
};

std::string
stampJson(const Options &o, std::uint32_t width, std::uint32_t sweeps)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"scale\":\"%s\","
        "\"sweeps\":%u,\"pool_width\":%u,\"nproc\":%u,"
        "\"compiler\":%s,\"build_type\":%s,\"commit\":%s}",
        jsonString(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
        toString(o.scale), sweeps, width,
        std::thread::hardware_concurrency(),
        jsonString(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__
                   + ")")
            .c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(o.commit).c_str());
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checker &checker, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\":";
    json += checker.correct ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(checker.attempted);
    json += ",\"failed\":" + std::to_string(checker.failed);
    json += ",\"metrics\":{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      i == 0 ? "" : ",", metrics[i].name.c_str(),
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0,
                      metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/** Untraced run: the end-to-end metrics. */
void
runUntraced(const Options &o, const Workload &workload,
            const Prepared &prep, Checker &checker,
            const std::vector<double> &setup_s, std::uint32_t width,
            std::uint32_t sweeps)
{
    std::vector<double> walls;
    std::vector<double> txn_rates;
    std::vector<double> job_seconds;
    for (std::uint32_t s = 0; s < sweeps; ++s) {
        const Sweep sweep = runSweep(prep, workload, width, o.workDir);
        checker.check(sweep);
        walls.push_back(sweep.wallS);
        double refs = 0.0;
        double host = 0.0;
        for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
            if (!sweep.jobs[i].ok)
                continue;
            refs += static_cast<double>(jobRefs(prep.jobs[i]));
            host += sweep.jobs[i].seconds;
            job_seconds.push_back(sweep.jobs[i].seconds);
        }
        txn_rates.push_back(ratio(refs, host));
        std::printf("sweep %u/%u: %.3f s, %.4g simulated txn/s\n", s + 1,
                    sweeps, sweep.wallS, txn_rates.back());
    }
    if (!o.writeExpectedDir.empty() && checker.correct) {
        std::map<std::string, std::string> jobs;
        for (std::size_t i = 0; i < prep.names.size(); ++i)
            jobs[prep.names[i]] = checker.first[i];
        const std::string path = expectedPath(
            o.writeExpectedDir, workload.name, o.seed, o.scale);
        writeExpected(path,
                      "perfbench expected outputs: workload="
                          + workload.name
                          + " seed=" + std::to_string(o.seed)
                          + " scale=" + toString(o.scale),
                      jobs);
        std::printf("wrote %s\n", path.c_str());
    }
    const double tail_p = tailPercentile(job_seconds.size());
    std::printf("job_s_tail is p%g of %zu job samples (%u sweeps x %zu "
                "jobs)\n",
                tail_p, job_seconds.size(), sweeps, prep.jobs.size());
    std::printf("metric %-34s %.6g frac (%llu of %llu job runs)\n",
                "failed_frac",
                ratio(static_cast<double>(checker.failed),
                      static_cast<double>(checker.attempted)),
                static_cast<unsigned long long>(checker.failed),
                static_cast<unsigned long long>(checker.attempted));
    printResult(checker,
                {
                    {"sweep_s", median(walls), "s"},
                    {"sim_txn_per_s", median(txn_rates), "1/s"},
                    {"job_s_p50", percentile(job_seconds, 50.0), "s"},
                    {"job_s_tail", percentile(job_seconds, tail_p), "s"},
                    {"setup_s", median(setup_s), "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                });
}

/** How the campaign pool spent a sweep. */
struct PoolUse
{
    double parallelEff = 0.0; //!< Σ job seconds ÷ (lanes × wall).
    double idleS = 0.0;       //!< Lane-seconds idle after last dispatch.
};

/** Records the sweep and its jobs as spans and measures pool use. */
PoolUse
traceSweep(const Sweep &sweep, double start_us, std::uint32_t width,
           Tracer &tracer)
{
    const std::uint64_t sweep_id = tracer.add(
        "campaign.sweep", start_us, start_us + sweep.wallS * 1e6, -1, 0);
    double job_sum = 0.0;
    double last_dispatch = 0.0;
    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        const JobRun &run = sweep.jobs[i];
        const double begin = run.endS - run.seconds;
        tracer.add("campaign.job", start_us + begin * 1e6,
                   start_us + run.endS * 1e6, static_cast<std::int64_t>(i),
                   run.lane + 1, sweep_id);
        job_sum += run.seconds;
        last_dispatch = std::max(last_dispatch, begin);
    }
    const double lanes = static_cast<double>(
        std::min<std::size_t>(width, sweep.jobs.size()));
    // Lane-seconds after the last dispatch not spent in a job.
    double busy_after = 0.0;
    for (const JobRun &run : sweep.jobs)
        busy_after += std::max(
            0.0, run.endS - std::max(last_dispatch, run.endS - run.seconds));
    PoolUse use;
    use.parallelEff = ratio(job_sum, lanes * sweep.wallS);
    use.idleS = lanes * (sweep.wallS - last_dispatch) - busy_after;
    return use;
}

/** Runs the traced jobs (grid indices @p picked) on @p width
 *  threads, lanes 1..width. */
std::vector<TracedOutcome>
runTracedJobs(const Options &o, const Workload &workload,
              const Prepared &prep, const Sweep &sweep,
              const std::vector<std::size_t> &picked, std::uint32_t width,
              Tracer &tracer)
{
    std::vector<TracedOutcome> outcomes(picked.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&](std::uint32_t lane) {
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= picked.size())
                return;
            const std::size_t i = picked[k];
            if (!sweep.jobs[i].ok) {
                outcomes[k].error = "untraced job failed";
                continue;
            }
            TracedJobInput in;
            in.job = &prep.jobs[i];
            in.index = static_cast<std::int64_t>(i);
            in.expectCanonical = sweep.jobs[i].canonical;
            in.seed = o.seed;
            in.fileRoundTrip = workload.stressors.empty() && k == 0;
            in.workDir = o.workDir;
            in.checkpointFiles = workload.resumable;
            in.perturbReplay = o.perturbReplay;
            outcomes[k] = runTracedJob(in, tracer, lane);
        }
    };
    std::vector<std::thread> pool;
    const std::size_t n = std::min<std::size_t>(width, picked.size());
    for (std::size_t w = 0; w < n; ++w)
        pool.emplace_back(worker, static_cast<std::uint32_t>(w + 1));
    for (std::thread &t : pool)
        t.join();
    return outcomes;
}

/** Traced run: the per-layer metrics. */
void
runTraced(const Options &o, const Workload &workload,
          const Prepared &prep, Checker &checker, Tracer &tracer,
          std::uint32_t width, const std::string &stamp)
{
    const double sweep_start_us = tracer.nowUs();
    const Sweep sweep = runSweep(prep, workload, width, o.workDir);
    checker.check(sweep);
    const PoolUse pool = traceSweep(sweep, sweep_start_us, width, tracer);

    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < prep.jobs.size(); ++i) {
        const std::string name = workloadShortName(prep.jobs[i]);
        if (std::find(workload.traced.begin(), workload.traced.end(),
                      name)
            != workload.traced.end())
            picked.push_back(i);
    }
    const std::vector<TracedOutcome> outcomes = runTracedJobs(
        o, workload, prep, sweep, picked, width, tracer);

    LayerCounts k;
    double traced_sim_s = 0.0;
    double untraced_s = 0.0;
    double source_s = 0.0;
    for (std::size_t j = 0; j < picked.size(); ++j) {
        ++checker.attempted;
        if (!outcomes[j].ok) {
            ++checker.failed;
            checker.fail(prep.names[picked[j]] + " (traced)",
                         outcomes[j].error);
            continue;
        }
        k.add(outcomes[j].counts);
        traced_sim_s += outcomes[j].simSeconds;
        source_s += outcomes[j].sourceSeconds;
        untraced_s += sweep.jobs[picked[j]].seconds;
    }

    const auto total = [&](const char *name) {
        return tracer.totalSeconds(name);
    };
    const auto per_unit_ns = [&](const char *name) {
        return ratio(total(name) * 1e9,
                     static_cast<double>(tracer.totalUnits(name)));
    };
    const auto mean_ms = [&](const char *name) {
        return ratio(total(name) * 1e3,
                     static_cast<double>(tracer.count(name)));
    };
    const double refs = static_cast<double>(k.refs);
    const double demand = static_cast<double>(k.demand);
    const double hier_s = total("hierarchy.replay");
    const double cpu_self_s = total("cpu.runTraces")
        - total("sim.ckpt_save") - total("sim.ckpt_capture") - hier_s;
    const double probe_ns = per_unit_ns("cache.probe_pass");
    const double fill_ns = ratio(
        total("cache.fill_pass") * 1e9
            - probe_ns
                * static_cast<double>(tracer.totalUnits("cache.fill_pass")),
        static_cast<double>(k.cacheFillMisses));
    const double verifier_ns = per_unit_ns("mem.verifier");
    const double untraced_ns = ratio(untraced_s * 1e9, refs);
    const double source_ns = ratio(source_s * 1e9, refs);
    const double cpu_ns = ratio(cpu_self_s * 1e9, refs);
    const double hier_ns = ratio(hier_s * 1e9, refs);
    // Checkpoint files are part of a resumable workload's jobs; the
    // other workloads' traced snapshots are extra work.
    const double ckpt_ns = workload.resumable
        ? ratio(total("sim.ckpt_save") * 1e9, refs)
        : 0.0;
    const double remainder_ns =
        untraced_ns - source_ns - cpu_ns - hier_ns - ckpt_ns;

    std::printf("traced %zu jobs, %.4g simulated refs; tracing overhead "
                "%.2f%% (traced %.4g vs untraced %.4g txn/s); peak RSS "
                "%.0f MB\n",
                picked.size(), refs,
                100.0 * (ratio(traced_sim_s, untraced_s) - 1.0),
                ratio(refs, traced_sim_s), ratio(refs, untraced_s),
                peakRssMb());
    std::printf("split ns/ref: %s %.2f + cpu %.2f + hierarchy %.2f + "
                "checkpoint files %.2f + remainder %.2f = untraced "
                "%.2f\n",
                workload.stressors.empty() ? "workloads" : "trace",
                source_ns, cpu_ns,
                hier_ns, ckpt_ns, remainder_ns, untraced_ns);

    if (!o.spansOut.empty()) {
        std::ofstream out(o.spansOut);
        out << tracer.chromeJson(stamp);
        if (!out) {
            checker.fail("spans", "cannot write " + o.spansOut);
        } else {
            std::printf("spans: %s\n", o.spansOut.c_str());
        }
    }

    const auto frac = [](std::uint64_t num, std::uint64_t den) {
        return ratio(static_cast<double>(num), static_cast<double>(den));
    };
    const auto per_kref = [&](std::uint64_t count) {
        return ratio(static_cast<double>(count) * 1000.0, demand);
    };
    printResult(
        checker,
        {
            {"workloads.gen_ns_per_ref", per_unit_ns("workloads.gen"),
             "ns"},
            {"trace.open_ms", mean_ms("trace.open"), "ms"},
            {"trace.replay_ns_per_ref", per_unit_ns("trace.replay"), "ns"},
            {"cpu.self_ns_per_ref", cpu_ns, "ns"},
            {"hierarchy.ns_per_access", hier_ns, "ns"},
            {"hierarchy.l1_hit_frac", frac(k.l1Hits, k.demand), "frac"},
            {"hierarchy.l2_hit_frac", frac(k.l2Hits, k.demand - k.l1Hits),
             "frac"},
            {"hierarchy.llc_hit_frac",
             frac(k.llcHits, k.llcHits + k.llcMisses), "frac"},
            {"hierarchy.llc_writes_per_kref", per_kref(k.llcWrites),
             "count/kref"},
            {"hierarchy.back_inval_per_kref",
             per_kref(k.backInvalidations), "count/kref"},
            {"hierarchy.redundant_fill_frac",
             frac(k.redundantFills, k.demandFills), "frac"},
            {"cache.llc_valid_frac_at_warm",
             frac(k.llcValidAtWarm, k.llcCapacity), "frac"},
            {"cache.probe_ns", probe_ns, "ns"},
            {"cache.fill_ns", fill_ns, "ns"},
            {"mem.dram_ops_per_kref", per_kref(k.dramOps), "count/kref"},
            {"mem.verifier_ns_per_op", verifier_ns, "ns"},
            {"mem.verifier_est_share",
             ratio(verifier_ns * static_cast<double>(k.verifierOpsInRun),
                   hier_s * 1e9),
             "frac"},
            {"coherence.snoops_per_kref", per_kref(k.snoops),
             "count/kref"},
            {"sim.construct_ms", mean_ms("sim.construct"), "ms"},
            {"sim.ckpt_bytes", frac(k.ckptBytes, k.ckpts), "B"},
            {"sim.ckpt_save_ms", mean_ms("sim.ckpt_save"), "ms"},
            {"sim.ckpt_restore_ms", mean_ms("sim.ckpt_restore"), "ms"},
            {"campaign.parallel_eff", pool.parallelEff, "frac"},
            {"campaign.idle_s", pool.idleS, "s"},
            {"tracing.overhead_frac",
             ratio(traced_sim_s, untraced_s) - 1.0, "frac"},
            {"split.remainder_ns_per_ref", remainder_ns, "ns"},
        });
}

int
run(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to run an unoptimised "
                         "build (timings would not be comparable)\n");
    return 2;
#endif
    const Options o = parseOptions(argc, argv);
    for (const char *var : {"LAPSIM_FAST", "LAPSIM_REFS_SCALE"}) {
        // These rescale every job's run length.
        // lapsim-lint: allow(det-banned-call)
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "perfbench: unset %s: it changes the "
                                 "benchmark's run lengths\n",
                         var);
            return 2;
        }
    }
    Workload workload;
    std::filesystem::create_directories(o.workDir);
    if (!makeWorkload(o.workload, o.seed, o.scale, o.workDir, workload))
        usage(("unknown workload " + o.workload).c_str());

    const std::uint32_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const std::uint32_t width = std::min(nproc, 4u);
    // A count fixed by --seconds alone (never by elapsed time), so
    // every run of a workload has the same samples and tail
    // percentile.
    std::uint32_t sweeps = o.scale == Scale::Tiny
        ? 2
        : std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(
                     std::lround(o.seconds / workload.nominalSweepS)));
    if (o.trace)
        sweeps = 1;
    const std::string stamp = stampJson(o, width, sweeps);
    std::printf("stamp %s\n", stamp.c_str());

    Tracer tracer;
    const int reps = o.trace ? 1 : workload.setupReps;
    std::vector<double> setup_s;
    Prepared prep;
    for (int r = 0; r < reps; ++r) {
        Span setup(tracer, "campaign.setup", -1, 0);
        prep = setUp(workload, o.seed);
        setup_s.push_back(setup.end());
    }
    for (const auto &[name, error] : prep.constructErrors)
        std::printf("construct failed for %s: %s\n", name.c_str(),
                    error.c_str());

    Checker checker;
    checker.prep = &prep;
    checker.expected = loadExpected(
        expectedPath(o.expectedDir, workload.name, o.seed, o.scale));
    std::printf("workload %s: %zu jobs per sweep, pool %u, seed %llu, "
                "expected outputs: %s\n",
                workload.name.c_str(), prep.jobs.size(), width,
                static_cast<unsigned long long>(o.seed),
                checker.expected.present
                    ? checker.expected.path.c_str()
                    : "none (held-out seed: job success and "
                      "sweep-to-sweep identity only)");
    if (checker.expected.present) {
        for (const auto &[name, canon] : checker.expected.jobs) {
            if (std::find(prep.names.begin(), prep.names.end(), name)
                == prep.names.end())
                checker.fail(name, "expected job is not in the grid");
        }
    }

    if (o.trace)
        runTraced(o, workload, prep, checker, tracer, width, stamp);
    else
        runUntraced(o, workload, prep, checker, setup_s, width, sweeps);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
