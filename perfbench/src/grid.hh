/**
 * @file
 * The benchmark's workloads: three campaign grids over the paper's
 * evaluation, their set-up, and the expected-output check.
 *
 *   mix-grid         Table III mixes x {noni, ex, lap}, 4 cores,
 *                    live synthetic generation.
 *   stressor-replay  five stressors recorded to LAPTR1 files in
 *                    set-up, replayed by path x {noni, lap} as a
 *                    resumable campaign (JSONL + mid-job restore).
 *   parsec8          PARSEC models x {noni, lap}, 8 cores, coherence.
 *
 * Every grid takes the campaign seed; the simulator sees only the
 * generated grid (spec text, and for stressor-replay the trace
 * files).
 */

#ifndef PERFBENCH_GRID_HH
#define PERFBENCH_GRID_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/spec.hh"
#include "sim/metrics.hh"

namespace perfbench
{

/** Full = Table II run lengths; Tiny = self-test scale. */
enum class Scale : std::uint8_t
{
    Full,
    Tiny,
};

const char *toString(Scale scale);

/** Static description of one workload. */
struct Workload
{
    std::string name;
    /** Campaign spec text (parsed during set-up). */
    std::string specText;
    /** Stressors recorded to <workDir>/<name>.laptr in set-up. */
    std::vector<std::string> stressors;
    /** Run as a resumable campaign (JSONL out + mid-job restore). */
    bool resumable = false;
    /** Grid workloads whose jobs the traced run traces. */
    std::vector<std::string> traced;
    /** Planning constant: host seconds per sweep at Full scale on a
     *  4-core host, set-up share included. Sets how many sweeps a
     *  run of --seconds makes. */
    double nominalSweepS = 10.0;
    /** Set-up repetitions per run (median reported). */
    int setupReps = 3;
};

/** Builds a workload; false when @p name is unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Scale scale, const std::string &work_dir,
                  Workload &out);

/** What set-up hands to the sweeps. */
struct Prepared
{
    lap::CampaignSpec spec;
    std::vector<lap::CampaignJob> jobs;
    /** Benchmark job names ("WH1/LAP", "gups/Non-inclusive"),
     *  parallel to jobs. */
    std::vector<std::string> names;
    /** Jobs whose simulator failed to construct: name -> error. */
    std::map<std::string, std::string> constructErrors;
};

/**
 * Set-up: records and validates the stressor traces (if any),
 * parses and expands the spec, and constructs every job's simulator
 * once so a bad grid point fails before the first dispatch.
 */
Prepared setUp(const Workload &workload, std::uint64_t seed);

/** Simulated references of one job (all cores, warm-up included). */
std::uint64_t jobRefs(const lap::CampaignJob &job);

/** Short workload name of a job (mix/app name, stressor name). */
std::string workloadShortName(const lap::CampaignJob &job);

/**
 * The simulated outputs a job is checked on, as one exact string:
 * instructions, cycles, LLC hits/misses, LLC writes by class, DRAM
 * reads/writes, snoop messages and EPI (17 significant digits).
 */
std::string canonicalMetrics(const lap::Metrics &metrics);

/** Expected canonical metrics per job name, for one seed. */
struct Expected
{
    bool present = false; //!< False: held-out seed, success-only.
    std::string path;
    std::map<std::string, std::string> jobs;
};

/** Path of the expected file for (workload, seed, scale). */
std::string expectedPath(const std::string &dir,
                         const std::string &workload,
                         std::uint64_t seed, Scale scale);

/** Loads @p path; present=false when the file does not exist. */
Expected loadExpected(const std::string &path);

/** Writes job name -> canonical metrics lines to @p path. */
void writeExpected(const std::string &path, const std::string &header,
                   const std::map<std::string, std::string> &jobs);

} // namespace perfbench

#endif // PERFBENCH_GRID_HH
