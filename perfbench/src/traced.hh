/**
 * @file
 * The traced run of one campaign job: the job's simulation split
 * into its layers by timing calls into each module's public API.
 *
 *   source     workloads: buildMultiProgrammed/buildMultiThreaded +
 *              next() into per-core buffers; trace: openTraceStore +
 *              buildReplaySources + next()
 *   cpu        Simulator::runTraces over the buffered refs, with a
 *              capture decorator per core (core of each ref, in issue
 *              order) and an observer capturing each issue cycle
 *   sim        Simulator construction, checkpoints from a hook at the
 *              campaign's cadence (checkpointBytes, or checkpoint
 *              files for a resumable workload), setRestoreBlob +
 *              runTraces up to the restore point
 *   hierarchy  the captured stream replayed into a fresh
 *              CacheHierarchy::access loop (resetStats at the warm-up
 *              boundary); its HierarchyStats and full state must
 *              equal the run's exactly
 *   cache      Cache::access / Cache::insert on a standalone
 *              LLC-geometry cache fed the LLC-level block stream
 *   mem        public Verifier calls on the recorded addresses
 *
 * The job's simulated metrics must also equal the untraced sweep's.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <string>

#include "campaign/spec.hh"
#include "spans.hh"

namespace perfbench
{

/** Counts the per-layer ratios are built from, summed over jobs.
 *  Hit/write/DRAM/snoop counts cover the measured window only. */
struct LayerCounts
{
    std::uint64_t refs = 0;   //!< Simulated refs, warm-up included.
    std::uint64_t demand = 0; //!< Measured demand accesses.
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWrites = 0;
    std::uint64_t backInvalidations = 0;
    std::uint64_t redundantFills = 0;
    std::uint64_t demandFills = 0;
    std::uint64_t dramOps = 0;
    std::uint64_t snoops = 0;
    std::uint64_t llcValidAtWarm = 0;
    std::uint64_t llcCapacity = 0;
    /** Misses of the standalone-cache fill pass. */
    std::uint64_t cacheFillMisses = 0;
    /** Estimated verifier calls the run made (warm-up included). */
    std::uint64_t verifierOpsInRun = 0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t ckpts = 0;

    void add(const LayerCounts &other);
};

/** Result of one traced job. */
struct TracedOutcome
{
    bool ok = false;
    std::string error;
    LayerCounts counts;
    /** Host seconds of the job's own simulation path: source +
     *  construction + runTraces, less checkpoint work the untraced
     *  job does not do. */
    double simSeconds = 0.0;
    /** Host seconds producing the job's reference stream. */
    double sourceSeconds = 0.0;
};

struct TracedJobInput
{
    const lap::CampaignJob *job = nullptr;
    std::int64_t index = -1;
    /** The untraced sweep's canonical metrics for this job. */
    std::string expectCanonical;
    std::uint64_t seed = 0;
    /** Also write the stream to a LAPTR1 file and replay it
     *  (synthetic workloads; measures the trace layer). */
    bool fileRoundTrip = false;
    std::string workDir;
    /** Write the mid-job checkpoints as files, as the workload's
     *  untraced (resumable) jobs do. */
    bool checkpointFiles = false;
    /** Self-test: shift the second half of the captured issue
     *  cycles by one, which the exactness check must catch. */
    bool perturbReplay = false;
};

TracedOutcome runTracedJob(const TracedJobInput &input, Tracer &tracer,
                           std::uint32_t tid);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
