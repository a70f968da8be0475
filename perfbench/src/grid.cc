#include "grid.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "trace/format.hh"
#include "trace/resolve.hh"
#include "trace/stressors.hh"
#include "workloads/mixes.hh"
#include "workloads/parsec.hh"

namespace perfbench
{

namespace
{

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items)
        out += (out.empty() ? "" : ",") + item;
    return out;
}

/** Run-length overrides of the self-test scale (small caches so a
 *  whole grid runs in well under a second). */
const char *
scaleLines(Scale scale)
{
    return scale == Scale::Tiny ? "set warmup 2000\n"
                                  "set refs 8000\n"
                                  "set llc-mb 1\n"
                                  "set l2-kb 64\n"
                                : "";
}

std::string
stressorPath(const std::string &work_dir, const std::string &name)
{
    return work_dir + "/" + name + ".laptr";
}

std::string
policyShortName(lap::PolicyKind policy)
{
    switch (policy) {
      case lap::PolicyKind::NonInclusive: return "noni";
      case lap::PolicyKind::Exclusive: return "ex";
      case lap::PolicyKind::Lap: return "lap";
      default: return lap::toString(policy);
    }
}

} // namespace

const char *
toString(Scale scale)
{
    return scale == Scale::Tiny ? "tiny" : "full";
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Scale scale,
             const std::string &work_dir, Workload &out)
{
    out = Workload{};
    out.name = name;
    std::string body;
    if (name == "mix-grid") {
        std::vector<std::string> mixes;
        for (const lap::MixSpec &mix : lap::tableThreeMixes())
            mixes.push_back(mix.name);
        body = "policies noni,ex,lap\nmix " + joined(mixes) + "\n";
        out.traced = {"WL1", "WH1"};
        out.nominalSweepS = 7.7;
        out.setupReps = 9;
    } else if (name == "stressor-replay") {
        out.stressors = lap::stressorNames();
        std::vector<std::string> paths;
        for (const std::string &stressor : out.stressors)
            paths.push_back(stressorPath(work_dir, stressor));
        body = "policies noni,lap\ntrace " + joined(paths) + "\n";
        out.resumable = true;
        out.traced = {"gups", "stream_triad"};
        out.nominalSweepS = 7.5;
        out.setupReps = 3;
    } else if (name == "parsec8") {
        body = "set cores 8\npolicies noni,lap\nparsec "
            + joined(lap::parsecNames()) + "\n";
        out.traced = {"canneal", "streamcluster"};
        out.nominalSweepS = 13.6;
        out.setupReps = 9;
    } else {
        return false;
    }
    out.specText = "name " + name + "\nseed " + std::to_string(seed)
        + "\n" + scaleLines(scale) + body;
    return true;
}

Prepared
setUp(const Workload &workload, std::uint64_t seed)
{
    Prepared p;
    p.spec = lap::parseCampaignSpec(workload.specText);
    const lap::SimConfig &base = p.spec.base;
    const std::uint64_t refs_per_core =
        base.warmupRefs + base.measureRefs;
    for (std::size_t i = 0; i < workload.stressors.size(); ++i) {
        // The trace workloads in the spec are these paths, in order.
        const std::string &path = p.spec.workloads.at(i).name;
        lap::writeTraceFile(
            path, lap::buildStressorTrace(workload.stressors[i],
                                          base.numCores, refs_per_core,
                                          seed));
        // Opening a file maps and fully validates it (structure,
        // CRC, semantics) before any job relies on it.
        const auto store = lap::openTraceStore(path, base.numCores,
                                               refs_per_core, seed);
        if (store->coreCount() != base.numCores)
            lap_fatal("recorded trace %s has %u cores, expected %u",
                      path.c_str(), store->coreCount(), base.numCores);
    }
    p.jobs = lap::expandCampaign(p.spec);
    for (const lap::CampaignJob &job : p.jobs) {
        const std::string name = workloadShortName(job) + "/"
            + policyShortName(job.config.policy);
        p.names.push_back(name);
        try {
            const lap::ScopedFatalThrow guard;
            const lap::Simulator sim(job.config);
        } catch (const lap::FatalError &err) {
            p.constructErrors[name] = err.what();
        }
    }
    return p;
}

std::uint64_t
jobRefs(const lap::CampaignJob &job)
{
    return (job.config.warmupRefs + job.config.measureRefs)
        * job.config.numCores;
}

std::string
workloadShortName(const lap::CampaignJob &job)
{
    std::string name = job.workload.name;
    if (job.workload.kind == lap::CampaignWorkload::Kind::Trace) {
        const auto slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name = name.substr(slash + 1);
        const auto dot = name.rfind(".laptr");
        if (dot != std::string::npos)
            name = name.substr(0, dot);
    }
    return name;
}

std::string
canonicalMetrics(const lap::Metrics &m)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "instructions=%" PRIu64 " cycles=%" PRIu64 " llcHits=%" PRIu64
        " llcMisses=%" PRIu64 " llcWritesFill=%" PRIu64
        " llcWritesCleanVictim=%" PRIu64 " llcWritesDirtyVictim=%" PRIu64
        " llcWritesMigration=%" PRIu64 " dramReads=%" PRIu64
        " dramWrites=%" PRIu64 " snoopMessages=%" PRIu64 " epi=%.17g",
        m.instructions, m.cycles, m.llcHits, m.llcMisses,
        m.llcWritesFill, m.llcWritesCleanVictim, m.llcWritesDirtyVictim,
        m.llcWritesMigration, m.dramReads, m.dramWrites,
        m.snoopMessages, m.epi);
    return buf;
}

std::string
expectedPath(const std::string &dir, const std::string &workload,
             std::uint64_t seed, Scale scale)
{
    return dir + "/" + workload + ".seed" + std::to_string(seed)
        + (scale == Scale::Tiny ? ".tiny" : "") + ".txt";
}

Expected
loadExpected(const std::string &path)
{
    Expected e;
    e.path = path;
    std::ifstream in(path);
    if (!in)
        return e;
    e.present = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            lap_fatal("%s: malformed line '%s'", path.c_str(),
                      line.c_str());
        e.jobs[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return e;
}

void
writeExpected(const std::string &path, const std::string &header,
              const std::map<std::string, std::string> &jobs)
{
    std::ostringstream out;
    out << "# " << header << "\n";
    for (const auto &[name, canon] : jobs)
        out << name << "\t" << canon << "\n";
    std::ofstream file(path);
    file << out.str();
    if (!file)
        lap_fatal("cannot write %s", path.c_str());
}

} // namespace perfbench
