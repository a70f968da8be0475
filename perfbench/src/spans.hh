/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a simulator module's public API,
 * made from the benchmark's own code: name, start, end, the span
 * that caused it, and the campaign job it belongs to. Spans are kept
 * in memory while the run executes and written once at exit as a
 * Chrome trace_event file (Perfetto opens it). The per-layer metrics
 * are sums over these same records, so every reported number has a
 * span behind it.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One finished span. */
struct SpanRecord
{
    std::string name;
    double startUs = 0.0; //!< Microseconds since the tracer started.
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = no parent.
    std::int64_t job = -1;    //!< Grid index; -1 = not a job span.
    std::uint32_t tid = 0;    //!< Benchmark thread lane.
    /** Work items the span covered (refs, accesses, calls). */
    std::uint64_t units = 0;

    double seconds() const { return (endUs - startUs) * 1e-6; }
};

/** Thread-safe span store. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    double nowUs() const;
    std::uint64_t nextId() { return ++ids_; }
    void record(SpanRecord record);

    /** Adds a span measured elsewhere (e.g. from campaign
     *  callbacks); returns its id. */
    std::uint64_t add(std::string name, double start_us, double end_us,
                      std::int64_t job, std::uint32_t tid,
                      std::uint64_t parent = 0);

    /** Sum of durations in seconds of every span named @p name. */
    double totalSeconds(const std::string &name) const;
    /** Sum of the units of every span named @p name. */
    std::uint64_t totalUnits(const std::string &name) const;
    /** Number of spans named @p name. */
    std::size_t count(const std::string &name) const;

    /** Chrome trace_event JSON; @p metadata_json is a JSON object
     *  stored under "metadata". */
    std::string chromeJson(const std::string &metadata_json) const;

  private:
    const Clock::time_point origin_;
    std::atomic<std::uint64_t> ids_{0};
    mutable lap::Mutex mutex_;
    std::vector<SpanRecord> spans_ LAP_GUARDED_BY(mutex_);
};

/** RAII span: starts on construction, records on end() or
 *  destruction. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name, std::int64_t job,
         std::uint32_t tid, const Span *parent = nullptr);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setUnits(std::uint64_t units) { record_.units = units; }
    std::uint64_t id() const { return record_.id; }

    /** Ends the span (once) and returns its duration in seconds. */
    double end();

  private:
    Tracer &tracer_;
    SpanRecord record_;
    bool ended_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
