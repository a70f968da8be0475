#include "spans.hh"

#include <cstdio>

namespace perfbench
{

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - origin_)
        .count();
}

void
Tracer::record(SpanRecord record)
{
    const lap::MutexLock lock(mutex_);
    spans_.push_back(std::move(record));
}

std::uint64_t
Tracer::add(std::string name, double start_us, double end_us,
            std::int64_t job, std::uint32_t tid, std::uint64_t parent)
{
    SpanRecord rec;
    rec.name = std::move(name);
    rec.startUs = start_us;
    rec.endUs = end_us;
    rec.id = nextId();
    rec.parent = parent;
    rec.job = job;
    rec.tid = tid;
    const std::uint64_t id = rec.id;
    record(std::move(rec));
    return id;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    const lap::MutexLock lock(mutex_);
    double total = 0.0;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            total += s.seconds();
    return total;
}

std::uint64_t
Tracer::totalUnits(const std::string &name) const
{
    const lap::MutexLock lock(mutex_);
    std::uint64_t total = 0;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            total += s.units;
    return total;
}

std::size_t
Tracer::count(const std::string &name) const
{
    const lap::MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const SpanRecord &s : spans_)
        n += s.name == name ? 1 : 0;
    return n;
}

std::string
Tracer::chromeJson(const std::string &metadata_json) const
{
    const lap::MutexLock lock(mutex_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":";
    out += metadata_json;
    out += ",\"traceEvents\":[\n";
    char buf[512];
    bool first = true;
    for (const SpanRecord &s : spans_) {
        // Span names are fixed identifiers; no JSON escaping needed.
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"job\":%lld,\"units\":%llu}}",
                      first ? "" : ",\n", s.name.c_str(),
                      s.name.substr(0, s.name.find('.')).c_str(),
                      s.tid, s.startUs, s.endUs - s.startUs,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<long long>(s.job),
                      static_cast<unsigned long long>(s.units));
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return out;
}

Span::Span(Tracer &tracer, std::string name, std::int64_t job,
           std::uint32_t tid, const Span *parent)
    : tracer_(tracer)
{
    record_.name = std::move(name);
    record_.id = tracer_.nextId();
    record_.parent = parent ? parent->id() : 0;
    record_.job = job;
    record_.tid = tid;
    record_.startUs = tracer_.nowUs();
}

Span::~Span()
{
    end();
}

double
Span::end()
{
    if (!ended_) {
        record_.endUs = tracer_.nowUs();
        ended_ = true;
        tracer_.record(record_);
    }
    return record_.seconds();
}

} // namespace perfbench
