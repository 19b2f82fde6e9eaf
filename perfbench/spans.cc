#include "spans.hh"

#include <cstdio>
#include <cstring>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanRecorder::SpanRecorder(bool enabled) : on(enabled), t0(Clock::now())
{}

SpanRecorder::Scope::Scope(SpanRecorder &r, const char *layer,
                           const char *name, std::uint32_t id)
    : rec(r)
{
    if (!rec.on)
        return;
    index = static_cast<std::int32_t>(rec.list.size());
    std::int32_t parent = rec.open.empty() ? -1 : rec.open.back();
    rec.list.push_back({layer, name, id, parent, secondsSince(rec.t0), 0});
    rec.open.push_back(index);
}

SpanRecorder::Scope::~Scope()
{
    if (index < 0)
        return;
    rec.list[static_cast<std::size_t>(index)].end = secondsSince(rec.t0);
    rec.open.pop_back();
}

void
SpanRecorder::append(const std::vector<Span> &more)
{
    list.insert(list.end(), more.begin(), more.end());
}

std::map<std::string, double>
SpanRecorder::selfTimes(const char *root) const
{
    // Children are recorded after their parent, so one forward pass
    // knows each span's root and one more subtracts child coverage.
    std::vector<std::int32_t> rootOf(list.size());
    std::vector<double> self(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        rootOf[i] = s.parent < 0 ? static_cast<std::int32_t>(i)
                                 : rootOf[static_cast<std::size_t>(s.parent)];
        self[i] = s.end - s.start;
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &r = list[static_cast<std::size_t>(rootOf[i])];
        if (std::strcmp(r.name, root) != 0)
            continue;
        out[std::string(list[i].layer) + "." + list[i].name] += self[i];
    }
    return out;
}

double
SpanRecorder::rootTime(const char *root) const
{
    double t = 0;
    for (const Span &s : list) {
        if (s.parent < 0 && std::strcmp(s.name, root) == 0)
            t += s.end - s.start;
    }
    return t;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"span\":%zu,\"parent\":%d}}",
                     i ? "," : "", s.name, s.layer, s.start * 1e6,
                     (s.end - s.start) * 1e6, s.id, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
