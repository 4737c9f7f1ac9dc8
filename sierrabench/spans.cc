#include "spans.hh"

#include <algorithm>
#include <fstream>

#include "stats.hh"

namespace sierrabench {

SpanRecorder::SpanRecorder() : _origin(std::chrono::steady_clock::now())
{
}

int
SpanRecorder::begin(const std::string &name, int parent,
                    int64_t request)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - _origin)
            .count();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back({name, now, -1, parent, request});
    return static_cast<int>(_spans.size()) - 1;
}

void
SpanRecorder::end(int id)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - _origin)
            .count();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[static_cast<size_t>(id)].endNs = now;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::vector<double>
SpanRecorder::selfMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    }
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Union of the children's intervals, clipped to the parent
        // (children of a parallel fan-out overlap each other).
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (int c : children[i]) {
            const Span &k = spans[static_cast<size_t>(c)];
            int64_t a = std::max(k.startNs, s.startNs);
            int64_t b = std::min(k.endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_a = 0, cur_b = -1;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        self[i] = static_cast<double>(s.endNs - s.startNs - covered) / 1e6;
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::selfMsByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfMs(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans()) {
        out << "{\"name\":" << jsonString(s.name)
            << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace sierrabench
