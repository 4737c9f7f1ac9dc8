/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by
 * the benchmark around its own calls into each layer (the program is
 * not instrumented), kept in memory, and written out when the run
 * ends. A layer's self time is its span's duration minus the part of
 * that interval its child spans cover.
 */

#ifndef SIERRABENCH_SPANS_HH
#define SIERRABENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sierrabench {

struct Span {
    std::string name;
    int64_t startNs{0}; //!< since the recorder was made
    int64_t endNs{-1};  //!< -1 while open
    int parent{-1};     //!< index of the enclosing span, -1 for a root
    int64_t request{-1};

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/** Thread-safe: harness tasks record from pool workers. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span; returns its id. */
    int begin(const std::string &name, int parent, int64_t request);
    void end(int id);

    /** A snapshot of every span (call once recording stopped). */
    std::vector<Span> spans() const;

    /** Self time (ms) of every span, indexed like spans(). */
    static std::vector<double> selfMs(const std::vector<Span> &spans);

    /** Sum of self times per span name. */
    static std::map<std::string, double>
    selfMsByName(const std::vector<Span> &spans);

    /** One JSON object per line: name, start/end (ns), parent, request. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point _origin;
    mutable std::mutex _mutex;
    std::vector<Span> _spans; //!< guarded by _mutex
};

/** RAII span; a null recorder records nothing (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, int parent,
               int64_t request)
        : _rec(rec), _id(rec ? rec->begin(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (_rec)
            _rec->end(_id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return _id; }

  private:
    SpanRecorder *_rec;
    int _id;
};

} // namespace sierrabench

#endif // SIERRABENCH_SPANS_HH
