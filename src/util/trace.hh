/**
 * @file
 * Low-overhead structured tracing in Chrome trace-event JSON format
 * (the `chrome://tracing` / Perfetto "JSON Array" dialect; see
 * docs/OBSERVABILITY.md for the schema and the metric/span catalog).
 *
 * One process-global session collects events from every thread:
 * duration spans (`B`/`E` pairs, RAII via `Span`), instant events
 * (`i`), and `thread_name` metadata so per-worker tracks render with
 * readable names. A thread gets a track id on first use and hands it
 * back when it exits; the next new thread reuses the smallest free
 * id, so ids and names stay bounded by the peak number of live
 * threads in a long-lived process (`sierra serve`).
 *
 * Overhead contract: with no session running, every instrumentation
 * point costs exactly one relaxed atomic load and a branch
 * (`enabled()`); argument objects are never built (the macros guard
 * their evaluation). With a session running, events append to a
 * mutex-protected buffer — acceptable at stage/pair granularity, not
 * meant for per-instruction events. Compiling with
 * `-DSIERRA_TRACE_DISABLED` (CMake: `-DSIERRA_DISABLE_TRACING=ON`)
 * removes the macro call sites entirely.
 */

#ifndef SIERRA_UTIL_TRACE_HH
#define SIERRA_UTIL_TRACE_HH

#include <atomic>
#include <string>

#include "json.hh"

namespace sierra::util::trace {

namespace detail {
extern std::atomic<bool> g_collecting;
} // namespace detail

/** Is a trace session collecting right now? One relaxed atomic load —
 *  the entire hot-path cost when tracing is off. */
inline bool
enabled()
{
    return detail::g_collecting.load(std::memory_order_relaxed);
}

/** Start collecting (clears any previously collected events). The
 *  calling thread is named "main" unless it already has a name. */
void start();

/** Stop collecting. Events already recorded stay available to
 *  toJson()/writeJson(). Must be called with no Span still open, or
 *  the B/E pairing of the open spans will be truncated. */
void stop();

/** Drop all collected events (does not change the enabled state). */
void clear();

/** Number of events collected so far (metadata excluded). */
size_t eventCount();

/**
 * Serialize the collected events as a Chrome trace-event JSON object:
 * `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Timestamps are
 * microseconds since start(). Callable while collecting (snapshots
 * under the session lock) or after stop().
 */
std::string toJson();

/** stop() + serialize + write to `path`. False on I/O failure. */
bool writeJson(const std::string &path);

/**
 * Record a duration-begin event. `cat` must be a string literal (it
 * is stored by pointer); `name` and `args` are copied. `args` is an
 * object, e.g. from arg(), or null for none.
 */
void beginSpan(const char *cat, std::string name, Json args = {});

/** Record the matching duration-end event. */
void endSpan(const char *cat, std::string name);

/** Record an instant event (scope: thread). */
void instant(const char *cat, std::string name, Json args = {});

/**
 * Name the calling thread's track (cheap: one lock per call). A name
 * outlives its thread, so pool workers named before start(), or
 * joined before toJson(), still render with names; it is replaced
 * when a later thread reuses the track id and names itself.
 */
void setThreadName(const std::string &name);

/** Entries in the track-name table: at most the peak number of live
 *  threads that ever traced or named themselves. */
size_t threadNameCount();

/** One-pair args object: `{"key": "value"}`. */
Json arg(const std::string &key, const std::string &value);

/** RAII duration span. Emits B at construction when a session is
 *  collecting, and the matching E at destruction. */
class Span
{
  public:
    Span(const char *cat, std::string name, Json args = {})
    {
        if (enabled()) {
            _cat = cat;
            _name = std::move(name);
            beginSpan(_cat, _name, std::move(args));
            _armed = true;
        }
    }
    ~Span()
    {
        if (_armed)
            endSpan(_cat, _name);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *_cat{nullptr};
    std::string _name;
    bool _armed{false};
};

} // namespace sierra::util::trace

/*
 * Instrumentation macros. `args` is evaluated only when a session is
 * collecting, so building argument objects costs nothing when tracing
 * is off. With SIERRA_TRACE_DISABLED the call sites vanish.
 */
#ifndef SIERRA_TRACE_DISABLED
#define SIERRA_TRACE_SPAN(var, cat, name, args)                        \
    ::sierra::util::trace::Span var(                                   \
        cat, name,                                                     \
        ::sierra::util::trace::enabled() ? (args)                      \
                                         : ::sierra::util::Json())
#define SIERRA_TRACE_INSTANT(cat, name, args)                          \
    do {                                                               \
        if (::sierra::util::trace::enabled())                          \
            ::sierra::util::trace::instant(cat, name, args);           \
    } while (0)
#else
#define SIERRA_TRACE_SPAN(var, cat, name, args)                        \
    do {                                                               \
    } while (0)
#define SIERRA_TRACE_INSTANT(cat, name, args)                          \
    do {                                                               \
    } while (0)
#endif

#endif // SIERRA_UTIL_TRACE_HH
