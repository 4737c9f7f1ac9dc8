#include "trace.hh"

#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <vector>

namespace sierra::util::trace {

namespace detail {
std::atomic<bool> g_collecting{false};
} // namespace detail

namespace {

struct Event {
    char phase;       //!< 'B', 'E', or 'i'
    int tid;          //!< stable per-thread track id
    int64_t tsNs;     //!< nanoseconds since session start
    const char *cat;  //!< category (string literal, stored by pointer)
    std::string name;
    Json args;        //!< an object, or null for none
};

struct Session {
    std::mutex mutex;
    std::vector<Event> events;
    //! tid -> track name. A name outlives its thread, so pool workers
    //! named before start() or joined before toJson() keep their
    //! names; a recycled tid takes its new owner's name.
    std::map<int, std::string> threadNames;
    std::chrono::steady_clock::time_point epoch;
};

Session &
session()
{
    static Session s;
    return s;
}

/** Track ids of the live threads. An exiting thread hands its id
 *  back and the next new thread takes the smallest free one, so ids
 *  (and the name table keyed by them) stay bounded by the peak number
 *  of live threads however many short-lived pools a process runs. */
class TrackIds
{
  public:
    int
    acquire()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_free.empty())
            return _next++;
        int id = *_free.begin();
        _free.erase(_free.begin());
        return id;
    }

    void
    release(int id)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _free.insert(id);
    }

  private:
    std::mutex _mutex;
    std::set<int> _free;
    int _next{0};
};

TrackIds &
trackIds()
{
    // Never destroyed: threads may still exit during static teardown.
    static TrackIds *ids = new TrackIds;
    return *ids;
}

/** Holds the calling thread's track id until the thread exits. */
struct ThreadTrack {
    int tid{trackIds().acquire()};
    ThreadTrack() = default;
    ThreadTrack(const ThreadTrack &) = delete;
    ThreadTrack &operator=(const ThreadTrack &) = delete;
    ~ThreadTrack() { trackIds().release(tid); }
};

/** The calling thread's track id, assigned on first use. The main
 *  thread usually claims 0 but nothing relies on that. */
int
tidOf()
{
    thread_local ThreadTrack track;
    return track.tid;
}

/** Append one event. Timestamps are taken under the session lock so
 *  the epoch written by start() is properly synchronized. */
void
record(char phase, const char *cat, std::string name, Json args)
{
    Session &s = session();
    int tid = tidOf();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!detail::g_collecting.load(std::memory_order_relaxed))
        return; // stopped between the caller's check and here
    int64_t ts = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - s.epoch)
                     .count();
    s.events.push_back(
        {phase, tid, ts, cat, std::move(name), std::move(args)});
}

} // namespace

void
start()
{
    Session &s = session();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.events.clear();
        s.epoch = std::chrono::steady_clock::now();
        int tid = tidOf();
        if (!s.threadNames.count(tid))
            s.threadNames[tid] = "main";
        detail::g_collecting.store(true, std::memory_order_relaxed);
    }
}

void
stop()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    detail::g_collecting.store(false, std::memory_order_relaxed);
}

void
clear()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.events.clear();
}

size_t
eventCount()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.events.size();
}

void
beginSpan(const char *cat, std::string name, Json args)
{
    if (!enabled())
        return;
    record('B', cat, std::move(name), std::move(args));
}

void
endSpan(const char *cat, std::string name)
{
    record('E', cat, std::move(name), Json());
}

void
instant(const char *cat, std::string name, Json args)
{
    if (!enabled())
        return;
    record('i', cat, std::move(name), std::move(args));
}

void
setThreadName(const std::string &name)
{
    Session &s = session();
    int tid = tidOf();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.threadNames[tid] = name;
}

size_t
threadNameCount()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.threadNames.size();
}

Json
arg(const std::string &key, const std::string &value)
{
    Json out = Json::object();
    out.set(key, Json::str(value));
    return out;
}

std::string
toJson()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);

    auto event = [](std::string phase, int tid) {
        Json e = Json::object();
        e.set("ph", Json::str(std::move(phase)));
        e.set("pid", Json::integer(0));
        e.set("tid", Json::integer(tid));
        return e;
    };
    Json events = Json::array();
    // Metadata first: name the tracks that actually carry events.
    std::set<int> seen;
    for (const Event &e : s.events)
        seen.insert(e.tid);
    for (const auto &[tid, name] : s.threadNames) {
        if (!seen.count(tid))
            continue;
        Json meta = event("M", tid);
        meta.set("name", Json::str("thread_name"));
        meta.set("args", arg("name", name));
        events.push(std::move(meta));
    }
    for (const Event &e : s.events) {
        Json ev = event(std::string(1, e.phase), e.tid);
        ev.set("ts", Json::real(static_cast<double>(e.tsNs) / 1e3));
        ev.set("cat", Json::str(e.cat));
        ev.set("name", Json::str(e.name));
        if (e.phase == 'i')
            ev.set("s", Json::str("t"));
        if (e.args.kind() != Json::Kind::Null)
            ev.set("args", e.args);
        events.push(std::move(ev));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", Json::str("ms"));
    return root.dump() + "\n";
}

bool
writeJson(const std::string &path)
{
    stop();
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson();
    return static_cast<bool>(file);
}

} // namespace sierra::util::trace
