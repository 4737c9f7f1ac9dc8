#include "thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace.hh"

namespace sierra::util {

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("SIERRA_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<int>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers, size_t queue_capacity)
    : _capacity(queue_capacity > 0 ? queue_capacity : 1)
{
    if (workers < 1)
        workers = 1;
    _threads.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _notEmpty.notify_all();
    _notFull.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _notFull.wait(lock, [this] {
            return _queue.size() < _capacity || _stopping;
        });
        if (_stopping)
            return;
        _queue.push_back(std::move(task));
        ++_inFlight;
    }
    _notEmpty.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _idle.wait(lock, [this] { return _inFlight == 0; });
}

void
ThreadPool::workerLoop(int index)
{
    // Name this thread's trace track. Every pool thread registers once;
    // the entry outlives the thread until a later thread reuses its
    // track id, so the table stays as small as the peak live threads.
    trace::setThreadName("pool-worker-" + std::to_string(index));
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _notEmpty.wait(lock, [this] {
                return !_queue.empty() || _stopping;
            });
            if (_queue.empty())
                return; // stopping and drained
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        _notFull.notify_one();
        task();
        {
            std::unique_lock<std::mutex> lock(_mutex);
            if (--_inFlight == 0)
                _idle.notify_all();
        }
    }
}

void
parallelFor(int jobs, int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (jobs > n)
        jobs = n;
    if (jobs <= 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::once_flag error_once;

    auto drain = [&] {
        // One span per participating worker ("worker" category: the
        // number of these varies with the jobs count by design).
        SIERRA_TRACE_SPAN(span, "worker", "parallel_for.drain",
                          Json());
        for (;;) {
            int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::call_once(error_once, [&] {
                    first_error = std::current_exception();
                });
                // Stop handing out iterations; in-flight ones finish.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    {
        // The calling thread is worker zero; only jobs-1 threads spawn.
        ThreadPool pool(jobs - 1);
        for (int w = 1; w < jobs; ++w)
            pool.submit(drain);
        drain();
        pool.wait();
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sierra::util
