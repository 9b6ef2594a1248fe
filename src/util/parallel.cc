#include "util/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace specee {

void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            unsigned workers)
{
    const size_t threads = std::min<size_t>(n, std::max(1u, workers));
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::mutex errorMu;
    std::exception_ptr error; ///< first exception fn threw; guarded
    const auto work = [&] {
        try {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            next = n; // hand out no more indices
            std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
        }
    };
    // Workers start together once all are spawned. A new thread often
    // first runs on its parent's CPU; working there would hold the
    // parent off its next spawn for a scheduler tick (~4 ms) per thread.
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (size_t t = 1; t < threads; ++t) {
        try {
            pool.emplace_back([&] {
                go.wait(false);
                work();
            });
        } catch (const std::system_error &) {
            break; // out of threads: the ones spawned do all the work
        }
    }
    go = true;
    go.notify_all();
    work();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace specee
