/**
 * @file
 * Index-parallel loop over a few worker threads.
 *
 * parallelFor(n, fn) calls fn(i) once for every i in [0, n), spread
 * over min(n, hardware_concurrency()) threads (the caller is one of
 * them) that take indices from a shared counter, and returns when all
 * calls have finished. Which thread runs which index is unspecified,
 * so callers keep results independent of the worker count: each
 * fn(i) writes only its own slot, and anything order-dependent (rng
 * draws, sums) happens before or after the loop, in index order.
 * If fn throws, no further indices are started and the first
 * exception is rethrown once every thread has joined.
 */

#ifndef SPECEE_UTIL_PARALLEL_HH
#define SPECEE_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <thread>

namespace specee {

/** Run fn(i) for i in [0, n) on up to `workers` threads. */
void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                 unsigned workers = std::thread::hardware_concurrency());

} // namespace specee

#endif // SPECEE_UTIL_PARALLEL_HH
