/**
 * @file
 * parallelFor tests: every index runs exactly once, at any worker
 * count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/parallel.hh"

using namespace specee;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (size_t n : {0u, 1u, 3u, 97u}) {
        for (unsigned workers = 1; workers <= 8; ++workers) {
            std::vector<std::atomic<int>> visits(n);
            parallelFor(
                n, [&](size_t i) { visits[i].fetch_add(1); }, workers);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(visits[i].load(), 1)
                    << "n=" << n << " workers=" << workers << " i=" << i;
        }
    }
}

TEST(ParallelFor, DefaultWorkerCountVisitsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> visits(1000);
    parallelFor(visits.size(), [&](size_t i) { visits[i].fetch_add(1); });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, RethrowsAfterJoiningEveryWorker)
{
    std::atomic<int> running{0};
    EXPECT_THROW(parallelFor(
                     64,
                     [&](size_t i) {
                         ++running;
                         if (i == 5)
                             throw std::runtime_error("item 5");
                         --running;
                     },
                     4),
                 std::runtime_error);
    EXPECT_EQ(running.load(), 1); // only the throwing call never finished
}
