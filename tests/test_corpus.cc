/**
 * @file
 * Synthetic corpus tests: exact probabilities, top-k consistency,
 * sampling distributions, determinism across instances.
 */

#include <gtest/gtest.h>

#include <map>

#include "oracle/corpus.hh"

using namespace specee;
using namespace specee::oracle;

TEST(Corpus, ProbabilitiesSumToOne)
{
    SyntheticCorpus c(512, 1);
    for (int prev : {0, 7, 100, 511}) {
        double total = 0.0;
        for (int t = 0; t < 512; ++t)
            total += c.prob(prev, t);
        EXPECT_NEAR(total, 1.0, 1e-6) << "prev " << prev;
    }
}

TEST(Corpus, CandidatesAreDistinct)
{
    SyntheticCorpus c(512, 2);
    for (int prev : {3, 99, 255}) {
        auto cand = c.candidates(prev);
        std::sort(cand.begin(), cand.end());
        EXPECT_EQ(std::unique(cand.begin(), cand.end()), cand.end())
            << "prev " << prev;
    }
}

TEST(Corpus, TopNextIsSortedAndConsistentWithProb)
{
    SyntheticCorpus c(512, 3);
    auto top = c.topNext(42, 8);
    ASSERT_EQ(top.size(), 8u);
    for (size_t i = 0; i + 1 < top.size(); ++i)
        EXPECT_GE(top[i].second, top[i + 1].second);
    for (const auto &[tok, p] : top)
        EXPECT_NEAR(p, c.prob(42, tok), 1e-9);
}

TEST(Corpus, TopNextReallyIsTheTop)
{
    SyntheticCorpus c(256, 4);
    auto top = c.topNext(10, 4);
    const double p4 = top.back().second;
    // No token outside the returned set may beat the last entry.
    for (int t = 0; t < 256; ++t) {
        bool in_top = false;
        for (const auto &[tok, p] : top)
            in_top |= tok == t;
        if (!in_top) {
            EXPECT_LE(c.prob(10, t), p4 + 1e-9) << "token " << t;
        }
    }
}

TEST(Corpus, SampleNextMatchesProb)
{
    SyntheticCorpus c(128, 5);
    Rng rng(6);
    const int prev = 17;
    std::map<int, int> counts;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[c.sampleNext(prev, rng)];
    auto top = c.topNext(prev, 3);
    for (const auto &[tok, p] : top) {
        EXPECT_NEAR(counts[tok] / static_cast<double>(n), p, 0.02)
            << "token " << tok;
    }
}

TEST(Corpus, PeakMassDominatesContinuations)
{
    SyntheticCorpus c(4096, 7);
    // The top continuation of any context should be much more likely
    // than a random background token.
    auto top = c.topNext(1234, 1);
    EXPECT_GT(top[0].second, 0.1);
}

TEST(Corpus, DeterministicAcrossInstances)
{
    SyntheticCorpus a(512, 8), b(512, 8);
    Rng ra(9), rb(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.sampleNext(i % 512, ra), b.sampleNext(i % 512, rb));
}

TEST(Corpus, DifferentSeedsGiveDifferentLanguages)
{
    SyntheticCorpus a(512, 10), b(512, 11);
    int same = 0;
    for (int prev = 0; prev < 50; ++prev) {
        if (a.topNext(prev, 1)[0].first == b.topNext(prev, 1)[0].first)
            ++same;
    }
    EXPECT_LT(same, 10);
}

TEST(Corpus, SampleSequenceHasRequestedLength)
{
    SyntheticCorpus c(512, 12);
    Rng rng(13);
    auto seq = c.sampleSequence(37, rng);
    EXPECT_EQ(seq.size(), 37u);
    for (int t : seq) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, 512);
    }
}
