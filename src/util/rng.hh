/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator draw from an explicitly
 * seeded Rng so every test and benchmark is bit-reproducible. The
 * generator is xoshiro256**, seeded through SplitMix64.
 */

#ifndef SPECEE_UTIL_RNG_HH
#define SPECEE_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specee {

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Streams can be forked with fork() to give independent substreams
 * to different components without coupling their draw sequences.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). @pre lo <= hi */
    int uniformInt(int lo, int hi);

    /** Standard normal via Box-Muller (mean/sd parameterized). */
    double normal(double mean = 0.0, double sd = 1.0);

    /**
     * Advance the generator exactly as n normal() calls would, spare
     * included, without the transcendental math for all but the last
     * pair. Lets a caller checkpoint a normal() stream every k draws
     * and replay the pieces from their checkpoints in parallel.
     */
    void skipNormals(size_t n);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized weight vector.
     * @pre weights not all zero.
     */
    size_t categorical(const std::vector<float> &weights);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(next() % i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent generator for substream `stream`. */
    Rng fork(uint64_t stream) const;

    /** Same state: equal generators produce equal draws forever. */
    bool operator==(const Rng &) const = default;

  private:
    /** Box-Muller's first uniform: redrawn until it is above 1e-300. */
    double uniformPositive();

    uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with exponent s,
 * implemented by inverse-CDF binary search (O(log n) per sample).
 */
class ZipfSampler
{
  public:
    ZipfSampler(size_t n, double s);

    /** Draw one index. */
    size_t sample(Rng &rng) const;

    /** Probability mass of index i. */
    double pmf(size_t i) const;

    size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace specee

#endif // SPECEE_UTIL_RNG_HH
