/**
 * @file
 * Record whether a multi-shard test cell ran truly in parallel.
 *
 * Shard-count invariance proven on a host with fewer cores than shards
 * says little about cross-shard races: the threads mostly take turns.
 * The tests still run there (their byte-identity claims hold on any
 * host), but each multi-shard cell records the host's core count
 * against its shard count in the test report and prints a loud notice
 * when the host is oversubscribed.
 */

#ifndef LTP_TESTS_DSM_HOST_PARALLELISM_HH
#define LTP_TESTS_DSM_HOST_PARALLELISM_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

namespace ltp
{

inline void
recordHostParallelism(unsigned shards)
{
    if (shards < 2)
        return;
    // 0 means the standard library could not tell.
    unsigned cores = std::thread::hardware_concurrency();
    bool oversubscribed = cores != 0 && cores < shards;
    ::testing::Test::RecordProperty("hardware_concurrency", int(cores));
    ::testing::Test::RecordProperty(
        "shards_" + std::to_string(shards),
        oversubscribed ? "OVERSUBSCRIBED"
                       : cores == 0 ? "cores unknown" : "parallel");
    if (oversubscribed) {
        std::fprintf(stderr,
                     "*** OVERSUBSCRIBED: %u shards on %u hardware "
                     "threads; this cell did not run truly in "
                     "parallel ***\n",
                     shards, cores);
    }
}

} // namespace ltp

#endif // LTP_TESTS_DSM_HOST_PARALLELISM_HH
