// Deterministic chunked fan-out — the dispatch primitive of the parallel
// rebuild pipeline (cell binning, CSR prefix scan, Morton radix sort, scene
// serialization).
//
// Splits [0, n) into `n_chunks` index-contiguous ranges with the same
// (n * k) / C arithmetic the engine's task decomposition uses, and runs
// body(chunk, begin, end) for every chunk — on `pool` when one is given,
// inline otherwise.  Completion is tracked through a JobHandle, so the
// barrier is shared-pool safe (other tenants' traffic is neither waited on
// nor able to starve it) and a throwing chunk surfaces as ContractError here
// instead of hanging the wait.
//
// The contract callers must honour: the algorithm's OUTPUT must not depend
// on the chunk count.  Every rebuild-pipeline user satisfies it by
// construction — stable counting sort (chunk-major order within a cell is
// ascending-index order), exact integer block scans, stable LSD radix, and
// range-concatenated text formatting are all chunk-count-invariant — which is
// what makes "bit-identical across 1/2/4/8 threads" a theorem rather than a
// test-only observation.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::parallel {

template <typename Body>
void for_chunks(FixedThreadPool* pool, int n_chunks, long long n, Body&& body) {
  if (n <= 0) return;
  const int chunks = static_cast<int>(
      std::max(1ll, std::min(static_cast<long long>(std::max(1, n_chunks)), n)));
  if (pool == nullptr || chunks == 1) {
    for (int c = 0; c < chunks; ++c) {
      body(c, n * c / chunks, n * (c + 1) / chunks);
    }
    return;
  }
  JobHandle job;
  const int workers = pool->n_threads();
  for (int c = 0; c < chunks; ++c) {
    const long long begin = n * c / chunks;
    const long long end = n * (c + 1) / chunks;
    pool->submit_to(c % workers, [&body, c, begin, end] { body(c, begin, end); }, job);
  }
  job.wait();
  // The message is built only on failure: this runs on every rebuild pass.
  if (!job.ok()) {
    require(false, "chunked rebuild task failed: " + job.error());
  }
}

}  // namespace mwx::parallel
