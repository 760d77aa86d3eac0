// Deterministic chunked fan-out — the dispatch primitive of the parallel
// rebuild pipeline (cell binning, CSR prefix scan, Morton radix sort, scene
// serialization).
//
// Splits [0, n) into `n_chunks` index-contiguous ranges with the same
// (n * k) / C arithmetic the engine's task decomposition uses, and runs
// body(chunk, begin, end) for every chunk — as one FixedThreadPool::run_phase
// when a pool is given (chunk c is item c, so PerThread runs it on worker
// c % pool width), inline otherwise.  The phase barrier is shared-pool safe
// (other tenants' traffic is neither waited on nor able to starve it) and a
// throwing chunk surfaces as ContractError here instead of hanging the wait.
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
  pool->run_phase(chunks, [&](int c) { body(c, n * c / chunks, n * (c + 1) / chunks); });
}

}  // namespace mwx::parallel
