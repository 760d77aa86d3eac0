// Content-hash scene cache — dedup of identical submitted scenes.
//
// Traffic against a simulation service is heavily repetitive: many clients
// resubmit the same scene (parameter sweeps, retries, shared templates).
// scene_io's .mws output is byte-stable — the same MolecularSystem always
// serializes to the same bytes — so the scene *text* is a sound dedup key:
// hash the bytes (FNV-1a 64), parse once per distinct content, and hand
// every subsequent submission a shared pointer to the same immutable parsed
// system.  Jobs copy the system into their Engine (the engine integrates in
// place), so cached entries are never mutated.
//
// Collisions are handled, not assumed away: an entry stores the full text
// and a hash hit with different bytes is treated as a miss (parsed fresh,
// not cached — a 2^-64 event not worth a chained map).
//
// Stats discipline: hit/miss is resolved where the outcome is *known* — a
// concurrent loader that finds a racer already inserted its entry counts a
// hit (the cache served the parse, even if this thread wasted one), and only
// a genuine collision or a fresh insert counts a miss.  Eviction is O(1) via
// an intrusive LRU list (the cache sits on the serve dispatch hot path).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "md/system.hpp"

namespace mwx::md {
class Engine;
}  // namespace mwx::md

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::serve {

// Serializes `sys` to its canonical .mws text (the cache key form).  With a
// pool, the per-atom records are formatted through scene_io's chunked
// serializer, one chunk per pool worker; the text (and hence content_hash)
// is byte-identical either way, and at 100k+ atoms the serialization stops
// being a serve-dispatch stall.
[[nodiscard]] std::string scene_text(const md::MolecularSystem& sys,
                                     parallel::FixedThreadPool* pool = nullptr);

// Serializes a running engine's full continuation state to "mws 2"
// checkpoint text: scene + accelerations + the neighbor list's
// reference-position snapshot.  Restoring (load_scene with an nref receiver
// + Engine::restore_continuation) resumes the trajectory bit-exactly.  This
// is the export/import path for a job leaving the process; the scheduler's
// own preemption parks the live engine instead.  Pool as for scene_text.
[[nodiscard]] std::string checkpoint_text(const md::Engine& engine,
                                          parallel::FixedThreadPool* pool = nullptr);

class SceneCache {
 public:
  // `max_entries` bounds the cache; the least-recently-used entry is evicted
  // (0 disables caching entirely — every load parses).
  explicit SceneCache(std::size_t max_entries = 64) : max_entries_(max_entries) {}

  SceneCache(const SceneCache&) = delete;
  SceneCache& operator=(const SceneCache&) = delete;

  // Returns the parsed system for this scene text, parsing at most once per
  // distinct content (thread-safe; concurrent first loads of the same text
  // may both parse, first insert wins — wasted work, never wrong results).
  // Throws ContractError on malformed scene text.
  std::shared_ptr<const md::MolecularSystem> load(const std::string& text);

  // FNV-1a 64-bit over the scene bytes.
  [[nodiscard]] static std::uint64_t content_hash(const std::string& text);

  [[nodiscard]] long long hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] long long misses() const { return misses_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t size() const;

  // Test hook: runs after a miss's parse, before the insert re-locks — the
  // window a concurrent loader can win.  Tests use it to exercise the
  // racer-beat-us path deterministically.
  void set_parse_hook(std::function<void()> hook);

 private:
  struct Entry {
    std::string text;  // full content, for collision verification
    std::shared_ptr<const md::MolecularSystem> system;
    std::list<std::uint64_t>::iterator lru_it;  // position in lru_
  };

  std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recent, back = eviction victim
  std::function<void()> parse_hook_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace mwx::serve
