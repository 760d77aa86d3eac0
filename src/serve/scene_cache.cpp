#include "serve/scene_cache.hpp"

#include <utility>

#include "md/engine.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::serve {

std::string scene_text(const md::MolecularSystem& sys, parallel::FixedThreadPool* pool) {
  return md::format_scene(sys, pool, pool != nullptr ? pool->n_threads() : 1);
}

std::string checkpoint_text(const md::Engine& engine, parallel::FixedThreadPool* pool) {
  return md::format_checkpoint(engine.system(), engine.neighbor_list().reference_positions(),
                               pool, pool != nullptr ? pool->n_threads() : 1);
}

std::uint64_t SceneCache::content_hash(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : text) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::size_t SceneCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void SceneCache::set_parse_hook(std::function<void()> hook) {
  std::lock_guard lock(mutex_);
  parse_hook_ = std::move(hook);
}

std::shared_ptr<const md::MolecularSystem> SceneCache::load(const std::string& text) {
  const std::uint64_t key = content_hash(text);
  std::function<void()> hook;
  {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.text == text) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.system;
    }
    hook = parse_hook_;
  }

  // Probable miss (or collision): parse outside the lock so a slow parse of
  // one scene never serializes hits on others.  The hit/miss verdict waits
  // for the re-lock — a concurrent loader may insert this exact content
  // while we parse, and that outcome is a hit (the cache served the request;
  // this thread's parse was wasted work, not a cache miss).
  if (hook) hook();
  auto system = std::make_shared<const md::MolecularSystem>(md::load_scene(text));

  std::lock_guard lock(mutex_);
  if (max_entries_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return system;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.text == text) {  // racer beat us: the cache resolved it
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.system;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return system;  // genuine collision: serve uncached
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (entries_.size() >= max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{text, system, lru_.begin()});
  return system;
}

}  // namespace mwx::serve
