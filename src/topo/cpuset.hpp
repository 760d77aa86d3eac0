// A set of logical processors (PUs), the currency of affinity control.
//
// Mirrors the role of Linux cpu_set_t / hwloc bitmaps: affinity masks handed
// to the native pinning layer (mwx::parallel::pin_current_thread) and to the
// simulator's OS-scheduler model are both CpuSets.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/require.hpp"

namespace mwx::topo {

class CpuSet {
 public:
  static constexpr int kMaxPus = 256;

  constexpr CpuSet() = default;

  static CpuSet all(int n_pus) {
    CpuSet s;
    for (int i = 0; i < n_pus; ++i) s.set(i);
    return s;
  }

  static CpuSet of(std::initializer_list<int> pus) {
    CpuSet s;
    for (int p : pus) s.set(p);
    return s;
  }

  static CpuSet range(int first, int last_exclusive) {
    CpuSet s;
    for (int i = first; i < last_exclusive; ++i) s.set(i);
    return s;
  }

  void set(int pu) { words_[checked_word(pu)] |= (1ULL << (pu % 64)); }

  void clear(int pu) { words_[checked_word(pu)] &= ~(1ULL << (pu % 64)); }

  [[nodiscard]] constexpr bool test(int pu) const {
    return pu >= 0 && pu < kMaxPus && (words_[pu / 64] >> (pu % 64)) & 1ULL;
  }

  [[nodiscard]] constexpr bool empty() const {
    for (auto w : words_)
      if (w) return false;
    return true;
  }

  [[nodiscard]] constexpr int count() const {
    int n = 0;
    for (auto w : words_) n += __builtin_popcountll(w);
    return n;
  }

  // Lowest set PU, or -1 if empty.
  [[nodiscard]] constexpr int first() const {
    for (int i = 0; i < kMaxPus / 64; ++i) {
      if (words_[i]) return i * 64 + __builtin_ctzll(words_[i]);
    }
    return -1;
  }

  // Next set PU strictly greater than `pu`, or -1.
  [[nodiscard]] constexpr int next(int pu) const {
    for (int i = pu + 1; i < kMaxPus; ++i) {
      if (test(i)) return i;
    }
    return -1;
  }

  [[nodiscard]] CpuSet operator&(const CpuSet& o) const {
    CpuSet r;
    for (int i = 0; i < kMaxPus / 64; ++i) r.words_[i] = words_[i] & o.words_[i];
    return r;
  }

  [[nodiscard]] CpuSet operator|(const CpuSet& o) const {
    CpuSet r;
    for (int i = 0; i < kMaxPus / 64; ++i) r.words_[i] = words_[i] | o.words_[i];
    return r;
  }

  [[nodiscard]] bool operator==(const CpuSet& o) const {
    for (int i = 0; i < kMaxPus / 64; ++i)
      if (words_[i] != o.words_[i]) return false;
    return true;
  }

  // Human-readable "0-3,8,10" style list.
  [[nodiscard]] std::string to_string() const;

 private:
  // The word holding `pu`.  The failure path is a [[noreturn]] call so that
  // GCC sees an inlined set/clear never store with `pu` out of range
  // (-Warray-bounds).
  static int checked_word(int pu) {
    if (pu < 0 || pu >= kMaxPus) out_of_range(pu);
    return pu / 64;
  }
  [[noreturn]] static void out_of_range(int pu);

  std::uint64_t words_[kMaxPus / 64] = {};
};

}  // namespace mwx::topo
