// PageVec<T> — a minimal vector for trivially copyable elements whose
// backing pages stay untouched until first written.
//
// std::vector cannot express first-touch NUMA placement: resize() value-
// initializes every element on the calling (master) thread, so on a
// first-touch kernel every page of a freshly grown array is homed on the
// master's node no matter which worker later owns it.  PageVec allocates
// raw storage with ::operator new and leaves it uninitialized on request
// (resize_uninitialized), so the *first write* — the neighbor list's
// parallel fill pass, each worker writing its own rows — is what homes each
// page.  Outside that one difference it behaves like a small subset of
// std::vector (push_back, operator[], data, iteration, copy/move).
//
// Only trivially copyable T are supported: growth and copies use memcpy and
// destruction is a free() — which is also what keeps the container honest
// about never touching pages it was not asked to touch.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace mwx {

template <typename T>
class PageVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "PageVec supports trivially copyable element types only");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  PageVec() = default;
  // Value-initialized construction (std::vector semantics; touches pages).
  explicit PageVec(std::size_t n) { resize(n); }

  PageVec(const PageVec& o) {
    reserve(o.size_);
    if (o.size_ > 0) std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }
  PageVec& operator=(const PageVec& o) {
    if (this != &o) {
      PageVec tmp(o);
      swap(tmp);
    }
    return *this;
  }
  PageVec(PageVec&& o) noexcept { swap(o); }
  PageVec& operator=(PageVec&& o) noexcept {
    swap(o);
    return *this;
  }
  ~PageVec() { ::operator delete(static_cast<void*>(data_)); }

  void swap(PageVec& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }

  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  // Views/copies for std-container consumers.
  operator std::span<T>() { return {data_, size_}; }                    // NOLINT
  operator std::span<const T>() const { return {data_, size_}; }       // NOLINT
  operator std::vector<T>() const { return {begin(), end()}; }         // NOLINT

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    T* fresh = static_cast<T*>(::operator new(n * sizeof(T)));
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    ::operator delete(static_cast<void*>(data_));
    data_ = fresh;
    cap_ = n;
  }

  // Drops the contents and makes room for n elements.  Unlike reserve() it
  // copies nothing and frees the old block before allocating the new one, so
  // a grown array whose old contents are dead never holds both blocks.
  void discard_and_reserve(std::size_t n) {
    size_ = 0;
    if (n <= cap_) return;
    ::operator delete(static_cast<void*>(data_));
    data_ = nullptr;
    cap_ = 0;
    data_ = static_cast<T*>(::operator new(n * sizeof(T)));
    cap_ = n;
  }

  // Grows (or shrinks) to n elements without writing the new tail: the pages
  // behind [old_size, n) stay untouched until a caller stores into them.
  void resize_uninitialized(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  // std::vector-style resize: new elements are value-initialized (touched
  // here, on the calling thread).
  void resize(std::size_t n) {
    const std::size_t old = size_;
    resize_uninitialized(n);
    if (n > old) std::memset(static_cast<void*>(data_ + old), 0, (n - old) * sizeof(T));
  }

  void push_back(const T& v) {
    if (size_ == cap_) reserve(cap_ == 0 ? 16 : cap_ * 2);
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace mwx
