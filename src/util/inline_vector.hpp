// Fixed-capacity vector with inline storage.
//
// The hot paths of the simulator manipulate tiny collections whose size is
// bounded by the node degree (at most 2d packets or arcs per node, d ≤ 8 in
// practice). InlineVector keeps them on the stack with zero allocation.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>

#include "util/check.hpp"

namespace hp {

/// A contiguous sequence with capacity fixed at compile time and size
/// tracked at run time. Supports trivially-destructible and nontrivial T.
/// Exceeding capacity is a checked error (throws hp::CheckError).
template <typename T, std::size_t N>
class InlineVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;

  InlineVector(std::initializer_list<T> items) {
    HP_REQUIRE(items.size() <= N, "InlineVector initializer too long");
    for (const T& item : items) push_back(item);
  }

  InlineVector(const InlineVector& other) {
    for (const T& item : other) push_back(item);
  }

  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      clear();
      for (const T& item : other) push_back(item);
    }
    return *this;
  }

  InlineVector(InlineVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    for (T& item : other) push_back(std::move(item));
    other.clear();
  }

  InlineVector& operator=(InlineVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      for (T& item : other) push_back(std::move(item));
      other.clear();
    }
    return *this;
  }

  ~InlineVector() { clear(); }

  static constexpr std::size_t capacity() { return N; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return reinterpret_cast<T*>(storage_.data()); }
  const T* data() const { return reinterpret_cast<const T*>(storage_.data()); }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  T& operator[](std::size_t i) {
    HP_CHECK(i < size_, "InlineVector index out of range");
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    HP_CHECK(i < size_, "InlineVector index out of range");
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    HP_CHECK(size_ < N, "InlineVector overflow");
    T* slot = data() + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    HP_CHECK(size_ > 0, "pop_back on empty InlineVector");
    --size_;
    data()[size_].~T();
  }

  void clear() {
    while (size_ > 0) pop_back();
  }

  bool contains(const T& value) const {
    return std::find(begin(), end(), value) != end();
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  alignas(T) std::array<std::byte, sizeof(T) * N> storage_;
  std::size_t size_ = 0;
};

}  // namespace hp
