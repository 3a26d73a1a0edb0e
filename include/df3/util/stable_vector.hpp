#pragma once
/// \file stable_vector.hpp
/// \brief Append-only sequence whose elements never move.
///
/// `StableVector<T>` keeps its elements back to back in a few segments. A
/// full segment is never reallocated: the next append opens a new one, so a
/// pointer or reference to an element stays valid for the container's
/// life. `reserve(n)` ahead of n appends puts them all in one segment;
/// without it, segments double from four elements. Elements need not be
/// movable or copyable.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace df3::util {

template <class T>
class StableVector {
  struct Segment {
    T* data;
    std::uint32_t size;
    std::uint32_t cap;
  };

  template <bool Const>
  class Iter {
    using Seg = std::conditional_t<Const, const Segment, Segment>;

   public:
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;

    Iter() = default;
    Iter(Seg* seg, Seg* end) : seg_(seg), end_(end) { skip_full(); }
    reference operator*() const { return seg_->data[j_]; }
    pointer operator->() const { return seg_->data + j_; }
    Iter& operator++() {
      if (++j_ == seg_->size) skip_full();
      return *this;
    }
    bool operator==(const Iter& o) const { return seg_ == o.seg_ && j_ == o.j_; }

   private:
    /// Steps past exhausted segments, so end() is {end, 0}.
    void skip_full() {
      while (seg_ != end_ && j_ == seg_->size) {
        ++seg_;
        j_ = 0;
      }
    }
    Seg* seg_ = nullptr;
    Seg* end_ = nullptr;
    std::uint32_t j_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  StableVector() = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  ~StableVector() {
    std::allocator<T> alloc;
    for (const Segment& s : segments_) {
      std::destroy_n(s.data, s.size);
      alloc.deallocate(s.data, s.cap);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Makes room for `n` elements in all; a shortfall becomes one segment.
  void reserve(std::size_t n) {
    if (n > capacity_) add_segment(n - capacity_);
  }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) add_segment(std::max<std::size_t>(4, capacity_));
    while (segments_[fill_].size == segments_[fill_].cap) ++fill_;
    Segment& s = segments_[fill_];
    T* const slot = std::construct_at(s.data + s.size, std::forward<Args>(args)...);
    ++s.size;
    ++size_;
    if (fill_ == 0) head_size_ = s.size;
    return *slot;
  }

  T& operator[](std::size_t i) { return i < head_size_ ? head_[i] : element(i); }
  const T& operator[](std::size_t i) const { return i < head_size_ ? head_[i] : element(i); }
  T& at(std::size_t i) { return (*this)[checked(i)]; }
  const T& at(std::size_t i) const { return (*this)[checked(i)]; }

  iterator begin() { return {segments_.data(), segments_.data() + segments_.size()}; }
  iterator end() {
    return {segments_.data() + segments_.size(), segments_.data() + segments_.size()};
  }
  const_iterator begin() const {
    return {segments_.data(), segments_.data() + segments_.size()};
  }
  const_iterator end() const {
    return {segments_.data() + segments_.size(), segments_.data() + segments_.size()};
  }

 private:
  T& element(std::size_t i) const {
    for (const Segment& s : segments_) {
      if (i < s.size) return s.data[i];
      i -= s.size;
    }
    return segments_.back().data[i];  // unreachable for i < size()
  }
  std::size_t checked(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("StableVector::at");
    return i;
  }
  void add_segment(std::size_t cap) {
    segments_.reserve(segments_.size() + 1);  // so the push below cannot throw
    segments_.push_back({std::allocator<T>().allocate(cap), 0, static_cast<std::uint32_t>(cap)});
    if (segments_.size() == 1) head_ = segments_[0].data;
    capacity_ += cap;
  }

  std::vector<Segment> segments_;
  /// The first segment again, so indexing it skips the segment walk.
  T* head_ = nullptr;
  std::size_t head_size_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t fill_ = 0;  ///< the first segment with room; those before it are full
};

}  // namespace df3::util
