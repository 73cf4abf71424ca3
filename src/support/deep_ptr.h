// DeepPtr<T>: an owning pointer whose copies are deep copies.
// RebindOnCopy<M>: copy operations for structs that point into their own
// DeepPtr-owned blocks.
//
// Pipeline products own their program blocks and AST children through
// DeepPtr. Moving a DeepPtr moves the pointee, so pointers into it
// (CodeUnit::source, DataPlan::block) survive moves of the owner. Copying
// one copies the pointee, so a struct holding such back-pointers would copy
// them still naming the original's blocks; those structs are
// RebindOnCopy<Members>, whose copies repoint them at the copy's own.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace emm {

template <class T>
class DeepPtr {
public:
  DeepPtr() = default;
  DeepPtr(std::nullptr_t) {}
  template <class U>
  DeepPtr(std::unique_ptr<U>&& p) : p_(std::move(p)) {}
  DeepPtr(const DeepPtr& other) : p_(other.p_ ? std::make_unique<T>(*other.p_) : nullptr) {}
  DeepPtr(DeepPtr&&) noexcept = default;
  DeepPtr& operator=(const DeepPtr& other) {
    if (this != &other) p_ = other.p_ ? std::make_unique<T>(*other.p_) : nullptr;
    return *this;
  }
  DeepPtr& operator=(DeepPtr&&) noexcept = default;

  T* get() const { return p_.get(); }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_.get(); }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const DeepPtr& p, std::nullptr_t) { return p.p_ == nullptr; }

private:
  std::unique_ptr<T> p_;
};

/// The aggregate `Members` plus copy operations that keep its back-pointers
/// inside the copy: after copying, `Members::rebindBlocks(original)` repoints
/// every pointer that named one of `original`'s blocks at the copy's own.
/// The field list and the member-count check stay on `Members`; the codec
/// reads and writes a RebindOnCopy as its Members.
template <class M>
struct RebindOnCopy : M {
  using Members = M;

  RebindOnCopy() = default;
  RebindOnCopy(const RebindOnCopy& other) : M(other) { this->rebindBlocks(other); }
  RebindOnCopy(RebindOnCopy&&) = default;
  RebindOnCopy& operator=(const RebindOnCopy& other) {
    M::operator=(other);
    this->rebindBlocks(other);
    return *this;
  }
  RebindOnCopy& operator=(RebindOnCopy&&) = default;
};

}  // namespace emm
