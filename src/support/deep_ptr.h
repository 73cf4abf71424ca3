// DeepPtr<T>: an owning pointer with value semantics, shared copy-on-write.
// RebindOnCopy<M>: copy operations for structs that point into their own
// DeepPtr-owned blocks.
//
// Pipeline products own their program blocks and AST children through
// DeepPtr. A copy of a DeepPtr shares its pointee, which stays immutable
// while shared: every read goes through a const path (get(), *, ->), and
// the one write path, mut(), first detaches a private copy when another
// handle shares the pointee. So a copy behaves as a deep copy and costs a
// reference count, and copying a whole compile result shares its blocks
// and AST instead of rebuilding them.
//
// Moving a DeepPtr moves the handle, so pointers into the pointee
// (CodeUnit::source, DataPlan::block) survive moves of the owner. A copy
// shares the pointee, so such back-pointers name the copy's own blocks too;
// but a detach moves the written pointee to a new address, so whoever
// detaches a block must repoint the back-pointers that named it. The
// structs holding such back-pointers are RebindOnCopy<Members>: copies run
// Members::rebindBlocks(original), and a writer that detaches one of their
// blocks runs the same hook.
//
// The reference count is atomic: handles sharing one pointee may be copied,
// read and destroyed on different threads. One handle object is not
// synchronized, like any value.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

namespace emm {

template <class T>
class DeepPtr {
public:
  using element_type = T;

  DeepPtr() = default;
  DeepPtr(std::nullptr_t) {}
  DeepPtr(const DeepPtr& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  DeepPtr(DeepPtr&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  DeepPtr& operator=(const DeepPtr& other) noexcept {
    DeepPtr(other).swap(*this);
    return *this;
  }
  DeepPtr& operator=(DeepPtr&& other) noexcept {
    DeepPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~DeepPtr() { release(); }

  /// A handle owning a new T built from `args`.
  template <class... Args>
  static DeepPtr make(Args&&... args) {
    DeepPtr p;
    p.node_ = new Node(std::forward<Args>(args)...);
    return p;
  }

  const T* get() const { return node_ != nullptr ? &node_->value : nullptr; }
  const T& operator*() const { return node_->value; }
  const T* operator->() const { return get(); }
  explicit operator bool() const { return node_ != nullptr; }
  friend bool operator==(const DeepPtr& p, std::nullptr_t) { return p.node_ == nullptr; }

  /// Write access. Detaches first when another handle shares the pointee,
  /// so the write reaches this handle's copy alone; the returned reference
  /// is this handle's until it is next copied. Requires a non-null handle.
  T& mut() {
    if (node_->refs.load(std::memory_order_acquire) != 1) {
      Node* own = new Node(std::as_const(node_->value));
      release();
      node_ = own;
    }
    return node_->value;
  }

private:
  struct Node {
    template <class... Args>
    explicit Node(Args&&... args) : value(std::forward<Args>(args)...) {}
    std::atomic<long> refs{1};
    T value;
  };

  void swap(DeepPtr& other) noexcept { std::swap(node_, other.node_); }

  void release() noexcept {
    if (node_ != nullptr && node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete node_;
    node_ = nullptr;
  }

  Node* node_ = nullptr;
};

/// A T held through a DeepPtr that is never null to its readers: the
/// copy-on-write form of a plain value member. It reads as a const T (`*c`,
/// and a container's const members are forwarded, so `c.size()`, `c[i]` and
/// range-for read through); writes go through mut(). An empty handle
/// (default or moved-from) reads as a default T and allocates on its first
/// write. The codec reads and writes a Cow<T> as T, so moving a member
/// behind one changes no byte.
template <class T>
class Cow {
public:
  using element_type = T;

  Cow() = default;
  Cow(T value) : p_(DeepPtr<T>::make(std::move(value))) {}

  const T& operator*() const { return p_ ? *p_ : defaultValue(); }
  const T* get() const { return &**this; }

  auto begin() const { return (**this).begin(); }
  auto end() const { return (**this).end(); }
  auto size() const { return (**this).size(); }
  bool empty() const { return (**this).empty(); }
  decltype(auto) operator[](std::size_t i) const { return (**this)[i]; }

  /// Write access, detaching first as DeepPtr::mut does.
  T& mut() {
    if (!p_) p_ = DeepPtr<T>::make();
    return p_.mut();
  }

private:
  static const T& defaultValue() {
    static const T value{};
    return value;
  }

  DeepPtr<T> p_;
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
