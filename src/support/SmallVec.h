//===- support/SmallVec.h - Inline-storage vector ---------------*- C++ -*-===//
///
/// \file
/// A vector with inline storage for the first \p InlineCap elements,
/// spilling to the current Arena (support/Arena.h) when one is active and
/// to the global heap otherwise. The decomposition framework's vectors and
/// matrices have dimension <= ~8, so a modest inline buffer makes the
/// steady-state hot path allocation-free; spills are the exception and are
/// both counted (containerHeapSpills) and fault-injectable via the
/// \p GrowthHook template parameter.
///
/// Arena-backed storage is reclaimed wholesale when the founding ArenaScope
/// ends: a SmallVec must not outlive the innermost scope that was active
/// when it last grew. Inline-only containers (the common case) have no such
/// restriction.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_SMALLVEC_H
#define ALP_SUPPORT_SMALLVEC_H

#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace alp {

namespace detail {
/// The default growth hook: a no-op that inlines away, so containers
/// without fault injection pay nothing on growth.
inline void noGrowthHook() {}
} // namespace detail

/// Inline-storage vector. \p GrowthHook runs at the top of every growth
/// beyond the current capacity — before any state changes, so a throwing
/// hook (fault injection) leaves the container intact. The hook is fixed
/// at compile time; it is called unconditionally rather than compared
/// with null, which GCC 12 rejects as a constant expression under
/// -fsanitize=undefined.
template <typename T, unsigned InlineCap,
          void (*GrowthHook)() = &detail::noGrowthHook>
class SmallVec {
  static_assert(InlineCap > 0, "SmallVec needs inline capacity");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVec() = default;
  explicit SmallVec(uint32_t N) { resize(N); }
  SmallVec(uint32_t N, const T &V) { resize(N, V); }
  SmallVec(std::initializer_list<T> Init) {
    reserve(Init.size());
    for (const T &V : Init)
      ::new (static_cast<void *>(data() + Sz++)) T(V);
  }
  SmallVec(const SmallVec &O) {
    reserve(O.Sz);
    copyAppend(O.data(), O.Sz);
  }
  SmallVec(SmallVec &&O) noexcept { stealFrom(O); }
  ~SmallVec() {
    destroyAll();
    releaseStorage();
  }

  SmallVec &operator=(const SmallVec &O) {
    if (this == &O)
      return *this;
    destroyAll();
    Sz = 0;
    reserve(O.Sz);
    copyAppend(O.data(), O.Sz);
    return *this;
  }
  SmallVec &operator=(SmallVec &&O) noexcept {
    if (this == &O)
      return *this;
    destroyAll();
    releaseStorage();
    Cap = InlineCap;
    Loc = Location::Inline;
    Ptr = nullptr;
    stealFrom(O);
    return *this;
  }

  uint32_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }
  uint32_t capacity() const { return Cap; }

  T *data() {
    return Loc == Location::Inline ? reinterpret_cast<T *>(Buf) : Ptr;
  }
  const T *data() const {
    return Loc == Location::Inline ? reinterpret_cast<const T *>(Buf) : Ptr;
  }

  iterator begin() { return data(); }
  iterator end() { return data() + Sz; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Sz; }

  T &operator[](uint32_t I) {
    assert(I < Sz && "SmallVec index out of range");
    return data()[I];
  }
  const T &operator[](uint32_t I) const {
    assert(I < Sz && "SmallVec index out of range");
    return data()[I];
  }

  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[Sz - 1]; }
  const T &back() const { return (*this)[Sz - 1]; }

  void reserve(size_t NewCap) {
    if (NewCap > Cap)
      grow(NewCap);
  }

  void push_back(const T &V) {
    if (Sz == Cap) {
      // V may alias our own storage; materialize before relocating.
      T Tmp(V);
      grow(size_t(Sz) + 1);
      ::new (static_cast<void *>(data() + Sz)) T(std::move(Tmp));
    } else {
      ::new (static_cast<void *>(data() + Sz)) T(V);
    }
    ++Sz;
  }

  void push_back(T &&V) {
    if (Sz == Cap) {
      T Tmp(std::move(V));
      grow(size_t(Sz) + 1);
      ::new (static_cast<void *>(data() + Sz)) T(std::move(Tmp));
    } else {
      ::new (static_cast<void *>(data() + Sz)) T(std::move(V));
    }
    ++Sz;
  }

  template <typename... Args> T &emplace_back(Args &&...A) {
    if (Sz == Cap)
      grow(size_t(Sz) + 1);
    T *P = ::new (static_cast<void *>(data() + Sz)) T(std::forward<Args>(A)...);
    ++Sz;
    return *P;
  }

  void pop_back() {
    assert(Sz && "pop_back on empty SmallVec");
    data()[--Sz].~T();
  }

  void resize(size_t N) {
    if (N < Sz) {
      shrinkTo(N);
      return;
    }
    reserve(N);
    while (Sz < N)
      ::new (static_cast<void *>(data() + Sz++)) T();
  }

  void resize(size_t N, const T &V) {
    if (N < Sz) {
      shrinkTo(N);
      return;
    }
    reserve(N);
    while (Sz < N)
      ::new (static_cast<void *>(data() + Sz++)) T(V);
  }

  void clear() {
    destroyAll();
    Sz = 0;
  }

  bool operator==(const SmallVec &O) const {
    if (Sz != O.Sz)
      return false;
    for (uint32_t I = 0; I != Sz; ++I)
      if (!(data()[I] == O.data()[I]))
        return false;
    return true;
  }
  bool operator!=(const SmallVec &O) const { return !(*this == O); }

private:
  enum class Location : uint8_t { Inline, Heap, ArenaMem };

  void copyAppend(const T *Src, uint32_t N) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (N)
        std::memcpy(data() + Sz, Src, size_t(N) * sizeof(T));
      Sz += N;
    } else {
      for (uint32_t I = 0; I != N; ++I)
        ::new (static_cast<void *>(data() + Sz++)) T(Src[I]);
    }
  }

  /// Takes over \p O's elements; assumes *this is empty with inline storage.
  void stealFrom(SmallVec &O) noexcept {
    if (O.Loc == Location::Inline) {
      if constexpr (std::is_trivially_copyable_v<T>) {
        if (O.Sz)
          std::memcpy(Buf, O.Buf, size_t(O.Sz) * sizeof(T));
        Sz = O.Sz;
      } else {
        for (uint32_t I = 0; I != O.Sz; ++I) {
          ::new (static_cast<void *>(data() + I)) T(std::move(O.data()[I]));
          O.data()[I].~T();
        }
        Sz = O.Sz;
      }
      O.Sz = 0;
      return;
    }
    Ptr = O.Ptr;
    Cap = O.Cap;
    Sz = O.Sz;
    Loc = O.Loc;
    O.Ptr = nullptr;
    O.Cap = InlineCap;
    O.Sz = 0;
    O.Loc = Location::Inline;
  }

  void destroyAll() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      T *P = data();
      for (uint32_t I = 0; I != Sz; ++I)
        P[I].~T();
    }
  }

  void releaseStorage() {
    if (Loc == Location::Heap)
      ::operator delete(Ptr);
    // Arena storage is reclaimed by the founding ArenaScope's rewind.
  }

  void grow(size_t MinCap) {
    size_t NewCap = size_t(Cap) * 2;
    if (NewCap < MinCap)
      NewCap = MinCap;
    assert(NewCap <= UINT32_MAX && "SmallVec capacity overflow");
    GrowthHook(); // May throw (fault injection): nothing mutated yet.
    T *NewPtr;
    Location NewLoc;
    if (Arena *A = Arena::current()) {
      NewPtr = static_cast<T *>(A->allocate(NewCap * sizeof(T), alignof(T)));
      NewLoc = Location::ArenaMem;
    } else {
      NewPtr = static_cast<T *>(::operator new(NewCap * sizeof(T)));
      detail::noteContainerHeapSpill();
      NewLoc = Location::Heap;
    }
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (Sz)
        std::memcpy(NewPtr, data(), size_t(Sz) * sizeof(T));
    } else {
      T *Old = data();
      for (uint32_t I = 0; I != Sz; ++I) {
        ::new (static_cast<void *>(NewPtr + I)) T(std::move(Old[I]));
        Old[I].~T();
      }
    }
    releaseStorage();
    Ptr = NewPtr;
    Cap = static_cast<uint32_t>(NewCap);
    Loc = NewLoc;
  }

  void shrinkTo(size_t N) {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      T *P = data();
      while (Sz > N)
        P[--Sz].~T();
    } else {
      Sz = static_cast<uint32_t>(N);
    }
  }

  uint32_t Sz = 0;
  uint32_t Cap = InlineCap;
  Location Loc = Location::Inline;
  T *Ptr = nullptr; // Heap or arena storage; unused while inline.
  alignas(T) unsigned char Buf[size_t(InlineCap) * sizeof(T)];
};

} // namespace alp

#endif // ALP_SUPPORT_SMALLVEC_H
