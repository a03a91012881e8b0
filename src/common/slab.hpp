// Pooled objects with intrusive, non-atomic reference counts.
//
// A Slab<T> hands out Slab<T>::Ref handles to T objects carved from
// fixed-size chunks. Copying a Ref bumps a plain int next to the object
// (no atomics, no control block); when the last Ref goes, the object is
// destroyed and its node goes back on the slab's free list, where the
// next Make() picks it up. Steady-state Make/release therefore allocate
// nothing.
//
// Ownership rules:
//  * A slab and all its Refs belong to one thread (one simulation
//    trial); the counts are not atomic.
//  * A Ref may outlive its Slab: the chunks are freed when the Slab is
//    gone *and* the last Ref has been released, so an event still
//    queued on an engine that outlives its network model, or a packet a
//    test kept after tearing the model down, stays valid.
//  * Slab<T>::MakeUnpooled() makes a free-standing object (tests and
//    benches that build packets without a model); it is deleted on its
//    last release. Clone() of a Ref allocates from the same slab, or
//    free-standing when the original was.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/expect.hpp"

// Under AddressSanitizer a released node is poisoned until it is reused,
// so a stale handle into the pool is reported like a use after free.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define IRMC_SLAB_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define IRMC_SLAB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define IRMC_SLAB_POISON(p, n) ((void)(p), (void)(n))
#define IRMC_SLAB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace irmc {

template <class T>
class Slab {
  struct Arena;
  struct Node {
    T value;
    int refs = 0;
    Arena* arena = nullptr;  ///< null: free-standing, deleted on release

    template <class... Args>
    explicit Node(Arena* a, Args&&... args)
        : value(std::forward<Args>(args)...), arena(a) {}
  };

 public:
  /// Counted handle to a pooled T. Null when default-constructed or
  /// moved from.
  class Ref {
   public:
    Ref() = default;
    Ref(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
    Ref(const Ref& o) : node_(o.node_) {
      if (node_ != nullptr) ++node_->refs;
    }
    Ref(Ref&& o) noexcept : node_(std::exchange(o.node_, nullptr)) {}
    Ref& operator=(const Ref& o) {
      Ref copy(o);
      std::swap(node_, copy.node_);
      return *this;
    }
    Ref& operator=(Ref&& o) noexcept {
      if (this != &o) {
        Drop();
        node_ = std::exchange(o.node_, nullptr);
      }
      return *this;
    }
    ~Ref() { Drop(); }

    T* get() const { return node_ != nullptr ? &node_->value : nullptr; }
    T* operator->() const {
      IRMC_EXPECT(node_ != nullptr);
      return &node_->value;
    }
    T& operator*() const {
      IRMC_EXPECT(node_ != nullptr);
      return node_->value;
    }
    explicit operator bool() const { return node_ != nullptr; }
    friend bool operator==(const Ref& r, std::nullptr_t) {
      return r.node_ == nullptr;
    }
    friend bool operator==(const Ref& a, const Ref& b) {
      return a.node_ == b.node_;
    }

    /// A new object copy-constructed from this one, drawn from the same
    /// slab (free-standing when this one is).
    Ref Clone() const {
      IRMC_EXPECT(node_ != nullptr);
      return Ref(Slab::NewNode(node_->arena, node_->value));
    }

   private:
    friend class Slab;
    explicit Ref(Node* n) : node_(n) { ++node_->refs; }
    void Drop() {
      if (node_ != nullptr && --node_->refs == 0) Slab::Release(node_);
      node_ = nullptr;
    }
    Node* node_ = nullptr;
  };

  Slab() : arena_(new Arena) {}
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    arena_->orphaned = true;
    if (arena_->live == 0) delete arena_;
  }

  /// A pooled T constructed from `args`.
  template <class... Args>
  Ref Make(Args&&... args) {
    return Ref(NewNode(arena_, std::forward<Args>(args)...));
  }

  /// A free-standing T, deleted on its last release.
  template <class... Args>
  static Ref MakeUnpooled(Args&&... args) {
    return Ref(NewNode(nullptr, std::forward<Args>(args)...));
  }

  /// Objects currently handed out (0 once every Ref is gone).
  std::size_t live() const { return arena_->live; }
  /// Nodes carved so far: the slab's high-water mark.
  std::size_t capacity() const { return arena_->carved; }

 private:
  static constexpr std::size_t kChunkNodes = 64;

  /// What a released node's storage holds while it waits for reuse.
  struct FreeLink {
    FreeLink* next;
  };

  struct Arena {
    struct Chunk {
      alignas(Node) unsigned char bytes[sizeof(Node) * kChunkNodes];
    };
    std::vector<std::unique_ptr<Chunk>> chunks;
    FreeLink* free = nullptr;
    std::size_t carved = 0;  ///< nodes ever carved from the chunks
    std::size_t live = 0;
    bool orphaned = false;  ///< the owning Slab is gone

    void* Take() {
      if (free != nullptr) {
        FreeLink* link = free;
        IRMC_SLAB_UNPOISON(link, sizeof(Node));
        free = link->next;
        link->~FreeLink();
        return link;
      }
      const std::size_t i = carved % kChunkNodes;
      if (i == 0) chunks.push_back(std::unique_ptr<Chunk>(new Chunk));
      ++carved;
      return chunks.back()->bytes + i * sizeof(Node);
    }
  };

  template <class... Args>
  static Node* NewNode(Arena* arena, Args&&... args) {
    if (arena == nullptr) return new Node(nullptr, std::forward<Args>(args)...);
    void* where = arena->Take();
    Node* n = ::new (where) Node(arena, std::forward<Args>(args)...);
    ++arena->live;
    return n;
  }

  static void Release(Node* n) {
    Arena* arena = n->arena;
    if (arena == nullptr) {
      delete n;
      return;
    }
    // Destroying the value may release other Refs of this arena; this
    // node still counts as live until then, so the arena survives.
    n->~Node();
    arena->free = ::new (static_cast<void*>(n)) FreeLink{arena->free};
    IRMC_SLAB_POISON(n, sizeof(Node));
    if (--arena->live == 0 && arena->orphaned) delete arena;
  }

  Arena* arena_;
};

}  // namespace irmc
