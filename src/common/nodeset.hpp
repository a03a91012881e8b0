// Dynamic bitset over node IDs.
//
// This is the in-memory form of the paper's "bit-string" headers and
// reachability strings (Section 3.2.3): bit i set means node i is a
// member. Sized at construction to the system's node count.
//
// Two forms:
//  * NodeSet     — owning (worm headers, scratch sets). Up to
//    kInlineBits members live inline, so copying a worm header or
//    building a scratch set allocates nothing at the paper's sizes;
//    larger sets fall back to one heap array;
//  * NodeSetView — non-owning words+bits view. Reachability stores all
//    of a System's strings in one word arena and hands out views, so a
//    per-hop string lookup allocates nothing. A NodeSet converts
//    implicitly to a view; every read-only operation takes views, so
//    the two mix freely.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace irmc {

class NodeSet;

/// Non-owning view of a bitset: a word pointer and a bit count. Valid
/// only while the owning storage (NodeSet or Reachability arena) lives.
class NodeSetView {
 public:
  NodeSetView() = default;
  NodeSetView(const std::uint64_t* words, int num_bits)
      : words_(words), num_bits_(num_bits) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate — lets every
  // read-only set operation accept NodeSet and view alike.
  NodeSetView(const NodeSet& s);

  int capacity() const { return num_bits_; }
  std::size_t num_words() const {
    return static_cast<std::size_t>((num_bits_ + 63) / 64);
  }
  const std::uint64_t* words() const { return words_; }

  bool Test(NodeId n) const {
    IRMC_EXPECT(n >= 0 && n < num_bits_);
    return (words_[static_cast<std::size_t>(n) / 64] &
            (std::uint64_t{1} << (static_cast<std::size_t>(n) % 64))) != 0;
  }

  bool Empty() const {
    for (std::size_t i = 0; i < num_words(); ++i)
      if (words_[i] != 0) return false;
    return true;
  }

  int Count() const {
    int c = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      c += __builtin_popcountll(words_[i]);
    return c;
  }

  bool Intersects(NodeSetView o) const {
    CheckCompat(o);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & o.words_[i]) != 0) return true;
    return false;
  }

  bool IsSubsetOf(NodeSetView o) const {
    CheckCompat(o);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    return true;
  }

  /// True when every member lies in `a` or `b` — IsSubsetOf(a | b)
  /// without materializing the union (hot in tree-worm climbing).
  bool IsSubsetOfUnion(NodeSetView a, NodeSetView b) const {
    CheckCompat(a);
    CheckCompat(b);
    for (std::size_t i = 0; i < num_words(); ++i)
      if ((words_[i] & ~(a.words_[i] | b.words_[i])) != 0) return false;
    return true;
  }

  bool operator==(NodeSetView o) const {
    if (num_bits_ != o.num_bits_) return false;
    for (std::size_t i = 0; i < num_words(); ++i)
      if (words_[i] != o.words_[i]) return false;
    return true;
  }

  /// Calls fn(member) for every member in ascending order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      for (std::uint64_t w = words_[i]; w != 0; w &= w - 1)
        fn(static_cast<NodeId>(i * 64 + static_cast<std::size_t>(
                                            __builtin_ctzll(w))));
    }
  }

  /// Members in ascending order.
  std::vector<NodeId> ToVector() const {
    std::vector<NodeId> out;
    out.reserve(static_cast<std::size_t>(Count()));
    ForEach([&out](NodeId n) { out.push_back(n); });
    return out;
  }

  /// Materializes an owning copy.
  NodeSet ToSet() const;

  /// Encoded size of the bit-string header in flits (1 flit = 1 byte).
  int HeaderFlits() const { return (num_bits_ + 7) / 8; }

 private:
  void CheckCompat(NodeSetView o) const {
    IRMC_EXPECT(num_bits_ == o.num_bits_);
  }

  const std::uint64_t* words_ = nullptr;
  int num_bits_ = 0;
};

class NodeSet {
 public:
  /// Sets of up to this many nodes store their words inline.
  static constexpr int kInlineBits = 256;

  NodeSet() = default;
  explicit NodeSet(int num_nodes) : num_bits_(num_nodes) {
    IRMC_EXPECT(num_nodes >= 0);
    if (OnHeap()) heap_ = new std::uint64_t[num_words()];
    std::memset(data(), 0, num_words() * sizeof(std::uint64_t));
  }
  NodeSet(const NodeSet& o) : num_bits_(o.num_bits_) {
    if (OnHeap()) heap_ = new std::uint64_t[num_words()];
    CopyWords(o);
  }
  NodeSet(NodeSet&& o) noexcept : num_bits_(o.num_bits_) {
    if (OnHeap()) {
      heap_ = std::exchange(o.heap_, nullptr);
      o.num_bits_ = 0;
    } else {
      CopyWords(o);
    }
  }
  NodeSet& operator=(const NodeSet& o) {
    if (this != &o) {
      if (num_words() != o.num_words()) {
        NodeSet fresh(o);
        *this = std::move(fresh);
        return *this;
      }
      num_bits_ = o.num_bits_;
      CopyWords(o);
    }
    return *this;
  }
  NodeSet& operator=(NodeSet&& o) noexcept {
    if (this != &o) {
      FreeHeap();
      num_bits_ = o.num_bits_;
      if (OnHeap()) {
        heap_ = std::exchange(o.heap_, nullptr);
        o.num_bits_ = 0;
      } else {
        CopyWords(o);
      }
    }
    return *this;
  }
  ~NodeSet() { FreeHeap(); }

  int capacity() const { return num_bits_; }

  void Set(NodeId n) {
    CheckIndex(n);
    data()[WordOf(n)] |= BitOf(n);
  }

  void Clear(NodeId n) {
    CheckIndex(n);
    data()[WordOf(n)] &= ~BitOf(n);
  }

  bool Test(NodeId n) const {
    CheckIndex(n);
    return (words()[WordOf(n)] & BitOf(n)) != 0;
  }

  bool Empty() const { return NodeSetView(*this).Empty(); }
  int Count() const { return NodeSetView(*this).Count(); }

  NodeSet& operator|=(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= o.words()[i];
    return *this;
  }

  NodeSet& operator&=(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= o.words()[i];
    return *this;
  }

  /// Remove every member of `o` from this set.
  NodeSet& Subtract(NodeSetView o) {
    CheckCompat(o);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ~o.words()[i];
    return *this;
  }

  /// Overwrites this set with `a & b` (same capacity), reusing storage.
  void AssignIntersection(NodeSetView a, NodeSetView b) {
    CheckCompat(a);
    CheckCompat(b);
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words(); ++i)
      w[i] = a.words()[i] & b.words()[i];
  }

  bool operator==(const NodeSet& o) const {
    return NodeSetView(*this) == NodeSetView(o);
  }

  bool Intersects(NodeSetView o) const {
    return NodeSetView(*this).Intersects(o);
  }
  bool IsSubsetOf(NodeSetView o) const {
    return NodeSetView(*this).IsSubsetOf(o);
  }
  bool IsSubsetOfUnion(NodeSetView a, NodeSetView b) const {
    return NodeSetView(*this).IsSubsetOfUnion(a, b);
  }

  /// Calls fn(member) for every member in ascending order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    NodeSetView(*this).ForEach(std::forward<Fn>(fn));
  }

  /// Members in ascending order.
  std::vector<NodeId> ToVector() const {
    return NodeSetView(*this).ToVector();
  }

  static NodeSet FromVector(int num_nodes, const std::vector<NodeId>& v) {
    NodeSet s(num_nodes);
    for (NodeId n : v) s.Set(n);
    return s;
  }

  /// Encoded size of the bit-string header in flits (1 flit = 1 byte).
  int HeaderFlits() const { return (num_bits_ + 7) / 8; }

  const std::uint64_t* words() const { return OnHeap() ? heap_ : inline_; }
  std::size_t num_words() const {
    return static_cast<std::size_t>((num_bits_ + 63) / 64);
  }

 private:
  static constexpr std::size_t kInlineWords = kInlineBits / 64;

  bool OnHeap() const { return num_words() > kInlineWords; }
  std::uint64_t* data() { return OnHeap() ? heap_ : inline_; }
  /// Requires equal word counts (and heap storage in place when needed).
  void CopyWords(const NodeSet& o) {
    std::memcpy(data(), o.words(), num_words() * sizeof(std::uint64_t));
  }
  void FreeHeap() {
    if (OnHeap()) delete[] heap_;
    num_bits_ = 0;
  }
  static std::size_t WordOf(NodeId n) {
    return static_cast<std::size_t>(n) / 64;
  }
  static std::uint64_t BitOf(NodeId n) {
    return std::uint64_t{1} << (static_cast<std::size_t>(n) % 64);
  }
  void CheckIndex(NodeId n) const {
    IRMC_EXPECT(n >= 0 && n < num_bits_);
  }
  void CheckCompat(NodeSetView o) const {
    IRMC_EXPECT(num_bits_ == o.capacity());
  }

  int num_bits_ = 0;
  union {
    std::uint64_t inline_[kInlineWords] = {};
    std::uint64_t* heap_;
  };
};

inline NodeSetView::NodeSetView(const NodeSet& s)
    : words_(s.words()), num_bits_(s.capacity()) {}

inline NodeSet NodeSetView::ToSet() const {
  NodeSet out(num_bits_);
  out |= *this;
  return out;
}

/// Binary set algebra over views (NodeSets convert implicitly); the
/// result is always a fresh owning NodeSet.
inline NodeSet operator|(NodeSetView a, NodeSetView b) {
  NodeSet out = a.ToSet();
  out |= b;
  return out;
}
inline NodeSet operator&(NodeSetView a, NodeSetView b) {
  NodeSet out = a.ToSet();
  out &= b;
  return out;
}

}  // namespace irmc
