// k-way partitioning by splitters, super-scalar-sample-sort style [32].
//
// Elements are classified against an implicit perfect binary search tree of
// splitters held in heap order; the descent `i = 2i + (tree[i] < x)` has no
// data-dependent branches, which is what makes this partitioning as cheap as
// merging but without branch mispredictions (§2.2).
//
// Tie breaking (paper Appendix D): splitters are TaggedKey values — a sample
// element together with its origin (PE, index). Classification first uses
// keys only; elements *equal* to a splitter key take one extra comparison
// against the splitter's tag to decide which side they belong to. This is
// the "equality bucket + one additional comparison" scheme of Appendix D and
// makes bucket sizes well-defined even for all-equal inputs.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/math.hpp"
#include "common/types.hpp"

namespace pmps::seq {

/// Classifier for k buckets separated by k−1 tagged splitters (sorted).
template <typename T, typename Less = std::less<T>>
class BucketClassifier {
 public:
  BucketClassifier(std::vector<TaggedKey<T>> sorted_splitters, Less less = {})
      : splitters_(std::move(sorted_splitters)), less_(less) {
    const int s = static_cast<int>(splitters_.size());
    PMPS_CHECK(s >= 1);
    num_buckets_ = s + 1;
    // Pad the tree to a perfect size with copies of the largest splitter;
    // elements beyond it are clamped to the last bucket after the descent.
    tree_size_ = static_cast<int>(next_pow2(static_cast<std::uint64_t>(s + 1)));
    tree_.assign(static_cast<std::size_t>(tree_size_), splitters_.back().key);
    // Heap order, level by level: in-order traversal of the implicit tree
    // enumerates the padded splitters sorted, so node 2^d + i, the i-th
    // node of depth d, takes padded splitter (2i + 1)·2^(h−1−d) − 1, where
    // tree_size_ = 2^h.
    for (int first = 1, gap = tree_size_ / 2; gap >= 1;
         first *= 2, gap /= 2) {
      for (int i = 0; i < first; ++i)
        tree_[static_cast<std::size_t>(first + i)] =
            padded((2 * i + 1) * gap - 1);
    }
  }

  int num_buckets() const { return num_buckets_; }
  const std::vector<TaggedKey<T>>& splitters() const { return splitters_; }

  /// Bucket index for element `x` originating at (pe, index).
  int classify(const T& x, std::int32_t pe, std::int64_t index) const {
    // Branch-free descent: count splitters < x.
    int i = 1;
    while (i < tree_size_)
      i = 2 * i + static_cast<int>(less_(tree_[static_cast<std::size_t>(i)], x));
    return resolve_bucket(x, pe, index, i - tree_size_);
  }

  /// Elements classified together per strip by classify_strip.
  static constexpr int kStrip = 16;

  /// Classifies `count` ≤ kStrip consecutive elements whose tie-breaking
  /// indices start at `base_index`, descending the splitter tree level by
  /// level for the whole strip (super-scalar sample sort). One element's
  /// descent is a serial chain of dependent loads; interleaving kStrip
  /// independent descents lets those loads overlap, so the strip costs
  /// roughly one chain instead of kStrip of them.
  void classify_strip(const T* xs, int count, std::int32_t pe,
                      std::int64_t base_index, std::int32_t* out) const {
    int idx[kStrip];
    for (int j = 0; j < count; ++j) idx[j] = 1;
    for (int level = tree_size_; level > 1; level >>= 1) {
      for (int j = 0; j < count; ++j) {
        idx[j] = 2 * idx[j] +
                 static_cast<int>(
                     less_(tree_[static_cast<std::size_t>(idx[j])], xs[j]));
      }
    }
    for (int j = 0; j < count; ++j) {
      out[j] = static_cast<std::int32_t>(resolve_bucket(
          xs[j], pe, base_index + j, idx[j] - tree_size_));
    }
  }

 private:
  /// Maps a finished descent (b = |{padded splitters < x}|) to the final
  /// bucket: clamp the padding, then resolve elements equal to splitter keys
  /// with the tagged comparison. (At most a handful of iterations unless
  /// many splitters share a key, in which case the loop distributes the
  /// duplicates across their buckets — Appendix D.)
  int resolve_bucket(const T& x, std::int32_t pe, std::int64_t index,
                     int b) const {
    if (b >= num_buckets_) b = num_buckets_ - 1;
    const TaggedKey<T> tx{x, pe, index};
    while (b < num_buckets_ - 1 &&
           !less_(x, splitters_[static_cast<std::size_t>(b)].key) &&
           !less_(splitters_[static_cast<std::size_t>(b)].key, x) &&
           !tagged_less(tx, splitters_[static_cast<std::size_t>(b)])) {
      ++b;
    }
    return b;
  }

  static bool tagged_less(const TaggedKey<T>& a, const TaggedKey<T>& b) {
    // keys already known equal here; compare tags
    if (a.pe != b.pe) return a.pe < b.pe;
    return a.index < b.index;
  }

  T padded(int i) const {
    const int s = static_cast<int>(splitters_.size());
    return splitters_[static_cast<std::size_t>(std::min(i, s - 1))].key;
  }

  std::vector<TaggedKey<T>> splitters_;
  Less less_;
  int num_buckets_ = 0;
  int tree_size_ = 0;
  std::vector<T> tree_;
};

/// Classifies one block of a larger input stream whose first element sits
/// at global position `base_index`, calling emit(bucket, element) for each
/// element in input order. classify_strip descends per element (strips only
/// batch independent descents), so chopping the input into blocks of any
/// size yields exactly the buckets partition_into_buckets computes over the
/// whole span — the property AMS-sort's streaming two-pass classification
/// over spilled run blocks relies on (docs/EM.md).
template <typename T, typename Less, typename Emit>
void classify_block(std::span<const T> block, std::int32_t my_pe,
                    std::int64_t base_index,
                    const BucketClassifier<T, Less>& cls, Emit&& emit) {
  using Cls = BucketClassifier<T, Less>;
  std::int32_t buckets[Cls::kStrip];
  const auto n = static_cast<std::int64_t>(block.size());
  for (std::int64_t off = 0; off < n; off += Cls::kStrip) {
    const int count =
        static_cast<int>(std::min<std::int64_t>(Cls::kStrip, n - off));
    cls.classify_strip(block.data() + off, count, my_pe, base_index + off,
                       buckets);
    for (int j = 0; j < count; ++j)
      emit(buckets[j], block[static_cast<std::size_t>(off + j)]);
  }
}

/// Result of partitioning: elements permuted so bucket b occupies
/// [offsets[b], offsets[b] + sizes[b]).
template <typename T>
struct PartitionResult {
  std::vector<T> elements;
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> offsets;
};

/// Partitions `input` into the classifier's buckets (stable within buckets).
/// `my_pe` and the element's position form its tie-breaking tag.
template <typename T, typename Less = std::less<T>>
PartitionResult<T> partition_into_buckets(
    std::span<const T> input, std::int32_t my_pe,
    const BucketClassifier<T, Less>& cls) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const int k = cls.num_buckets();
  PartitionResult<T> out;
  out.sizes.assign(static_cast<std::size_t>(k), 0);
  out.offsets.assign(static_cast<std::size_t>(k), 0);

  using Cls = BucketClassifier<T, Less>;
  std::vector<std::int32_t> bucket_of(static_cast<std::size_t>(n));
  std::int64_t done = 0;
  for (; done + Cls::kStrip <= n; done += Cls::kStrip) {
    cls.classify_strip(input.data() + done, Cls::kStrip, my_pe, done,
                       bucket_of.data() + done);
  }
  if (done < n) {
    cls.classify_strip(input.data() + done, static_cast<int>(n - done), my_pe,
                       done, bucket_of.data() + done);
  }
  for (std::int64_t i = 0; i < n; ++i)
    out.sizes[static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(i)])] += 1;
  std::int64_t acc = 0;
  for (int b = 0; b < k; ++b) {
    out.offsets[static_cast<std::size_t>(b)] = acc;
    acc += out.sizes[static_cast<std::size_t>(b)];
  }
  out.elements.resize(static_cast<std::size_t>(n));
  std::vector<std::int64_t> cursor = out.offsets;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto b = static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(i)]);
    out.elements[static_cast<std::size_t>(cursor[b]++)] =
        input[static_cast<std::size_t>(i)];
  }
  return out;
}

}  // namespace pmps::seq
