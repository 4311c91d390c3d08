#ifndef SWIFT_SHUFFLE_SHUFFLE_BUFFER_H_
#define SWIFT_SHUFFLE_SHUFFLE_BUFFER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace swift {

/// \brief An immutable, reference-counted shuffle payload view.
///
/// A serialized partition is allocated exactly once (when the producing
/// task hands its bytes to the shuffle service) and every hop that
/// subsequently handles it — the direct-path slot, writer- and
/// reader-side Cache Workers, retained-for-recovery slots, Peek-based
/// re-sends — shares that one allocation: copying a ShuffleBuffer copies
/// a pointer and a range, never the bytes. The offset/length pair makes
/// sub-range views (e.g. framing several partitions in one allocation)
/// possible without slicing.
///
/// The paper's +1/+2 per-scheme memory-copy counts (Sec. III-B) remain
/// *modeled* in ShuffleServiceStats::modeled_memory_copies; the data
/// plane itself never deep-copies a payload.
class ShuffleBuffer {
 public:
  ShuffleBuffer() = default;

  /// \brief Takes ownership of `bytes`: the single allocation of this
  /// payload's lifetime.
  explicit ShuffleBuffer(std::string bytes)
      : data_(std::make_shared<const std::string>(std::move(bytes))),
        offset_(0),
        length_(data_->size()) {}

  /// \brief Wraps an existing shared allocation.
  explicit ShuffleBuffer(std::shared_ptr<const std::string> data)
      : data_(std::move(data)),
        offset_(0),
        length_(data_ ? data_->size() : 0) {}

  /// \brief Sub-range view sharing the same allocation; clamps to the
  /// current view's bounds.
  ShuffleBuffer Slice(std::size_t offset, std::size_t length) const {
    ShuffleBuffer out = *this;
    out.offset_ = offset_ + (offset > length_ ? length_ : offset);
    const std::size_t avail = offset_ + length_ - out.offset_;
    out.length_ = length > avail ? avail : length;
    return out;
  }

  std::string_view view() const {
    return data_ ? std::string_view(*data_).substr(offset_, length_)
                 : std::string_view();
  }
  std::size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  bool valid() const { return data_ != nullptr; }

  /// \brief How many ShuffleBuffers currently share this allocation
  /// (copy-elision assertions in tests).
  long use_count() const { return data_.use_count(); }

 private:
  std::shared_ptr<const std::string> data_;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

}  // namespace swift

#endif  // SWIFT_SHUFFLE_SHUFFLE_BUFFER_H_
