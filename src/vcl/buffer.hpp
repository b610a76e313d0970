// Virtual compute layer: device buffer.
//
// An RAII handle to a device global-memory allocation. Storage physically
// lives in host memory (the device is virtual) but is accounted against the
// owning device's capacity, so allocation failures and high-water marks
// behave exactly like real device buffers. Host code must move data in and
// out through CommandQueue::write/read so transfers are profiled; direct
// access to the backing store is reserved for the kernel executor.
//
// Storage recycling. A released buffer's host storage is kept on a free
// list matched on exact element count, and the next buffer of that size
// takes it over without zero-fill: a cold evaluation re-allocating the
// same buffers every request neither faults in fresh pages nor clears
// them. A buffer's contents are therefore unspecified until written; every
// path writes a buffer in full (a transfer or a kernel's whole output)
// before anything reads it. Recycling is invisible to the device model:
// the MemoryTracker reserves and releases exactly as before, so capacity
// failures, high-water marks and quotas are unchanged.
//
// The list is shared by every device of the process, because they all
// share one host: a second device (a scalar oracle, a replay device) takes
// over the first one's retained storage instead of stacking fresh buffers
// beside it. Each retained block belongs to the device that released it
// last (its StoragePool) and is freed when that device is destroyed.
//
// Bound. Retained bytes plus live bytes never exceed the lifetime peak of
// live bytes (all process-wide): releasing moves bytes from live to
// retained, leaving the sum unchanged, and an allocation that misses the
// list first frees retained blocks, largest first, until the sum with the
// new buffer fits under the peak. Recycling therefore never raises the
// host memory the buffers occupy at their busiest.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

namespace dfg::vcl {

class Device;

/// One device's share of the process-wide storage free list (see the
/// header comment). Internally synchronized by the list's mutex: buffers
/// may be released on a thread other than the one allocating.
class StoragePool {
 public:
  /// Process-wide totals.
  struct Totals {
    std::size_t live_bytes = 0;
    std::size_t retained_bytes = 0;
    /// Largest live_bytes ever reached (never reset).
    std::size_t peak_live_bytes = 0;
  };

  StoragePool() = default;
  /// Frees the blocks this device released last.
  ~StoragePool();
  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  /// Storage for exactly `elements` floats, contents unspecified: a
  /// retained block of that size, else a fresh allocation.
  std::unique_ptr<float[]> acquire(std::size_t elements);
  /// Takes back storage of `elements` floats handed out by acquire().
  void recycle(std::unique_ptr<float[]> storage, std::size_t elements);

  /// Bytes of retained blocks this device released last.
  std::size_t retained_bytes() const;
  static Totals totals();

 private:
  /// Guarded by the list's mutex.
  std::size_t retained_ = 0;
};

class Buffer {
 public:
  Buffer() = default;
  Buffer(Device& device, std::size_t elements);
  ~Buffer();

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  bool valid() const { return device_ != nullptr; }
  std::size_t size() const { return size_; }
  std::size_t bytes() const { return size_ * sizeof(float); }

  /// Direct views of the backing store. Used by the kernel executor and by
  /// CommandQueue; host application code should go through the queue.
  std::span<float> device_view() { return {storage_.get(), size_}; }
  std::span<const float> device_view() const {
    return {storage_.get(), size_};
  }

  /// Releases the allocation early (idempotent). Equivalent to destroying
  /// the buffer; used by strategies that free intermediates by refcount.
  void release();

 private:
  Device* device_ = nullptr;
  std::unique_ptr<float[]> storage_;
  std::size_t size_ = 0;
};

}  // namespace dfg::vcl
