// Per-thread scratch arenas for inference and training hot loops.
//
// Conv2d's im2col buffers, the GEMM panel-packing scratch, the saliency
// deconvolution ping-pong buffers and SSIM's summed-area tables all used to
// be fresh heap allocations on every call. The Workspace gives each thread a
// bump-pointer arena built from a small list of long-lived chunks: the first
// frame through a pipeline grows the arena to its high-water mark
// ("warm-up"), and every later frame reuses that memory with zero heap
// traffic. A process-wide counter of chunk allocations makes the
// steady-state zero-allocation guarantee testable: after warm-up,
// NoveltyDetector::score must not move the counter.
//
// Usage: open a WorkspaceScope, take buffers from it, let the scope restore
// the arena on destruction. Scopes nest (inner scopes allocate past outer
// allocations). Pointers stay valid for the lifetime of the scope that
// produced them — growth appends new chunks and never moves old ones.
// Buffers are 64-byte aligned and uninitialized.
//
// Thread model: Workspace::tls() returns an arena owned by the calling
// thread (pool workers each have their own), so no locking is needed and
// the deterministic-parallelism contract is unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace salnov {

class Workspace {
 public:
  /// A rewind point: the arena position when mark() was called.
  struct Marker {
    size_t chunk = 0;
    int64_t offset = 0;
  };

  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns an uninitialized 64-byte-aligned buffer of `count` floats,
  /// valid until the arena is rewound past it. `count` must be >= 0.
  float* alloc_floats(int64_t count);

  Marker mark() const { return {cur_chunk_, cur_offset_}; }
  void release(const Marker& marker) {
    cur_chunk_ = marker.chunk;
    cur_offset_ = marker.offset;
  }

  /// Bytes currently reserved by this arena's chunks (its high-water mark).
  int64_t reserved_bytes() const;

  /// The calling thread's arena. Lives until the thread exits.
  static Workspace& tls();

  /// Process-wide number of heap chunk allocations ever made by workspaces.
  /// A stable value across frames is the zero-allocation steady state.
  static int64_t heap_allocation_count();

 private:
  struct Chunk {
    float* data = nullptr;
    int64_t capacity = 0;  ///< in floats
  };

  std::vector<Chunk> chunks_;
  size_t cur_chunk_ = 0;
  int64_t cur_offset_ = 0;
};

/// RAII arena scope: buffers taken from the scope are released (for reuse,
/// not to the heap) when the scope ends.
class WorkspaceScope {
 public:
  WorkspaceScope() : workspace_(Workspace::tls()), marker_(workspace_.mark()) {}
  ~WorkspaceScope() { workspace_.release(marker_); }
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

  float* floats(int64_t count) { return workspace_.alloc_floats(count); }
  /// Uninitialized 64-byte-aligned doubles, from the same arena.
  double* doubles(int64_t count) {
    static_assert(sizeof(double) == 2 * sizeof(float));
    return reinterpret_cast<double*>(workspace_.alloc_floats(2 * count));
  }

 private:
  Workspace& workspace_;
  Workspace::Marker marker_;
};

}  // namespace salnov
