// Copy-on-write snapshot overlay for zero-pause checkpoint capture.
//
// The stop-the-world capture holds the application still for the entire
// drain, so pause time grows with footprint. The veeamsnap production
// pattern (tracker.c/snapshot.h — the same CBT lineage as DirtyTracker)
// decouples the two: freeze a logical snapshot instant, let the application
// resume immediately, and intercept every subsequent write so the block
// about to be overwritten is copied into a snapstore *first*. The capture
// then reads through the overlay: a chunk someone overwrote comes from its
// preserved pre-image, an untouched chunk comes from live memory — and the
// bytes are identical to what a stop-the-world capture at the freeze
// instant would have produced.
//
// A SnapOverlay covers a fixed set of address regions (the simulator's
// arenas; a proxy's shadow mirrors) at DirtyTracker granularity. Lifecycle:
//
//   overlay.arm(regions, protect);     // freeze point, world stopped
//   // ... application resumes; every mutating path calls
//   overlay.copy_before_write(p, n);   // before the bytes change
//   // ... capture reads the frozen state concurrently:
//   overlay.read_range(p, n, out);     // pre-image if preserved, else live
//   overlay.release();                 // capture complete
//
// Arming is two-phase: DISARMED -> ARMING -> ARMED. arm() builds the
// tables in DISARMED, enters ARMING, runs the caller's `protect` step
// (Device re-protects every managed page there), and only then publishes
// ARMED — the snapshot instant. armed() is false throughout ARMING, so
// code that gates on it (a host thread storing straight to managed
// memory) cannot act before every page that could take a silent store is
// protected. A copy_before_write that arrives during ARMING — a stream
// write, an allocate/free, or a UVM fault on a page `protect` already
// covered — parks until ARMED and then preserves. Were it to preserve at
// once, the image could keep that chunk's old bytes while the same
// thread's next store, to a page `protect` has not reached yet, lands in
// the image — the later write captured without the earlier one. Were it
// to skip the preserve, a fault between protect and publish would drop
// the page's protection with no pre-image saved. Either way the image
// would not be one point in time.
//
// Per-chunk claim protocol (all transitions are CAS, acq_rel):
//
//       +--------- copy_before_write: claim, preserve ---------+
//       v                                                      |
//   [COPIED] <--- publish ---- [COPYING] <------ claim ---- [CLEAN]
//                                                             ^  |
//                          read_range: claim, read origin ----+  |
//                              [READING] ------- unclaim --------+
//
// Claims are only taken once ARMED is published; until then writers park
// without touching the chunk tables. A writer must not mutate a chunk
// until it observes COPIED (or the overlay released); a capture read
// claims READING so no writer can race its origin read. Chunks are never
// marked "captured": overlay chunks can span two live allocations, and a
// writer skipping its preserve because *one* allocation's slice was
// already read would corrupt the other's.
//
// Snapstore: pre-images land in a preallocated slab (fixed memory cap),
// overflowing into an unlinked temp file created eagerly at arm() — the
// SpoolBuffer idiom, and eager creation because copy_before_write may run
// on a SIGSEGV delivery path where open() and malloc() are off the table.
// Exhaustion degrades gracefully: the writer returns its claim and stalls
// (bounded backpressure, effectively stop-the-world for that writer alone)
// until release(); the capture reads the still-unmodified origin directly.
// The capture is never blocked by exhaustion and the image is never
// corrupted.
//
// Async-signal-safety: copy_before_write allocates nothing, takes no lock,
// and waits (for ARMED, a racing claim, or release) only by
// nanosleep-polling atomics. Its own origin reads (and read_range's) run
// under a thread-local passthrough flag so a fault on a still-armed
// managed page unprotects to PROT_READ only — concurrent writers keep
// faulting and preserving (see UvmManager::handle_fault).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/dirty.hpp"
#include "common/status.hpp"

namespace crac::ckpt {

class SnapOverlay {
 public:
  struct Config {
    // Preserve granularity; matches DirtyTracker's default so one write
    // pays one pre-image copy per dirty-tracking chunk.
    std::size_t chunk_bytes = kDefaultDirtyChunkBytes;
    // Resident snapstore slab, preallocated at arm().
    std::size_t mem_cap_bytes = std::size_t{8} << 20;
    // Unlinked-tempfile overflow cap; 0 = memory only. Writers stall when
    // both are full.
    std::size_t file_cap_bytes = std::size_t{256} << 20;
    // Directory for the overflow file; empty = $TMPDIR, falling back to
    // /tmp. Unlinked immediately after creation.
    std::string spool_dir;
  };

  struct Region {
    std::uintptr_t base = 0;
    std::size_t len = 0;
  };

  struct Stats {
    std::uint64_t chunks_preserved = 0;  // pre-images copied to the store
    std::uint64_t preserved_bytes = 0;
    // High-water mark of snapstore bytes held (slab + overflow file).
    std::uint64_t peak_store_bytes = 0;
    std::uint64_t spilled_chunks = 0;  // preserved via the overflow file
    std::uint64_t writer_stalls = 0;   // writers parked on exhaustion
    std::uint64_t arming_waits = 0;    // writers parked until ARMED
    std::uint64_t overlay_reads = 0;   // capture chunks served from store
    std::uint64_t origin_reads = 0;    // capture chunks served from memory
    bool exhausted = false;            // the store filled at least once
  };

  SnapOverlay();  // default Config
  explicit SnapOverlay(Config config);
  ~SnapOverlay();

  SnapOverlay(const SnapOverlay&) = delete;
  SnapOverlay& operator=(const SnapOverlay&) = delete;

  // Freezes the logical snapshot over `regions` (sorted, non-overlapping
  // after sorting; each region is chunked independently). Allocates the
  // chunk tables and the slab and creates the overflow file NOW, so the
  // write path never allocates, then enters ARMING and runs `protect`
  // (may be empty) before publishing ARMED. Writers arriving during
  // `protect` park until ARMED. If `protect` fails the overlay is released
  // (parked writers return without preserving) and its status returned.
  // Fails if already arming or armed. Stats reset.
  Status arm(const std::vector<Region>& regions,
             const std::function<Status()>& protect = {});

  // Ends the snapshot: new writers pass straight through, stalled writers
  // wake, and the call blocks until every in-flight preserve/read has
  // drained before the store is torn down. Idempotent. Stats survive until
  // the next arm().
  void release();

  // True once ARMED is published, until release(). False while ARMING.
  bool armed() const noexcept {
    return phase_.load(std::memory_order_acquire) == kArmed;
  }
  // True from the moment arm() enters ARMING until release(): whenever a
  // copy_before_write would park or preserve rather than pass through.
  bool arming_or_armed() const noexcept {
    return phase_.load(std::memory_order_acquire) != kDisarmed;
  }

  // Writer-side interceptor: returns only when every chunk overlapping
  // [p, p+n) is safe to overwrite — preserved in the snapstore, or the
  // overlay released. During ARMING it first parks until ARMED. Ranges
  // outside the tracked regions are ignored; n == 0 is a no-op (callers
  // resolve conservative attribution to whole allocations first, as
  // Device::note_write does). Async-signal-safe.
  void copy_before_write(const void* p, std::size_t n) noexcept;

  // Capture-side read of the frozen snapshot: fills `out` with the
  // pre-image of [p, p+n) — snapstore copy where a writer got there first,
  // live origin otherwise (claimed against racing writers). The range must
  // lie inside one tracked region. When the overlay is not armed (ARMING
  // included) this degrades to a plain origin read (under passthrough, so
  // PROT_NONE managed pages still serve).
  Status read_range(const void* p, std::size_t n, void* out);

  Stats stats() const;

  // True while this thread is inside an overlay-internal origin read.
  // UvmManager::handle_fault consults this to unprotect faulting pages to
  // PROT_READ only (keeping the preserve obligation armed for writers).
  static bool in_passthrough() noexcept;

  // RAII passthrough marker, exposed for capture paths that read frozen
  // memory without going through read_range.
  class PassthroughScope {
   public:
    PassthroughScope() noexcept;
    ~PassthroughScope();
    PassthroughScope(const PassthroughScope&) = delete;
    PassthroughScope& operator=(const PassthroughScope&) = delete;
  };

 private:
  enum Phase : std::uint8_t {
    kDisarmed = 0,  // writers pass straight through
    kArming = 1,    // tables built, protect step running; writers park
    kArmed = 2,     // snapshot published; writers preserve
  };

  enum ChunkState : std::uint8_t {
    kClean = 0,    // origin is the pre-image; nobody owns the chunk
    kCopying = 1,  // a writer is preserving the pre-image
    kCopied = 2,   // pre-image lives in the snapstore (terminal)
    kReading = 3,  // the capture is reading the origin
  };

  struct TrackedRegion {
    std::uintptr_t base = 0;
    std::size_t len = 0;
    std::size_t first_chunk = 0;  // index into the shared chunk tables
    std::size_t n_chunks = 0;
  };

  // Region containing p, or nullptr. The region table is immutable while
  // armed, so this is safe from the signal path.
  const TrackedRegion* find_region(std::uintptr_t a) const noexcept;

  // Blocks until the chunk is safe to overwrite (COPIED or released),
  // preserving the pre-image itself when it wins the CLEAN claim.
  void preserve_chunk(const TrackedRegion& region,
                      std::size_t chunk) noexcept;

  // Serves one chunk-relative subrange of the frozen snapshot into out.
  Status serve_chunk(const TrackedRegion& region, std::size_t chunk,
                     std::size_t offset_in_chunk, std::size_t len, void* out);

  // Pre-image length of a chunk (full chunk_bytes except a region tail).
  std::size_t chunk_len(const TrackedRegion& region,
                        std::size_t chunk) const noexcept;
  const std::byte* chunk_origin(const TrackedRegion& region,
                                std::size_t chunk) const noexcept;

  // Copies `len` origin bytes into snapstore slot `slot` (slab or file).
  // Returns false only on overflow-file I/O failure.
  bool store_pre_image(std::uint32_t slot, const std::byte* origin,
                       std::size_t len) noexcept;

  // Parks an exhausted writer until the overlay releases.
  void stall_until_released() noexcept;

  // Parks a writer that arrived during ARMING; returns the phase it left
  // on (ARMED, or DISARMED when the arm failed and released).
  Phase wait_out_arming() noexcept;

  Config config_;
  std::atomic<std::uint8_t> phase_{kDisarmed};
  // Threads currently inside copy_before_write/read_range; release() and
  // arm() wait for zero before touching the tables below.
  std::atomic<std::uint32_t> inflight_{0};

  std::vector<TrackedRegion> regions_;  // sorted; immutable while armed
  std::size_t total_chunks_ = 0;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> slot_;

  std::unique_ptr<std::byte[]> slab_;
  std::size_t mem_slots_ = 0;
  std::size_t file_slots_ = 0;
  int overflow_fd_ = -1;
  std::atomic<std::uint32_t> next_slot_{0};

  std::atomic<std::uint64_t> chunks_preserved_{0};
  std::atomic<std::uint64_t> preserved_bytes_{0};
  std::atomic<std::uint64_t> peak_slots_{0};
  std::atomic<std::uint64_t> spilled_chunks_{0};
  std::atomic<std::uint64_t> writer_stalls_{0};
  std::atomic<std::uint64_t> arming_waits_{0};
  std::atomic<std::uint64_t> overlay_reads_{0};
  std::atomic<std::uint64_t> origin_reads_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace crac::ckpt
