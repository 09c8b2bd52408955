#pragma once

// Pluggable event schedulers for the discrete-event simulators.
//
// Every event-driven simulator (counter family, hybrid tail, work
// stealing) drains a min-queue of (time, key) events, and every one of
// them holds at most one pending event per simulated proc: a popped
// proc is either re-armed with its next event or retired. This header
// provides two interchangeable backends behind one EventQueue facade
// built on that contract:
//
//  - kBinaryHeap ("heap", the default): a tournament (min) tree with
//    one leaf per proc. Each node holds the smaller of its two
//    children, packed as one 128-bit word (time bits above key), so a
//    pop reads the root and a re-arm rewrites one leaf and recomputes
//    its log2(P) ancestors with branch-free minimums. The name is kept
//    from the std::priority_queue it replaced; that heap now lives only
//    in tests/test_sim_schedulers.cpp as the order oracle.
//  - kCalendarQueue: Brown's calendar queue — a rotating array of time
//    buckets ("days" of a "year"), each holding the events that fall in
//    its slice. Enqueue hashes the timestamp to a bucket in O(1);
//    dequeue scans forward from the current day. Bucket count and width
//    adapt to the live event population. It ignores the proc for
//    ordering and uses it only to enforce the contract below.
//
// Contract, checked on both backends:
//  - procs are 0 .. n_procs-1 and hold at most one live event each;
//    push() for a proc whose event is still pending throws
//    std::logic_error;
//  - after pop(), the caller re-arms the popped event's proc with
//    push() or ends it with retire() before the next pop(), which
//    throws std::logic_error otherwise;
//  - times are non-negative and finite (std::invalid_argument
//    otherwise); -0.0 is stored as +0.0, so it ties with +0.0 as it
//    does under ==;
//  - no two live events share (time, key). Callers encode their
//    tie-break AND payload into `key` with the proc inside it (work
//    stealing packs a monotone sequence number above the proc id, the
//    counter family packs (proc << 1) | kind), so this holds by
//    construction and is not checked.
// Pops follow the strict (time ascending, key ascending) order, so both
// backends pop the exact same sequence and a simulation is bitwise
// reproducible across schedulers — the property
// tests/test_sim_schedulers.cpp pins. The packing relies on the
// IEEE-754 property that bit patterns of non-negative doubles order
// like unsigned integers.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace emc::sim {

/// Which event-scheduler backend a simulation drains.
enum class SchedulerKind : std::uint8_t {
  kBinaryHeap = 0,  ///< per-proc tournament tree, O(log P) per event
  kCalendarQueue,   ///< calendar queue, amortized O(1)
};

/// Display name ("heap", "calendar").
const char* scheduler_name(SchedulerKind kind);

/// Inverse of scheduler_name; throws std::invalid_argument on an
/// unknown name (accepts "calendar-queue" as an alias for "calendar").
SchedulerKind parse_scheduler(const std::string& name);

/// One scheduled event: fires at `time`; `key` is the strict tie-break
/// and carries the caller's payload bits.
struct SimEvent {
  double time = 0.0;
  std::uint64_t key = 0;
};

/// Min-queue over (time, key) with at most one live event per proc and
/// a selectable backend. Not thread-safe; one per simulation run.
class EventQueue {
 public:
  /// Events belong to procs 0 .. n_procs-1 (n_procs >= 1, else
  /// std::invalid_argument). The calendar starts with ~n_procs buckets
  /// so the steady-state population triggers no growth.
  EventQueue(SchedulerKind kind, int n_procs);

  /// Schedules `proc`'s next event. `proc` must hold no live event: it
  /// is new, retired, or the proc of the event just popped.
  void push(int proc, double time, std::uint64_t key) {
    if (static_cast<unsigned>(proc) >= static_cast<unsigned>(n_procs_)) {
      throw std::out_of_range("EventQueue::push: proc out of range");
    }
    // Written so that NaN fails too.
    if (!(time >= 0.0 && time <= kMaxTime)) {
      throw std::invalid_argument(
          "EventQueue::push: time must be non-negative and finite");
    }
    if (time == 0.0) time = 0.0;  // -0.0 would pack above every time
    const std::size_t leaf = leaf0_ + static_cast<std::size_t>(proc);
    if (nodes_[leaf] != kEmpty) {
      if (nodes_[leaf] != popped_) {
        throw std::logic_error(
            "EventQueue::push: proc already holds a live event");
      }
      popped_ = kEmpty;
    }
    const Word w = pack(time, key);
    if (kind_ == SchedulerKind::kBinaryHeap) {
      ++size_;
      update_path(leaf, w);
    } else {
      nodes_[leaf] = w;
      cal_push(w);
    }
  }

  /// Returns the minimum (time, key) event. Its proc must be re-armed
  /// (push) or retired (retire) before the next pop.
  SimEvent pop() {
    if (popped_ != kEmpty) {
      throw std::logic_error(
          "EventQueue::pop: the last popped proc was neither re-armed "
          "nor retired");
    }
    if (size_ == 0) throw std::logic_error("EventQueue::pop: empty");
    if (kind_ == SchedulerKind::kBinaryHeap) {
      --size_;
      popped_ = nodes_[1];
    } else {
      popped_ = cal_pop();
    }
    return SimEvent{std::bit_cast<double>(static_cast<std::uint64_t>(
                        popped_ >> 64)),
                    static_cast<std::uint64_t>(popped_)};
  }

  /// Ends the just-popped event's `proc` without a next event (the proc
  /// parks or runs dry).
  void retire(int proc) {
    if (static_cast<unsigned>(proc) >= static_cast<unsigned>(n_procs_)) {
      throw std::out_of_range("EventQueue::retire: proc out of range");
    }
    const std::size_t leaf = leaf0_ + static_cast<std::size_t>(proc);
    if (popped_ == kEmpty || nodes_[leaf] != popped_) {
      throw std::logic_error(
          "EventQueue::retire: proc does not hold the popped event");
    }
    popped_ = kEmpty;
    if (kind_ == SchedulerKind::kBinaryHeap) {
      update_path(leaf, kEmpty);
    } else {
      nodes_[leaf] = kEmpty;
    }
  }

  /// True when no live event is pending (a popped event is not live).
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  SchedulerKind kind() const { return kind_; }

 private:
  /// (time bits << 64) | key: unsigned compare is the (time, key) order
  /// for non-negative finite times.
  __extension__ typedef unsigned __int128 Word;

  static constexpr Word kEmpty = ~Word{0};  ///< above every packed event
  static constexpr double kMaxTime = std::numeric_limits<double>::max();

  static Word pack(double time, std::uint64_t key) {
    return (Word{std::bit_cast<std::uint64_t>(time)} << 64) | key;
  }

  /// Writes `w` at `node` and recomputes every ancestor's minimum:
  /// log2(leaf0_) branch-free steps.
  void update_path(std::size_t node, Word w) {
    nodes_[node] = w;
    while (node > 1) {
      const Word sibling = nodes_[node ^ 1];
      w = sibling < w ? sibling : w;
      node >>= 1;
      nodes_[node] = w;
    }
  }

  // ---- calendar backend ----------------------------------------------

  /// One calendar day: entries[head, size) is the live population, kept
  /// ascending in (time, key) at all times. The minimum pops from
  /// `head` in O(1); a push appends in O(1) when it is >= the current
  /// back — the overwhelmingly common case, since simulators push
  /// near-monotone times with monotone tie-break keys (the t=0 burst of
  /// P ascending-key events is a pure append run) — and binary-inserts
  /// otherwise. The dead prefix [0, head) is reclaimed when the bucket
  /// drains. Keeping buckets sorted eliminates re-sorting entirely:
  /// a lazily-sorted design re-sorts a clustered bucket on every
  /// pop/push interleaving, which profiling showed dominating the
  /// hierarchical-counter replay.
  struct Bucket {
    std::vector<Word> entries;
    std::size_t head = 0;

    bool empty() const { return head >= entries.size(); }
    Word min() const { return entries[head]; }
  };

  static double word_time(Word w) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(w >> 64));
  }

  std::uint64_t epoch_of(double time) const {
    return static_cast<std::uint64_t>(time / width_);
  }

  void cal_push(Word entry);
  Word cal_pop();
  Word take_front(Bucket& bucket);
  /// Full sweep for the global minimum; used when a year's rotation
  /// finds nothing (the population is far in the future).
  Word direct_search();
  /// Rebuilds the calendar with ~`n_buckets` buckets and a width fitted
  /// to the live population's time spread.
  void rebuild(std::size_t n_buckets);

  SchedulerKind kind_;
  int n_procs_;
  std::size_t size_ = 0;  ///< live events (a popped event is not live)

  /// Tournament tree, 1-based: node i's children are 2i and 2i+1, proc
  /// p's leaf is nodes_[leaf0_ + p], and nodes_[1] is the minimum, with
  /// leaf0_ = bit_ceil(n_procs). The calendar backend keeps only the
  /// leaves (each proc's last pushed event, leaf0_ = 0) for the contract
  /// checks.
  std::size_t leaf0_ = 0;
  std::vector<Word> nodes_;
  /// The last popped event until its proc is re-armed or retired.
  Word popped_ = kEmpty;

  // Calendar state. cur_epoch_ is the integer index of the day being
  // scanned (bucket = cur_epoch_ & mask_); epochs are recomputed from
  // timestamps with the same expression everywhere, so there is no
  // incremental floating-point drift.
  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;           ///< bucket count - 1 (power of two)
  double width_ = kDefaultWidth;   ///< seconds per day
  std::uint64_t cur_epoch_ = 0;
  /// Pushes + pops since the last rebuild; rate-limits the adaptive
  /// width re-fits (hot bucket / empty year) to amortized O(1).
  std::size_t ops_since_rebuild_ = 0;
  /// True once a rebuild has fitted width_ to a population with a
  /// nonzero time spread. Until then the width is the arbitrary
  /// default, and a hot bucket spanning distinct times may trigger an
  /// eager re-fit without waiting out the rate limit — otherwise the
  /// entire initial population lands in a handful of days and every
  /// push pays a long memmove until ops_since_rebuild_ catches up.
  bool fitted_ = false;

  static constexpr double kDefaultWidth = 1.0e-6;
  /// Floor on the fitted day width. Only guards the epoch computation
  /// against uint64 overflow (t / width < 2^64 holds for t up to ~10^7
  /// simulated seconds); it must stay far below the fitted width for
  /// dense populations (2 * span / size ~ 3e-10 for a million events
  /// spread over tens of microseconds), or clamping packs many events
  /// per day and every pop pays a hot-bucket re-fit.
  static constexpr double kMinWidth = 1.0e-12;
  /// A visited bucket holding more than this many events triggers a
  /// width re-fit (subject to the ops_since_rebuild_ rate limit).
  static constexpr std::size_t kHotBucket = 16;
};

}  // namespace emc::sim
