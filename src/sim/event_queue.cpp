#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace emc::sim {

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBinaryHeap:
      return "heap";
    case SchedulerKind::kCalendarQueue:
      return "calendar";
  }
  return "?";
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "heap") return SchedulerKind::kBinaryHeap;
  if (name == "calendar" || name == "calendar-queue") {
    return SchedulerKind::kCalendarQueue;
  }
  throw std::invalid_argument("parse_scheduler: unknown scheduler '" +
                              name + "'");
}

EventQueue::EventQueue(SchedulerKind kind, int n_procs)
    : kind_(kind), n_procs_(n_procs) {
  if (n_procs < 1) throw std::invalid_argument("EventQueue: n_procs < 1");
  const auto procs = static_cast<std::size_t>(n_procs);
  if (kind_ == SchedulerKind::kBinaryHeap) {
    leaf0_ = std::bit_ceil(procs);
    nodes_.assign(2 * leaf0_, kEmpty);
    return;
  }
  nodes_.assign(procs, kEmpty);
  const std::size_t n_buckets =
      std::bit_ceil(std::max<std::size_t>(16, procs));
  buckets_.resize(n_buckets);
  mask_ = n_buckets - 1;
}

void EventQueue::cal_push(Word entry) {
  const double time = word_time(entry);
  // Eager width fit: while the width is still the unfitted default,
  // pushing into an already-hot bucket that spans distinct times means
  // the default is badly wrong for this population — re-fit now instead
  // of paying a long memmove per push until the rate limit expires.
  // Equal-time bursts (min == max) never trigger this; they stay on the
  // O(1) append path and a re-fit could not spread them anyway.
  if (!fitted_ && size_ >= 64) {
    const Bucket& b = buckets_[epoch_of(time) & mask_];
    if (b.entries.size() - b.head > kHotBucket &&
        word_time(b.entries[b.head]) != word_time(b.entries.back())) {
      rebuild(size_);
    }
  }
  const std::uint64_t epoch = epoch_of(time);
  Bucket& bucket = buckets_[epoch & mask_];
  if (bucket.empty()) {
    // Reclaim the dead prefix before starting a new population.
    bucket.entries.clear();
    bucket.head = 0;
    bucket.entries.push_back(entry);
  } else if (!(entry < bucket.entries.back())) {
    bucket.entries.push_back(entry);
  } else {
    // Out-of-order push: binary-insert into the live range. Rare in
    // DES usage (times and tie-break keys are pushed near-monotone);
    // cost is the tail memmove, not a later re-sort.
    const auto it = std::upper_bound(
        bucket.entries.begin() +
            static_cast<std::ptrdiff_t>(bucket.head),
        bucket.entries.end(), entry);
    bucket.entries.insert(it, entry);
  }
  ++size_;
  ++ops_since_rebuild_;
  // An event scheduled before the current scan day rewinds the scan so
  // it cannot be skipped (DES pops are monotone, so this is rare).
  if (epoch < cur_epoch_) cur_epoch_ = epoch;
  if (size_ > 2 * (mask_ + 1)) rebuild(size_);
}

EventQueue::Word EventQueue::take_front(Bucket& bucket) {
  const Word e = bucket.min();
  ++bucket.head;
  if (bucket.empty()) {
    bucket.entries.clear();
    bucket.head = 0;
  }
  --size_;
  const std::size_t n_buckets = mask_ + 1;
  if (n_buckets > 64 && size_ * 4 < n_buckets) rebuild(n_buckets / 2);
  return e;
}

EventQueue::Word EventQueue::cal_pop() {
  ++ops_since_rebuild_;
  std::size_t scanned = 0;
  while (true) {
    Bucket& bucket = buckets_[cur_epoch_ & mask_];
    if (!bucket.empty()) {
      // A bucket holding many live events means the day width is far
      // too wide for the population (clustered event times), making
      // every out-of-order push pay a long memmove. Re-fit the width to
      // the population's actual spread — rate-limited to once per
      // `size_` operations so an irreducible equal-time burst (span 0,
      // width unchanged) cannot thrash.
      if (bucket.entries.size() - bucket.head > kHotBucket &&
          size_ >= 64 &&
          (ops_since_rebuild_ > size_ ||
           (!fitted_ &&
            word_time(bucket.entries[bucket.head]) !=
                word_time(bucket.entries.back())))) {
        rebuild(size_);
        scanned = 0;
        continue;
      }
      if (epoch_of(word_time(bucket.min())) <= cur_epoch_) {
        return take_front(bucket);
      }
    }
    ++cur_epoch_;
    if (++scanned > mask_ + 1) {
      // A whole year of days without a due event: the population is
      // sparse relative to the current width. Re-fit (widening the
      // days) when allowed; otherwise fall back to a direct minimum
      // search.
      if (size_ >= 64 && ops_since_rebuild_ > size_) {
        rebuild(size_);
        scanned = 0;
        continue;
      }
      return direct_search();
    }
  }
}

EventQueue::Word EventQueue::direct_search() {
  Bucket* best = nullptr;
  for (Bucket& bucket : buckets_) {
    if (bucket.empty()) continue;
    if (best == nullptr || bucket.min() < best->min()) {
      best = &bucket;
    }
  }
  // size_ > 0 is the caller's precondition, so best is never null.
  cur_epoch_ = epoch_of(word_time(best->min()));
  return take_front(*best);
}

void EventQueue::rebuild(std::size_t n_buckets) {
  ops_since_rebuild_ = 0;
  const std::size_t nb =
      std::bit_ceil(std::max<std::size_t>(16, n_buckets));
  // Collect the live population and its time spread.
  std::vector<Word> all;
  all.reserve(size_);
  for (Bucket& bucket : buckets_) {
    all.insert(all.end(),
               bucket.entries.begin() +
                   static_cast<std::ptrdiff_t>(bucket.head),
               bucket.entries.end());
    bucket.entries.clear();
    bucket.entries.shrink_to_fit();
    bucket.head = 0;
  }
  buckets_.resize(nb);
  mask_ = nb - 1;
  if (all.empty()) return;
  double min_time = word_time(all.front());
  double max_time = min_time;
  for (const Word e : all) {
    min_time = std::min(min_time, word_time(e));
    max_time = std::max(max_time, word_time(e));
  }
  const double span = max_time - min_time;
  if (span > 0.0) {
    // Aim for ~0.5 events per day at the current population: the day
    // is twice the mean inter-event gap.
    width_ = std::max(kMinWidth,
                      2.0 * span / static_cast<double>(all.size()));
    fitted_ = true;
  }
  cur_epoch_ = epoch_of(min_time);
  // Insert in globally sorted order so every bucket append hits the
  // O(1) fast path.
  std::sort(all.begin(), all.end());
  for (const Word e : all) {
    Bucket& bucket = buckets_[epoch_of(word_time(e)) & mask_];
    bucket.entries.push_back(e);
  }
}

}  // namespace emc::sim
