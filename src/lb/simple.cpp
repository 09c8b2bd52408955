#include "lb/simple.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace emc::lb {

namespace {
void check_parts(int n_parts) {
  if (n_parts < 1) throw std::invalid_argument("balancer: n_parts < 1");
}
}  // namespace

Assignment block_assignment(std::size_t n_tasks, int n_parts) {
  check_parts(n_parts);
  Assignment a(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    a[t] = static_cast<int>(t * static_cast<std::size_t>(n_parts) / n_tasks);
  }
  return a;
}

Assignment cyclic_assignment(std::size_t n_tasks, int n_parts) {
  check_parts(n_parts);
  Assignment a(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    a[t] = static_cast<int>(t % static_cast<std::size_t>(n_parts));
  }
  return a;
}

Assignment lpt_assignment(std::span<const double> weights, int n_parts) {
  check_parts(n_parts);
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });

  // Min-heap of (load, part), starting sorted. Parts are distinct, so
  // the minimum is unique; each task raises it in place and sifts it
  // down once instead of a pop plus a push.
  using Entry = std::pair<double, int>;
  const auto n = static_cast<std::size_t>(n_parts);
  std::vector<Entry> heap(n);
  for (std::size_t p = 0; p < n; ++p) heap[p] = {0.0, static_cast<int>(p)};

  Assignment a(weights.size(), -1);
  for (std::size_t t : order) {
    const Entry raised{heap[0].first + weights[t], heap[0].second};
    a[t] = raised.second;
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && heap[c + 1] < heap[c]) ++c;
      if (!(heap[c] < raised)) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = raised;
  }
  return a;
}

}  // namespace emc::lb
