// Differential determinism tests for the calendar-queue pending-set
// policy: the (time, seq) contract says the heap and calendar policies
// must produce byte-identical event orders for ANY workload — across
// bucket resizes, year advances, underflow re-basing, lazy sorts and
// compaction.  Each scenario drives both queues through the same scripted
// push/pop/cancel sequence and compares the fired (time, id) traces.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace emcast::sim {
namespace {

struct TraceEvent {
  Time time;
  int id;
  bool operator==(const TraceEvent&) const = default;
};

/// One scripted operation, pre-generated so both queues see exactly the
/// same sequence (the script must not depend on queue internals).
struct Op {
  enum Kind { kPush, kPop, kCancel } kind;
  double time = 0.0;    // kPush
  std::size_t victim = 0;  // kCancel: index into the handle log
};

template <typename Queue>
std::vector<TraceEvent> run_script(const std::vector<Op>& ops, Queue& q) {
  std::vector<TraceEvent> trace;
  std::vector<EventHandle> handles;
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = next_id++;
        handles.push_back(q.push(op.time, [&trace, id] {
          trace.push_back(TraceEvent{0.0, id});  // time patched below
        }));
        break;
      }
      case Op::kPop: {
        if (q.empty()) break;
        auto fired = q.pop();
        const std::size_t at = trace.size();
        fired.fn();
        EXPECT_EQ(trace.size(), at + 1) << "event did not record itself";
        trace.back().time = fired.time;
        break;
      }
      case Op::kCancel: {
        if (handles.empty()) break;
        handles[op.victim % handles.size()].cancel();
        break;
      }
    }
  }
  while (!q.empty()) {
    auto fired = q.pop();
    const std::size_t at = trace.size();
    fired.fn();
    EXPECT_EQ(trace.size(), at + 1);
    trace.back().time = fired.time;
  }
  return trace;
}

template <typename Queue>
std::vector<TraceEvent> run_script(const std::vector<Op>& ops) {
  Queue q;
  return run_script(ops, q);
}

void expect_identical(const std::vector<Op>& ops) {
  const auto heap_trace = run_script<HeapEventQueue>(ops);
  const auto cal_trace = run_script<CalendarEventQueue>(ops);
  ASSERT_EQ(heap_trace.size(), cal_trace.size());
  for (std::size_t i = 0; i < heap_trace.size(); ++i) {
    ASSERT_EQ(heap_trace[i], cal_trace[i]) << "divergence at event " << i;
  }
}

std::vector<Op> random_workload(std::uint64_t seed, int n, double pop_bias,
                                double cancel_bias, auto&& time_of) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform();
    if (r < pop_bias) {
      ops.push_back(Op{Op::kPop, 0.0, 0});
    } else if (r < pop_bias + cancel_bias) {
      ops.push_back(Op{Op::kCancel, 0.0,
                       static_cast<std::size_t>(rng.uniform_int(0, 1 << 20))});
    } else {
      ops.push_back(Op{Op::kPush, time_of(rng), 0});
    }
  }
  return ops;
}

TEST(CalendarDeterminism, UniformPushPopCancel) {
  expect_identical(random_workload(
      11, 6000, 0.3, 0.15, [](util::Rng& r) { return r.uniform(0.0, 1e3); }));
}

TEST(CalendarDeterminism, HeavySimultaneityTieBreaksBySequence) {
  // Few distinct timestamps: ties everywhere, including inside one bucket.
  expect_identical(random_workload(12, 4000, 0.25, 0.1, [](util::Rng& r) {
    return static_cast<double>(r.uniform_int(0, 7)) * 2.5;
  }));
}

TEST(CalendarDeterminism, BurstyClustersAcrossRebuilds) {
  // Tight clusters spaced far apart: stresses lazy intra-bucket sorting
  // and the day-width estimator across grow/shrink rebuilds.
  expect_identical(random_workload(13, 6000, 0.3, 0.1, [](util::Rng& r) {
    return static_cast<double>(r.uniform_int(0, 31)) * 1e3 +
           r.uniform(0.0, 1e-3);
  }));
}

TEST(CalendarDeterminism, FarHorizonExercisesOverflowYear) {
  expect_identical(random_workload(14, 6000, 0.3, 0.1, [](util::Rng& r) {
    return r.uniform() < 0.8 ? r.uniform(0.0, 10.0)
                             : r.uniform(1e6, 1e9);
  }));
}

TEST(CalendarDeterminism, DescendingPushesRebaseTheYear) {
  // Every push is a new global minimum: worst case for year re-basing.
  std::vector<Op> ops;
  for (int i = 0; i < 3000; ++i) {
    ops.push_back(Op{Op::kPush, 3000.0 - i, 0});
  }
  expect_identical(ops);
}

TEST(CalendarDeterminism, NegativeTimesAndSignedZeros) {
  expect_identical(random_workload(15, 3000, 0.25, 0.1, [](util::Rng& r) {
    const double t = r.uniform(-500.0, 500.0);
    return t < 1.0 && t > -1.0 ? (t < 0 ? -0.0 : +0.0) : t;
  }));
}

TEST(CalendarDeterminism, DrainRefillCyclesReaimTheYear) {
  // Repeated full drains exercise the O(1) empty-queue re-aim path and
  // the shrink rebuilds back to the minimum bucket count.
  std::vector<Op> ops;
  util::Rng rng(16);
  double base = 0.0;
  for (int round = 0; round < 20; ++round) {
    const int burst = 5 + static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < burst; ++i) {
      ops.push_back(Op{Op::kPush, base + rng.uniform(0.0, 50.0), 0});
    }
    for (int i = 0; i < burst + 5; ++i) ops.push_back(Op{Op::kPop, 0.0, 0});
    base += 1e4;  // jump the horizon so every refill re-aims
  }
  expect_identical(ops);
}

TEST(CalendarQueue, HoldAcrossBinadesKeepsBucketsUncrowded) {
  // The classic hold model: a steady population of self-rescheduling
  // events, each popped and re-pushed an exponential hold time later,
  // driven from t~0.5 s to t=64 s.  The integer time image halves its
  // key density per binade of t, so a day width derived near t=0.5 spans
  // ~128x more events by t=64: without the crowding trigger the front
  // bucket grows to hundreds of entries and every push into it forces a
  // re-sort (~14 sorted entries per pop).  The script is derived from a
  // reference min-queue of times, so any correct policy replays it.
  constexpr int kPopulation = 2000;
  constexpr double kMeanHold = 0.64;
  constexpr double kEnd = 64.0;
  util::Rng rng(21);
  std::vector<Op> ops;
  std::priority_queue<double, std::vector<double>, std::greater<>> times;
  for (int i = 0; i < kPopulation; ++i) {
    const double t = 0.5 + rng.exponential(kMeanHold);
    times.push(t);
    ops.push_back(Op{Op::kPush, t, 0});
  }
  for (;;) {
    const double t = times.top();
    times.pop();
    ops.push_back(Op{Op::kPop, 0.0, 0});
    if (t >= kEnd) break;
    const double next = t + rng.exponential(kMeanHold);
    times.push(next);
    ops.push_back(Op{Op::kPush, next, 0});
  }
  expect_identical(ops);

  CalendarEventQueue q;
  const std::size_t pops = run_script(ops, q).size();
  ASSERT_GT(pops, 150000u);
  const auto& cal = q.pending_policy();
  const double sorted_per_pop =
      static_cast<double>(cal.sorted_entry_count()) /
      static_cast<double>(pops);
  EXPECT_LT(sorted_per_pop, 3.0)
      << "front buckets crowd as t grows: the day width went stale";

  // The re-derivations stay inside the arenas the promotion rebuild
  // reserved: the whole hold ends at the capacities of its first pushes.
  CalendarEventQueue warm;
  run_script(std::vector<Op>(ops.begin(), ops.begin() + kPopulation), warm);
  const auto& fresh = warm.pending_policy();
  EXPECT_GT(cal.rebuild_count(), fresh.rebuild_count());
  EXPECT_EQ(cal.pool_capacity(), fresh.pool_capacity());
  EXPECT_EQ(cal.heads_capacity(), fresh.heads_capacity());
  EXPECT_EQ(cal.scratch_capacity(), fresh.scratch_capacity());
  EXPECT_EQ(cal.overflow().capacity(), fresh.overflow().capacity());
}

TEST(CalendarQueue, WorkloadActuallyExercisesTheCalendarMachinery) {
  // White-box: the differential scenarios above are only meaningful if
  // they actually drive resizes and the overflow year, so pin that here.
  // (An 8% far tail: under the day-width estimator's 90th-percentile
  // trim, so the tail rides the overflow year — and, at ~320 records,
  // above the small-mode floor, so the in-year events exhaust and the
  // year advances while the policy is still in calendar mode.)
  CalendarEventQueue q;
  util::Rng rng(17);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.uniform() < 0.92 ? rng.uniform(0.0, 10.0)
                                          : rng.uniform(1e6, 1e9);
    handles.push_back(q.push(t, [] {}));
  }
  const auto& cal = q.pending_policy();
  EXPECT_FALSE(cal.small_mode());
  EXPECT_GT(cal.bucket_count(), 16u) << "bucket count never grew";
  EXPECT_GT(cal.overflow_count(), 255u) << "overflow year never used";
  EXPECT_GT(cal.rebuild_count(), 0u);
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  double prev = -1.0;
  std::size_t popped = 0;
  std::uint64_t advances_while_calendar = 0;
  while (!q.empty()) {
    if (!cal.small_mode()) advances_while_calendar = cal.year_advance_count();
    const auto fired = q.pop();
    EXPECT_GE(fired.time, prev);
    prev = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, 4000u - (4000u + 2) / 3);
  EXPECT_GT(advances_while_calendar, 0u) << "year never advanced";
}

TEST(CalendarQueue, SmallPopulationsRunOnTheHeapPolicyPath) {
  // Size-adaptive small mode: below the threshold every structured entry
  // lives in the overflow heap and the bucket machinery stays cold.
  CalendarEventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.push(static_cast<double>(i), [] {}));
  }
  const auto& cal = q.pending_policy();
  EXPECT_TRUE(cal.small_mode());
  EXPECT_EQ(cal.in_bucket_count(), 0u) << "buckets touched below threshold";
  EXPECT_EQ(cal.rebuild_count(), 0u);
  EXPECT_EQ(cal.overflow_count(), 999u);  // population minus the front
  double prev = -1.0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, prev);
    prev = fired.time;
  }
  EXPECT_EQ(cal.mode_switches(), 0u);
}

TEST(CalendarQueue, ModeTransitionsHaveHysteresisAndPreserveOrder) {
  // Grow through the upgrade threshold, drain through the collapse
  // threshold, and check the pop stream stays exactly (time, seq)-sorted
  // across both transitions.
  CalendarEventQueue q;
  const int n = 3000;
  util::Rng rng(18);
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(rng.uniform(0.0, 100.0));
  for (const double t : times) q.push(t, [] {});
  const auto& cal = q.pending_policy();
  EXPECT_FALSE(cal.small_mode()) << "upgrade threshold never crossed";
  EXPECT_EQ(cal.mode_switches(), 1u);
  EXPECT_GT(cal.in_bucket_count(), 0u);
  double prev = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto fired = q.pop();
    ASSERT_GE(fired.time, prev) << "order broke at pop " << popped;
    prev = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, static_cast<std::size_t>(n));
  EXPECT_TRUE(cal.small_mode()) << "collapse threshold never crossed";
  EXPECT_EQ(cal.mode_switches(), 2u);
  EXPECT_EQ(cal.in_bucket_count(), 0u);
}

TEST(CalendarQueue, CompactionPurgesDeadRecordsInBucketsAndOverflow) {
  CalendarEventQueue q;
  std::vector<EventHandle> handles;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    // Half near-term (buckets), half far-future (overflow year).
    const double t = i % 2 == 0 ? 1.0 + i : 1e9 + i;
    handles.push_back(q.push(t, [] {}));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // Compaction must have reclaimed dead records in both regions.
  EXPECT_LT(q.size_including_dead(), 600u);
  EXPECT_EQ(q.live_count(), 200u);
  std::size_t popped = 0;
  double prev = 0.0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GT(fired.time, prev);
    prev = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, 200u);
}

template <typename Sim>
std::vector<std::pair<Time, int>> drive_kernel() {
  // A self-rescheduling workload with jitter and cancellations, driven
  // end-to-end through BasicSimulator.
  Sim sim;
  std::vector<std::pair<Time, int>> trace;
  util::Rng rng(18);
  struct Tick {
    Sim* s;
    std::vector<std::pair<Time, int>>* out;
    util::Rng* rng;
    int id;
    int* budget;
    void operator()() const {
      out->emplace_back(s->now(), id);
      if (--*budget > 0) {
        const double jitter = rng->uniform(0.0, 0.5);
        s->schedule_in(0.01 + jitter, Tick{s, out, rng, id + 1, budget});
        if (rng->uniform() < 0.2) {
          // Shoot-and-cancel: a decoy that must never fire.
          auto h = s->schedule_in(jitter, Tick{s, out, rng, -1, budget});
          h.cancel();
        }
      }
    }
  };
  int budget = 3000;
  sim.schedule_in(0.0, Tick{&sim, &trace, &rng, 0, &budget});
  sim.run();
  return trace;
}

TEST(CalendarSimulator, FullKernelMatchesHeapKernel) {
  const auto cal_trace = drive_kernel<Simulator>();
  const auto heap_trace = drive_kernel<HeapSimulator>();
  ASSERT_EQ(cal_trace.size(), heap_trace.size());
  for (std::size_t i = 0; i < cal_trace.size(); ++i) {
    ASSERT_EQ(cal_trace[i], heap_trace[i]) << "kernel divergence at " << i;
  }
  for (const auto& [t, id] : cal_trace) EXPECT_NE(id, -1);
}

// ---- push_batch / insert_batch -------------------------------------------
//
// Contract: push_batch(times, n, make) is observably identical to n
// sequential push() calls — same sequence numbers in index order, same
// (time, seq) pop order — on both policies, for any time pattern.  The
// batch path's value is purely mechanical (one calendar touch per
// monotone run), so these scripts drive the run splitting and every
// structural edge the per-entry path has: day and year boundaries, the
// overflow year, small mode, and mid-batch grow rebuilds.

struct BatchOp {
  std::vector<double> times;  // one push_batch (or push-loop) call
  int pops = 0;               // pops to perform after the pushes
};

template <typename Queue, bool kBatch>
std::vector<TraceEvent> run_batch_script(const std::vector<BatchOp>& ops) {
  Queue q;
  std::vector<TraceEvent> trace;
  int next_id = 0;
  const auto drain = [&q, &trace](int n) {
    while (n-- > 0 && !q.empty()) {
      auto fired = q.pop();
      const std::size_t at = trace.size();
      fired.fn();
      EXPECT_EQ(trace.size(), at + 1) << "event did not record itself";
      trace.back().time = fired.time;
    }
  };
  for (const BatchOp& op : ops) {
    if (!op.times.empty()) {
      if constexpr (kBatch) {
        q.push_batch(op.times.data(), op.times.size(),
                     [&trace, next_id](std::size_t i) {
                       const int id = next_id + static_cast<int>(i);
                       return [&trace, id] {
                         trace.push_back(TraceEvent{0.0, id});
                       };
                     });
        next_id += static_cast<int>(op.times.size());
      } else {
        for (const double t : op.times) {
          const int id = next_id++;
          q.push(t, [&trace, id] { trace.push_back(TraceEvent{0.0, id}); });
        }
      }
    }
    drain(op.pops);
  }
  drain(1 << 30);
  return trace;
}

void expect_batch_matches_sequential(const std::vector<BatchOp>& ops) {
  const auto seq_heap = run_batch_script<HeapEventQueue, false>(ops);
  const auto bat_heap = run_batch_script<HeapEventQueue, true>(ops);
  const auto seq_cal = run_batch_script<CalendarEventQueue, false>(ops);
  const auto bat_cal = run_batch_script<CalendarEventQueue, true>(ops);
  ASSERT_EQ(bat_heap.size(), seq_heap.size());
  ASSERT_EQ(seq_cal.size(), seq_heap.size());
  ASSERT_EQ(bat_cal.size(), seq_heap.size());
  for (std::size_t i = 0; i < seq_heap.size(); ++i) {
    ASSERT_EQ(bat_heap[i], seq_heap[i]) << "heap batch diverged at " << i;
    ASSERT_EQ(seq_cal[i], seq_heap[i]) << "calendar diverged at " << i;
    ASSERT_EQ(bat_cal[i], seq_heap[i]) << "calendar batch diverged at " << i;
  }
}

TEST(CalendarBatch, MonotoneRunsSplitAtDescents) {
  // One batch holding several nondecreasing runs separated by strict
  // descents (including an exact tie, which extends a run): the splitter
  // must cut exactly at the descents to keep (time, seq) == index order
  // within each insert_run call.
  expect_batch_matches_sequential({
      {{1.0, 2.0, 2.0, 3.0, 0.5, 0.6, 10.0, 9.0, 9.5, 0.1}, 4},
      {{5.0, 4.0, 3.0, 2.0, 1.0}, 0},  // fully descending: all splits
      {{0.05}, 0},                     // below the current front
  });
}

TEST(CalendarBatch, RandomBatchesMatchSequentialPushes) {
  util::Rng rng(23);
  std::vector<BatchOp> ops;
  for (int round = 0; round < 60; ++round) {
    BatchOp op;
    const int m = static_cast<int>(rng.uniform_int(0, 80));
    for (int i = 0; i < m; ++i) {
      // Mostly near-term, an 8% far tail for the overflow year, and a
      // sprinkle of duplicates for seq tie-breaks.
      const double t = rng.uniform() < 0.92 ? rng.uniform(0.0, 10.0)
                                            : rng.uniform(1e6, 1e9);
      op.times.push_back(t);
      if (rng.uniform() < 0.1) op.times.push_back(t);
    }
    // Pre-sort some batches: sorted trains are the hot production shape.
    if (rng.uniform() < 0.5) {
      std::sort(op.times.begin(), op.times.end());
    }
    op.pops = static_cast<int>(rng.uniform_int(0, 40));
    ops.push_back(std::move(op));
  }
  expect_batch_matches_sequential(ops);
}

TEST(CalendarBatch, BatchesCrossDayAndYearBoundaries) {
  // A single monotone train spanning many days of the year, a tail deep
  // in the overflow year, then (after drains) a train below the rebased
  // front.  White-box: confirm this actually leaves small mode and uses
  // the overflow year, so the fast insert_run path (per-bucket chunks +
  // overflow tail) is what's being compared.
  std::vector<BatchOp> ops;
  BatchOp big;
  for (int i = 0; i < 3000; ++i) {
    big.times.push_back(static_cast<double>(i) * 0.01);  // many days
  }
  for (int i = 0; i < 300; ++i) {
    big.times.push_back(1e7 + static_cast<double>(i));  // overflow year
  }
  ops.push_back(std::move(big));
  ops.push_back(BatchOp{{}, 2500});          // drain into the year
  BatchOp low;
  for (int i = 0; i < 64; ++i) {
    low.times.push_back(25.0 + static_cast<double>(i) * 0.001);
  }
  ops.push_back(std::move(low));
  expect_batch_matches_sequential(ops);

  CalendarEventQueue q;
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) times.push_back(static_cast<double>(i) * 0.01);
  for (int i = 0; i < 300; ++i) times.push_back(1e7 + static_cast<double>(i));
  q.push_batch(times.data(), times.size(), [](std::size_t) {
    return [] {};
  });
  const auto& cal = q.pending_policy();
  EXPECT_FALSE(cal.small_mode()) << "batch never left small mode";
  EXPECT_GT(cal.overflow_count(), 0u) << "overflow year never used";
}

TEST(CalendarBatch, SmallModeBatchesAndTheUpgradeSwitch) {
  // A batch that fits small mode stays on the overflow-heap path; a
  // follow-up batch that would overrun kSmallModeMax routes through the
  // per-entry slow path and upgrades to calendar mode mid-batch.  Order
  // must hold across the switch.
  expect_batch_matches_sequential({
      {std::vector<double>(100, 1.0), 0},  // ties: pure seq order
      {[] {
         std::vector<double> t;
         for (int i = 0; i < 2000; ++i) {
           t.push_back(static_cast<double>(i % 97) * 0.25);
         }
         return t;
       }(),
       0},
  });

  CalendarEventQueue q;
  const std::vector<double> small(100, 1.0);
  q.push_batch(small.data(), small.size(), [](std::size_t) { return [] {}; });
  EXPECT_TRUE(q.pending_policy().small_mode());
  std::vector<double> big;
  for (int i = 0; i < 2000; ++i) big.push_back(static_cast<double>(i) * 0.1);
  q.push_batch(big.data(), big.size(), [](std::size_t) { return [] {}; });
  EXPECT_FALSE(q.pending_policy().small_mode())
      << "upgrade threshold never crossed inside the batch";
  EXPECT_GT(q.pending_policy().mode_switches(), 0u);
}

TEST(CalendarBatch, GrowRebuildMidBatchKeepsOrder) {
  // Interleave pops and progressively larger sorted batches so a batch
  // arrives when size + m overruns 2x the bucket count: the insert_run
  // guard must route that batch through the per-entry path (which grows
  // and rebuilds) without disturbing (time, seq) order.
  util::Rng rng(29);
  std::vector<BatchOp> ops;
  double base = 0.0;
  for (int round = 0; round < 12; ++round) {
    BatchOp op;
    const int m = 200 << (round / 4);  // 200 -> 400 -> 800
    for (int i = 0; i < m; ++i) {
      op.times.push_back(base + rng.uniform(0.0, 50.0));
    }
    std::sort(op.times.begin(), op.times.end());
    op.pops = m / 3;
    base += 5.0;
    ops.push_back(std::move(op));
  }
  expect_batch_matches_sequential(ops);
}

}  // namespace
}  // namespace emcast::sim
