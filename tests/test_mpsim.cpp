#include "src/mpsim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/fault/plan.hpp"

namespace ardbt::mpsim {
namespace {

TEST(Engine, RunsAllRanks) {
  std::atomic<int> count{0};
  const RunReport report = run(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 5);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_EQ(report.ranks.size(), 5u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Engine, RejectsNonPositiveRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Engine, PointToPointDeliversPayload) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double data[] = {1.5, 2.5, 3.5};
      comm.send(1, /*tag=*/7, std::span<const double>(data, 3));
    } else {
      std::vector<double> buf(3);
      comm.recv_into(0, 7, std::span<double>(buf));
      EXPECT_EQ(buf[0], 1.5);
      EXPECT_EQ(buf[2], 3.5);
    }
  });
}

TEST(Engine, TypedValueRoundTrip) {
  run(2, [](Comm& comm) {
    struct Payload {
      int a;
      double b;
    };
    if (comm.rank() == 0) {
      comm.send_value(1, 1, Payload{42, 2.5});
    } else {
      const auto p = comm.recv_value<Payload>(0, 1);
      EXPECT_EQ(p.a, 42);
      EXPECT_EQ(p.b, 2.5);
    }
  });
}

TEST(Engine, FifoOrderPerSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Engine, TagsMatchIndependently) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, /*tag=*/1, 100);
      comm.send_value(1, /*tag=*/2, 200);
    } else {
      // Receive in the opposite order of sending: tag matching must pick
      // the right message regardless of queue position.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Engine, SelfSendWorks) {
  run(1, [](Comm& comm) {
    comm.send_value(0, 5, 3.25);
    EXPECT_EQ(comm.recv_value<double>(0, 5), 3.25);
  });
}

TEST(Engine, ExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       throw std::runtime_error("rank 0 boom");
                     }
                     // Ranks 1, 2 block forever waiting for a message that
                     // never comes; the abort must wake them.
                     (void)comm.recv_bytes((comm.rank() + 1) % 3, 9);
                   }),
               std::runtime_error);
}

TEST(Engine, StatsCountMessagesAndBytes) {
  const RunReport report = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double data[16] = {};
      comm.send(1, 1, std::span<const double>(data, 16));
    } else {
      std::vector<double> buf(16);
      comm.recv_into(0, 1, std::span<double>(buf));
    }
  });
  EXPECT_EQ(report.ranks[0].msgs_sent, 1u);
  EXPECT_EQ(report.ranks[0].bytes_sent, 16u * 8u);
  EXPECT_EQ(report.ranks[1].msgs_received, 1u);
  EXPECT_EQ(report.ranks[1].bytes_received, 16u * 8u);
}

TEST(Engine, ChargedFlopsModeIsDeterministic) {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 1e-6;
  options.cost.beta = 1e-9;

  auto body = [](Comm& comm) {
    comm.charge_flops(2e9);  // 2 virtual seconds of compute
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 1);
    } else {
      (void)comm.recv_value<int>(0, 1);
    }
  };
  const RunReport r1 = run(2, body, options);
  const RunReport r2 = run(2, body, options);
  EXPECT_DOUBLE_EQ(r1.ranks[0].virtual_time, r2.ranks[0].virtual_time);
  EXPECT_DOUBLE_EQ(r1.ranks[1].virtual_time, r2.ranks[1].virtual_time);
  // Rank 0: 2 s compute + alpha send overhead.
  EXPECT_NEAR(r1.ranks[0].virtual_time, 2.0 + 1e-6, 1e-12);
  // Rank 1: its own 2 s dominate the message availability (2 s + alpha +
  // 4 bytes * beta), so no wait is added beyond its own clock.
  EXPECT_NEAR(r1.ranks[1].virtual_time, 2.0 + 1e-6 + 4e-9, 1e-9);
}

TEST(Engine, VirtualWaitChargedWhenReceiverIsEarly) {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 0.5;  // exaggerated latency
  options.cost.beta = 0.0;

  const RunReport report = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.charge_flops(1e9);  // sender works 1 virtual second first
      comm.send_value(1, 1, 1);
    } else {
      (void)comm.recv_value<int>(0, 1);  // receiver posts at t = 0
    }
  }, options);
  // Message available at 1.0 + 0.5; receiver waited that long.
  EXPECT_NEAR(report.ranks[1].virtual_time, 1.5, 1e-9);
  EXPECT_NEAR(report.ranks[1].virtual_wait, 1.5, 1e-9);
}

TEST(Engine, MeasuredCpuModeAccumulatesCpuSeconds) {
  const RunReport report = run(1, [](Comm& comm) {
    // Busy-loop in chunks until the thread CPU clock registers progress;
    // some kernels tick it as coarsely as 10 ms.
    volatile double sink = 0.0;
    for (int chunk = 0; chunk < 100 && comm.vtime() == 0.0; ++chunk) {
      for (int i = 0; i < 4000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
      comm.sync_compute();
    }
    EXPECT_GT(comm.vtime(), 0.0);
  });
  EXPECT_GT(report.ranks[0].cpu_seconds, 0.0);
  EXPECT_NEAR(report.ranks[0].virtual_time, report.ranks[0].cpu_seconds, 1e-6);
}

TEST(Engine, TotalsAggregate) {
  const RunReport report = run(3, [](Comm& comm) {
    comm.charge_flops(100.0);
    if (comm.rank() > 0) comm.send_value(0, 1, comm.rank());
    if (comm.rank() == 0) {
      (void)comm.recv_value<int>(1, 1);
      (void)comm.recv_value<int>(2, 1);
    }
  });
  const RankStats totals = report.totals();
  EXPECT_EQ(totals.msgs_sent, 2u);
  EXPECT_EQ(totals.msgs_received, 2u);
  EXPECT_DOUBLE_EQ(totals.flops_charged, 300.0);
  EXPECT_EQ(report.max_virtual_time(),
            std::max({report.ranks[0].virtual_time, report.ranks[1].virtual_time,
                      report.ranks[2].virtual_time}));
}

// ---------------------------------------------------------- rank threads

/// A deterministic ChargedFlops body: per-rank compute, then a ring
/// exchange of rank-dependent sizes and a gather at rank 0.
void healthy_body(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  for (int round = 0; round < 3; ++round) {
    comm.charge_flops(1e6 * (r + 1) * (round + 1));
    std::vector<double> out(static_cast<std::size_t>(4 * (r + 1) + round), 1.0 * r);
    comm.send((r + 1) % p, 10 + round, std::span<const double>(out));
    const int from = (r + p - 1) % p;
    std::vector<double> in(static_cast<std::size_t>(4 * (from + 1) + round));
    comm.recv_into(from, 10 + round, std::span<double>(in));
  }
  if (r != 0) {
    comm.send_value(0, 20, r);
  } else {
    for (int src = 1; src < p; ++src) EXPECT_EQ(comm.recv_value<int>(src, 20), src);
  }
}

EngineOptions charged_options() {
  EngineOptions options;
  options.timing = TimingMode::ChargedFlops;
  options.cost.flop_rate = 1e9;
  options.cost.alpha = 1e-6;
  options.cost.beta = 1e-9;
  return options;
}

void expect_same_report(const RunReport& a, const RunReport& b, const char* after) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << after;
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].virtual_time, b.ranks[r].virtual_time) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].virtual_wait, b.ranks[r].virtual_wait) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].msgs_sent, b.ranks[r].msgs_sent) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].msgs_received, b.ranks[r].msgs_received) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].bytes_received, b.ranks[r].bytes_received) << after << " rank " << r;
    EXPECT_EQ(a.ranks[r].flops_charged, b.ranks[r].flops_charged) << after << " rank " << r;
  }
}

TEST(RankThreads, FailedRunLeavesNothingForTheNext) {
  // Rank threads are reused across runs, so each failure mode must leave
  // the next run in the same process exactly as a fresh one would be.
  const EngineOptions options = charged_options();
  const RunReport fresh = run(4, healthy_body, options);
  EXPECT_GT(fresh.max_virtual_time(), 0.0);

  struct Failure {
    const char* name;
    std::function<void()> trigger;
  };
  const std::vector<Failure> failures = {
      {"root-cause throw",
       [&] {
         EXPECT_THROW(run(4,
                          [](Comm& comm) {
                            comm.send_value((comm.rank() + 1) % 4, 1, comm.rank());
                            if (comm.rank() == 2) throw std::runtime_error("rank 2 boom");
                            (void)comm.recv_value<int>((comm.rank() + 3) % 4, 1);
                            (void)comm.recv_value<int>(2, 2);  // never sent
                          },
                          options),
                      std::runtime_error);
       }},
      {"AbortedError cascade",
       [&] {
         EXPECT_THROW(run(4,
                          [](Comm& comm) {
                            if (comm.rank() == 3) throw AbortedError();
                            (void)comm.recv_value<int>(comm.rank() + 1, 3);
                          },
                          options),
                      AbortedError);
       }},
      {"injected crash",
       [&] {
         fault::FaultPlan plan;
         plan.crash_before_send(1, 1);
         EngineOptions crash = options;
         crash.fault_plan = &plan;
         EXPECT_THROW(run(4, healthy_body, crash), fault::InjectedCrashError);
       }},
      {"recv_timeout_wall deadline",
       [&] {
         EngineOptions deadline = options;
         deadline.recv_timeout_wall = 0.05;
         EXPECT_THROW(run(4,
                          [](Comm& comm) {
                            // Rank 0 finishes without sending: rank 1 waits on a
                            // live-but-silent peer until the wall deadline.
                            if (comm.rank() == 1) (void)comm.recv_value<int>(0, 4);
                          },
                          deadline),
                      fault::DeadlineError);
       }},
  };
  for (const Failure& f : failures) {
    f.trigger();
    expect_same_report(fresh, run(4, healthy_body, options), f.name);
  }
}

TEST(RankThreads, RankZeroRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  run(3, [&](Comm& comm) { ids[static_cast<std::size_t>(comm.rank())] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], caller);
  EXPECT_NE(ids[1], caller);
  EXPECT_NE(ids[2], caller);
  EXPECT_NE(ids[1], ids[2]);
  std::thread::id solo;
  run(1, [&](Comm&) { solo = std::this_thread::get_id(); });
  EXPECT_EQ(solo, caller);
}

std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(RankThreads, RepeatedRunsReuseWorkers) {
  const std::ptrdiff_t before = thread_count();
  std::atomic<int> ranks_run{0};
  for (int i = 0; i < 1000; ++i) {
    run(4, [&](Comm& comm) {
      comm.send_value((comm.rank() + 1) % 4, 1, i);
      EXPECT_EQ(comm.recv_value<int>((comm.rank() + 3) % 4, 1), i);
      ranks_run.fetch_add(1);
    });
  }
  EXPECT_EQ(ranks_run.load(), 4000);
  EXPECT_LE(thread_count(), before + 3);
}

TEST(RankThreads, ConcurrentAndNestedRunsComplete) {
  const EngineOptions options = charged_options();
  const RunReport reference = run(4, healthy_body, options);
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const RunReport got = run(4, healthy_body, options);
        for (std::size_t r = 0; r < got.ranks.size(); ++r) {
          if (got.ranks[r].virtual_time != reference.ranks[r].virtual_time ||
              got.ranks[r].bytes_sent != reference.ranks[r].bytes_sent) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Every rank of an outer run starts an inner run of its own.
  std::atomic<int> inner_ranks{0};
  run(3, [&](Comm& outer) {
    const RunReport inner = run(2, [&](Comm& comm) {
      comm.send_value(1 - comm.rank(), 1, outer.rank());
      EXPECT_EQ(comm.recv_value<int>(1 - comm.rank(), 1), outer.rank());
      inner_ranks.fetch_add(1);
    });
    EXPECT_EQ(inner.ranks.size(), 2u);
    outer.send_value((outer.rank() + 1) % 3, 2, outer.rank());
    EXPECT_EQ(outer.recv_value<int>((outer.rank() + 2) % 3, 2), (outer.rank() + 2) % 3);
  });
  EXPECT_EQ(inner_ranks.load(), 6);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(RankThreads, MeasuredCpuExcludesCallerWorkBeforeTheRun) {
  // Burn CPU on the calling thread first: rank 0 runs on this thread, and
  // must charge only what it spends inside the run.
  const double start = thread_cpu_seconds();
  volatile double sink = 0.0;
  while (thread_cpu_seconds() - start < 0.05) {
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  }
  const double burned = thread_cpu_seconds() - start;
  const RunReport report = run(1, [](Comm&) {});
  EXPECT_LT(report.ranks[0].cpu_seconds, 0.5 * burned);
  EXPECT_LT(report.ranks[0].virtual_time, 0.5 * burned);
}

TEST(CostModel, MessageTimeAndProfiles) {
  CostModel m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  EXPECT_DOUBLE_EQ(m.message_time(1000), 1e-6 + 1e-6);
  EXPECT_GT(CostModel::cluster2014().flop_rate, 0.0);
  EXPECT_GT(CostModel::slow_ethernet().alpha, CostModel::cluster2014().alpha);
  EXPECT_EQ(CostModel::free_comm().alpha, 0.0);
}

}  // namespace
}  // namespace ardbt::mpsim
