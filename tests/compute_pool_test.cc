// ComputePool unit tests plus the determinism guarantee: a TotoroEngine run with
// 1, 2, 4, 8 or the default number of compute threads produces byte-identical
// observability exports, profile trees (wall fields aside) and results.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/fl/compute_pool.h"
#include "src/ml/dataset.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"

namespace totoro {
namespace {

TEST(ComputePoolTest, InlineModeRunsOnSubmitWithoutThreads) {
  ComputePool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::atomic<bool> ran{false};
  size_t slot_seen = 99;
  ComputePool::Ticket ticket = pool.Submit([&](size_t slot) {
    ran.store(true);
    slot_seen = slot;
  });
  // Inline mode runs the task inside Submit — before Wait is ever called — on slot 0.
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(slot_seen, 0u);
  ticket.Wait();
  EXPECT_EQ(pool.tasks_submitted(), 1u);
}

// A task records its phases into its own profile, whichever thread runs it, and the
// join folds that profile into the owner's tree under the phase open at Submit — at
// Wait, not at pool destruction, so a reader of the tree sees every joined task.
TEST(ComputePoolTest, TaskProfilesFoldIntoOwnersTreeAtJoin) {
  uint64_t calls = 0;
  uint64_t nested_calls = 0;
  std::string json;
  // A fresh owner thread gives this test a clean tree.
  std::thread owner([&calls, &nested_calls, &json] {
    GlobalProfiler().SetEnabled(true);
    ComputePool pool(4);
    std::vector<ComputePool::Ticket> tickets;
    {
      ProfileScope submit_phase("submit_phase");
      for (int i = 0; i < 16; ++i) {
        tickets.push_back(pool.Submit([](size_t) { ProfileScope inner("inner_phase"); }));
      }
    }
    for (ComputePool::Ticket& ticket : tickets) {
      ticket.Wait();
      ticket.Wait();  // A second join folds nothing more.
    }
    const Profiler::PhaseNode* node = GlobalProfiler().Find("submit_phase.compute_task");
    calls = node == nullptr ? 0 : node->stats.calls;
    const Profiler::PhaseNode* nested =
        GlobalProfiler().Find("submit_phase.compute_task.inner_phase");
    nested_calls = nested == nullptr ? 0 : nested->stats.calls;
    json = GlobalProfiler().ToJson();
  });
  owner.join();
  EXPECT_EQ(calls, 16u);
  EXPECT_EQ(nested_calls, 16u);
  EXPECT_NE(json.find("compute_task"), std::string::npos);
}

TEST(ComputePoolTest, ThreadedPoolCompletesAllTasksWithCorrectResults) {
  ComputePool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<int> results(64, -1);
  std::vector<ComputePool::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(pool.Submit([&results, i](size_t) {
      results[static_cast<size_t>(i)] = i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    tickets[static_cast<size_t>(i)].Wait();
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
  EXPECT_EQ(pool.tasks_submitted(), 64u);
}

TEST(ComputePoolTest, WaitIsIdempotentOnCopies) {
  ComputePool pool(2);
  int value = 0;
  ComputePool::Ticket ticket = pool.Submit([&value](size_t) { value = 3; });
  ticket.Wait();
  ticket.Wait();
  ComputePool::Ticket copy = ticket;  // Shared state.
  copy.Wait();
  EXPECT_EQ(value, 3);
}

TEST(ComputePoolTest, ExceptionsPropagateToWait) {
  ComputePool pool(2);
  ComputePool::Ticket ticket =
      pool.Submit([](size_t) { throw std::runtime_error("boom"); });
  EXPECT_THROW(ticket.Wait(), std::runtime_error);
}

TEST(ComputePoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<ComputePool::Ticket> tickets;
  {
    ComputePool pool(2);
    for (int i = 0; i < 32; ++i) {
      tickets.push_back(pool.Submit([&ran](size_t) { ran.fetch_add(1); }));
    }
  }
  EXPECT_EQ(ran.load(), 32);
  for (ComputePool::Ticket& ticket : tickets) {
    ticket.Wait();  // Done: returns without touching the destroyed pool.
  }
}

// While the only worker is busy, a waiter runs its own unclaimed task on its own
// thread (slot 0) instead of sleeping behind the worker.
TEST(ComputePoolTest, WaiterRunsUnclaimedTaskOnItsOwnThread) {
  ComputePool pool(2);
  std::atomic<bool> worker_started{false};
  std::atomic<bool> release{false};
  ComputePool::Ticket blocker = pool.Submit([&](size_t) {
    worker_started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!worker_started.load()) {
    std::this_thread::yield();
  }
  std::thread::id ran_on;
  size_t ran_slot = 99;
  ComputePool::Ticket mine = pool.Submit([&](size_t slot) {
    ran_on = std::this_thread::get_id();
    ran_slot = slot;
  });
  mine.Wait();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(ran_slot, 0u);
  release.store(true);
  blocker.Wait();
}

// Thousands of tasks on 8 compute threads (7 workers plus the waiting owner, which
// helps): every task runs exactly once, and no slot ever runs two tasks at a time.
TEST(ComputePoolTest, EveryTaskRunsOnceAndEachSlotRunsOneTaskAtATime) {
  constexpr size_t kTasks = 4000;
  ComputePool pool(8);
  ASSERT_EQ(pool.threads(), 8u);
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::atomic<int>> busy(pool.threads());
  std::atomic<int> overlaps{0};
  std::vector<ComputePool::Ticket> tickets;
  tickets.reserve(kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    tickets.push_back(pool.Submit([&runs, &busy, &overlaps, i](size_t slot) {
      if (busy[slot].fetch_add(1) != 0) {
        overlaps.fetch_add(1);
      }
      runs[i].fetch_add(1);
      volatile double sink = 0.0;
      for (int k = 0; k < 200; ++k) {
        sink = sink + static_cast<double>(k);
      }
      busy[slot].fetch_sub(1);
    }));
  }
  // Join newest first, so the owner mostly finds its own task unclaimed or helps.
  for (size_t i = kTasks; i-- > 0;) {
    tickets[i].Wait();
  }
  EXPECT_EQ(overlaps.load(), 0);
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

// An exception thrown by a task that a helping waiter ran surfaces at that task's own
// ticket, not at the ticket the helper was waiting on.
TEST(ComputePoolTest, ExceptionInHelperRunTaskSurfacesAtItsOwnTicket) {
  ComputePool pool(2);
  std::atomic<bool> worker_started{false};
  std::atomic<bool> release{false};
  // The worker holds this task until the owner, helping, runs `releaser` below.
  ComputePool::Ticket blocker = pool.Submit([&](size_t) {
    worker_started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!worker_started.load()) {
    std::this_thread::yield();
  }
  ComputePool::Ticket thrower =
      pool.Submit([](size_t) { throw std::runtime_error("helper-run task"); });
  ComputePool::Ticket releaser = pool.Submit([&](size_t) { release.store(true); });
  EXPECT_NO_THROW(blocker.Wait());  // Helps: runs `thrower`, then `releaser`.
  EXPECT_THROW(thrower.Wait(), std::runtime_error);
  EXPECT_NO_THROW(releaser.Wait());
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  return static_cast<size_t>(CPU_COUNT(&set));
}

TEST(ComputePoolTest, ThreadsFromEnvParsesAndDefaults) {
  ::setenv("TOTORO_COMPUTE_THREADS", "6", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), 6u);
  ::unsetenv("TOTORO_COMPUTE_THREADS");
  // Unset: the CPUs this process may run on.
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), AffinityCpus());
}

TEST(ComputePoolDeathTest, ThreadsFromEnvRejectsZeroAndJunk) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("TOTORO_COMPUTE_THREADS", "0", 1);
  EXPECT_DEATH(ComputePool::ThreadsFromEnv(),
               "TOTORO_COMPUTE_THREADS=\"0\" is not an integer >= 1");
  ::setenv("TOTORO_COMPUTE_THREADS", "junk", 1);
  EXPECT_DEATH(ComputePool::ThreadsFromEnv(),
               "TOTORO_COMPUTE_THREADS=\"junk\" is not an integer >= 1");
  ::unsetenv("TOTORO_COMPUTE_THREADS");
}

// --- Engine-level determinism -------------------------------------------------------

FlAppConfig ProbeApp(const std::string& name) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [](uint64_t seed) {
    return MakeSoftmaxRegression("sr", 16, 4, seed);
  };
  config.train.learning_rate = 0.15f;
  config.train.batch_size = 20;
  config.train.local_steps = 5;
  config.max_rounds = 4;
  return config;
}

struct EngineArtifacts {
  std::string trace;
  std::string metrics;
  // The profile tree's deterministic fields (paths, calls, virtual ms, events).
  std::string profile;
  std::vector<AppResult> results;
  uint64_t train_tasks = 0;  // Training tasks handed to the pool.
};

// Compute-thread count that keeps the engine's default (ComputePool::ThreadsFromEnv).
constexpr size_t kDefaultThreads = 0;

// One world exercising every offloaded path: a secure-aggregation app with Oort-like
// selection, a straggler cut by the tree timeout, a round deadline, and an async app
// with staleness discounting — run at `threads` compute threads. Profiled, so task
// phases fold into the tree at every join.
EngineArtifacts RunEngineWorld(size_t threads) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  Profiler& profiler = GlobalProfiler();
  profiler.Reset();
  profiler.SetEnabled(true);
  EngineArtifacts out;
  {
    Simulator sim;
    NetworkConfig net_config;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 5), net_config);
    PastryNetwork pastry(&net, PastryConfig{});
    Rng rng(100);
    for (size_t i = 0; i < 50; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    ScribeConfig scribe_config;
    scribe_config.aggregation_timeout_ms = 200.0;
    Forest forest(&pastry, scribe_config);
    TotoroEngine engine(&forest, ComputeModel{}, 101);
    if (threads != kDefaultThreads) {
      engine.SetComputeThreads(threads);
    }
    engine.SetRoundDeadline(5000.0);
    // Worker 3 is ~5 orders of magnitude slower: every round cuts it off.
    std::vector<double> speeds(50, 1.0);
    speeds[3] = 1e-5;
    engine.SetSpeedFactors(speeds);

    SyntheticSpec spec;
    spec.dim = 16;
    spec.num_classes = 4;
    spec.class_separation = 2.5;
    spec.noise_stddev = 0.8;
    spec.seed = 7;
    SyntheticTask task(spec);
    Rng data_rng(8);
    auto make_shards = [&](size_t n) {
      std::vector<Dataset> shards;
      for (size_t i = 0; i < n; ++i) {
        shards.push_back(task.Generate(100, data_rng));
      }
      return shards;
    };
    std::vector<size_t> workers{0, 1, 2, 3, 4, 5, 6, 7};

    FlAppConfig secure = ProbeApp("secure-app");
    secure.secure_aggregation = true;
    secure.participants_per_round = 5;
    secure.selection = SelectionPolicy::kOortLike;
    const NodeId secure_topic =
        engine.LaunchApp(secure, workers, make_shards(8), task.Generate(150, data_rng));

    FlAppConfig async_app = ProbeApp("async-app");
    async_app.async = AsyncConfig{};
    async_app.async->staleness_exponent = 0.5;
    std::vector<size_t> async_workers{10, 11, 12, 13, 14, 15};
    const NodeId async_topic = engine.LaunchApp(async_app, async_workers, make_shards(6),
                                                task.Generate(150, data_rng));

    engine.StartAll();
    EXPECT_TRUE(engine.RunToCompletion());
    out.results.push_back(engine.result(secure_topic));
    out.results.push_back(engine.result(async_topic));
    const Counter* train_tasks = GlobalMetrics().FindCounter("engine.compute.train_tasks");
    out.train_tasks = train_tasks == nullptr ? 0 : train_tasks->value();
  }
  out.trace = TraceToChromeJson(GlobalTracer());
  out.metrics = MetricsToJson(GlobalMetrics());
  MetricsRegistry profile_fields;
  profiler.PublishToMetrics(&profile_fields);
  out.profile = MetricsToJson(profile_fields);
  profiler.SetEnabled(false);
  profiler.Reset();
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

void ExpectSameRun(const EngineArtifacts& a, const EngineArtifacts& b) {
  EXPECT_EQ(a.train_tasks, b.train_tasks);
  EXPECT_EQ(a.trace, b.trace) << "trace export depends on thread count";
  EXPECT_EQ(a.metrics, b.metrics) << "metrics export depends on thread count";
  EXPECT_EQ(a.profile, b.profile) << "profile tree depends on thread count";
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const AppResult& x = a.results[i];
    const AppResult& y = b.results[i];
    EXPECT_EQ(x.rounds_completed, y.rounds_completed);
    EXPECT_EQ(x.final_accuracy, y.final_accuracy);  // Bit-identical, not just close.
    EXPECT_EQ(x.total_time_ms, y.total_time_ms);
    ASSERT_EQ(x.curve.size(), y.curve.size());
    for (size_t p = 0; p < x.curve.size(); ++p) {
      EXPECT_EQ(x.curve[p].accuracy, y.curve[p].accuracy);
      EXPECT_EQ(x.curve[p].time_ms, y.curve[p].time_ms);
    }
  }
}

TEST(ComputePoolDeterminismTest, FourThreadEngineRunIsByteIdenticalToSequential) {
  const EngineArtifacts sequential = RunEngineWorld(1);
  const EngineArtifacts parallel = RunEngineWorld(4);

  // Training actually went through the offload path, and the tasks' phases reached
  // the tree: every training task was joined, so each has its compute_task call.
  EXPECT_GT(sequential.train_tasks, 0u);
  EXPECT_NE(sequential.profile.find("train.compute_task.calls"), std::string::npos);
  EXPECT_NE(sequential.profile.find("evaluate.compute_task.calls"), std::string::npos);
  ExpectSameRun(sequential, parallel);
  EXPECT_EQ(FingerprintBytes(sequential.trace), FingerprintBytes(parallel.trace));
}

TEST(ComputePoolDeterminismTest, TwoEightAndDefaultThreadRunsMatchToo) {
  const EngineArtifacts sequential = RunEngineWorld(1);
  for (size_t threads : {size_t{2}, size_t{8}, kDefaultThreads}) {
    SCOPED_TRACE(threads == kDefaultThreads ? std::string("default threads")
                                            : std::to_string(threads) + " threads");
    ExpectSameRun(sequential, RunEngineWorld(threads));
  }
}

}  // namespace
}  // namespace totoro
