// ComputePool unit tests plus the tentpole determinism guarantee: a TotoroEngine run
// with a 4-thread compute pool produces byte-identical observability exports (and
// results) to the sequential run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/fl/compute_pool.h"
#include "src/ml/dataset.h"
#include "src/obs/export.h"

namespace totoro {
namespace {

LocalUpdate MakeUpdate(float value) {
  LocalUpdate update;
  update.weights = {value};
  update.sample_weight = static_cast<double>(value);
  return update;
}

TEST(ComputePoolTest, InlineModeRunsOnSubmitWithoutThreads) {
  ComputePool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::atomic<bool> ran{false};
  ComputePool::Ticket ticket = pool.Submit([&] {
    ran = true;
    return MakeUpdate(7.0f);
  });
  // Inline mode runs the task inside Submit — before Wait is ever called.
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(ticket.Take().weights[0], 7.0f);
  EXPECT_EQ(pool.tasks_submitted(), 1u);
}

// Regression for the orphan-tree bug: ProfileScopes inside offloaded tasks accumulate
// into the WORKER's thread-local profiler, which used to die with the thread — a
// profiled run under TOTORO_COMPUTE_THREADS>1 silently lost every task phase. The pool
// now drains each worker's tree into the owner's profiler at destruction, so worker
// phases appear in the export.
TEST(ComputePoolTest, WorkerProfilerPhasesDrainIntoOwnersTree) {
  // The env var must be visible before the pool's worker threads first touch their
  // thread-local profilers; a fresh owner thread gives this test a clean tree too.
  ::setenv("TOTORO_PROFILE", "1", 1);
  uint64_t calls = 0;
  std::string json;
  std::thread owner([&calls, &json] {
    GlobalProfiler().SetEnabled(true);
    {
      ComputePool pool(4);
      std::vector<ComputePool::Ticket> tickets;
      for (int i = 0; i < 16; ++i) {
        tickets.push_back(pool.Submit([i] { return MakeUpdate(static_cast<float>(i)); }));
      }
      for (ComputePool::Ticket& ticket : tickets) {
        ticket.Wait();
      }
    }  // Pool destruction joins the workers and folds their trees, worker-index order.
    const Profiler::PhaseNode* node = GlobalProfiler().Find("compute_task");
    if (node != nullptr) {
      calls = node->stats.calls;
    }
    json = GlobalProfiler().ToJson();
  });
  owner.join();
  ::unsetenv("TOTORO_PROFILE");
  EXPECT_EQ(calls, 16u);
  EXPECT_NE(json.find("compute_task"), std::string::npos);
}

TEST(ComputePoolTest, ThreadedPoolCompletesAllTasksWithCorrectResults) {
  ComputePool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<ComputePool::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(pool.Submit([i] { return MakeUpdate(static_cast<float>(i)); }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Take().weights[0], static_cast<float>(i));
  }
  EXPECT_EQ(pool.tasks_submitted(), 64u);
}

TEST(ComputePoolTest, WaitIsIdempotentAndResultSurvivesUntilTake) {
  ComputePool pool(2);
  ComputePool::Ticket ticket = pool.Submit([] { return MakeUpdate(3.0f); });
  ticket.Wait();
  ticket.Wait();
  ComputePool::Ticket copy = ticket;  // Shared state.
  EXPECT_EQ(copy.Take().weights[0], 3.0f);
}

TEST(ComputePoolTest, ExceptionsPropagateToWait) {
  ComputePool pool(2);
  ComputePool::Ticket ticket =
      pool.Submit([]() -> LocalUpdate { throw std::runtime_error("boom"); });
  EXPECT_THROW(ticket.Wait(), std::runtime_error);
}

TEST(ComputePoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<ComputePool::Ticket> tickets;
  {
    ComputePool pool(2);
    for (int i = 0; i < 32; ++i) {
      tickets.push_back(pool.Submit([&ran, i] {
        ++ran;
        return MakeUpdate(static_cast<float>(i));
      }));
    }
  }
  EXPECT_EQ(ran.load(), 32);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Take().weights[0], static_cast<float>(i));
  }
}

TEST(ComputePoolTest, ThreadsFromEnvParsesAndDefaults) {
  ::setenv("TOTORO_COMPUTE_THREADS", "6", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), 6u);
  ::unsetenv("TOTORO_COMPUTE_THREADS");
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), 1u);
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
  std::vector<AppResult> results;
  uint64_t train_tasks = 0;  // Training tasks handed to the pool.
};

// One world exercising every offloaded path: a secure-aggregation app with Oort-like
// selection, a straggler cut by the tree timeout, a round deadline, and an async app
// with staleness discounting — run at `threads` compute threads.
EngineArtifacts RunEngineWorld(size_t threads) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
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
    engine.SetComputeThreads(threads);
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
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

TEST(ComputePoolDeterminismTest, FourThreadEngineRunIsByteIdenticalToSequential) {
  const EngineArtifacts sequential = RunEngineWorld(1);
  const EngineArtifacts parallel = RunEngineWorld(4);

  // Training actually went through the offload path in both runs.
  EXPECT_GT(sequential.train_tasks, 0u);
  EXPECT_EQ(sequential.train_tasks, parallel.train_tasks);

  EXPECT_EQ(sequential.trace, parallel.trace) << "trace export depends on thread count";
  EXPECT_EQ(sequential.metrics, parallel.metrics)
      << "metrics export depends on thread count";
  EXPECT_EQ(FingerprintBytes(sequential.trace), FingerprintBytes(parallel.trace));

  ASSERT_EQ(sequential.results.size(), parallel.results.size());
  for (size_t i = 0; i < sequential.results.size(); ++i) {
    const AppResult& a = sequential.results[i];
    const AppResult& b = parallel.results[i];
    EXPECT_EQ(a.rounds_completed, b.rounds_completed);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);  // Bit-identical, not just close.
    EXPECT_EQ(a.total_time_ms, b.total_time_ms);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t p = 0; p < a.curve.size(); ++p) {
      EXPECT_EQ(a.curve[p].accuracy, b.curve[p].accuracy);
      EXPECT_EQ(a.curve[p].time_ms, b.curve[p].time_ms);
    }
  }
}

TEST(ComputePoolDeterminismTest, EightThreadRunMatchesToo) {
  const EngineArtifacts a = RunEngineWorld(1);
  const EngineArtifacts b = RunEngineWorld(8);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace totoro
