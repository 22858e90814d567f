// Tests for the parallel experiment runner (xcc/parallel.hpp): results must
// be bit-identical to serial execution regardless of worker count, worker
// counts must clamp sanely, and job exceptions must propagate to the caller.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "bench/common.hpp"
#include "xcc/parallel.hpp"

namespace {

// Field-by-field bit-identity between two experiment results (the same
// fields the CSV outputs are derived from).
void expect_identical(const xcc::ExperimentResult& a,
                      const xcc::ExperimentResult& b) {
  ASSERT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.window_breakdown.requested, b.window_breakdown.requested);
  EXPECT_EQ(a.window_breakdown.uncommitted, b.window_breakdown.uncommitted);
  EXPECT_EQ(a.window_breakdown.initiated_only,
            b.window_breakdown.initiated_only);
  EXPECT_EQ(a.window_breakdown.partial, b.window_breakdown.partial);
  EXPECT_EQ(a.window_breakdown.completed, b.window_breakdown.completed);
  EXPECT_EQ(a.window_breakdown.timed_out, b.window_breakdown.timed_out);
  EXPECT_EQ(a.tfps, b.tfps);                      // exact, not near
  EXPECT_EQ(a.inclusion_tfps, b.inclusion_tfps);  // exact, not near
  EXPECT_EQ(a.window_seconds, b.window_seconds);
  EXPECT_EQ(a.block_intervals, b.block_intervals);
  EXPECT_EQ(a.avg_block_interval, b.avg_block_interval);
  EXPECT_EQ(a.empty_blocks, b.empty_blocks);
  EXPECT_EQ(a.final_breakdown.completed, b.final_breakdown.completed);
  EXPECT_EQ(a.completion_latency_seconds, b.completion_latency_seconds);
  EXPECT_EQ(a.workload.requested, b.workload.requested);
  EXPECT_EQ(a.workload.broadcast, b.workload.broadcast);
  EXPECT_EQ(a.workload.committed, b.workload.committed);
  EXPECT_EQ(a.workload.failed_submission, b.workload.failed_submission);
  EXPECT_EQ(a.sequence_mismatch_errors, b.sequence_mismatch_errors);
  EXPECT_EQ(a.no_confirmation_errors, b.no_confirmation_errors);
  EXPECT_EQ(a.rpc_unavailable_errors, b.rpc_unavailable_errors);
  EXPECT_EQ(a.rpc_busy_seconds_a, b.rpc_busy_seconds_a);
  EXPECT_EQ(a.rpc_busy_seconds_b, b.rpc_busy_seconds_b);
}

// Small but real configs: one inclusion-style (no relayer, Fig. 6 shape)
// and one relayer-style (Fig. 8 shape), two repetitions each, scaled down
// so the whole batch stays test-sized.
std::vector<xcc::ExperimentConfig> sample_configs() {
  std::vector<xcc::ExperimentConfig> configs;
  for (int rep = 0; rep < 2; ++rep) {
    xcc::ExperimentConfig inc =
        bench::inclusion_config(/*rps=*/40, rep, /*blocks=*/4);
    configs.push_back(inc);
    xcc::ExperimentConfig rel = bench::relayer_config(
        /*rps=*/10, /*relayers=*/1, net::NetworkConfig{}.inter_machine_rtt,
        rep, /*blocks=*/4);
    configs.push_back(rel);
  }
  return configs;
}

TEST(ParallelRunnerTest, SerialAndParallelResultsAreBitIdentical) {
  const auto configs = sample_configs();
  const auto serial = xcc::run_experiments(configs, /*workers=*/1);
  const auto parallel = xcc::run_experiments(configs, /*workers=*/4);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunnerTest, ClampWorkers) {
  EXPECT_EQ(xcc::clamp_workers(0, 8), 1);    // 0 -> serial
  EXPECT_EQ(xcc::clamp_workers(-3, 8), 1);   // negative -> serial
  EXPECT_EQ(xcc::clamp_workers(16, 4), 4);   // never more workers than jobs
  EXPECT_EQ(xcc::clamp_workers(16, 0), 1);   // empty batch still valid
  EXPECT_EQ(xcc::clamp_workers(3, 8), 3);
  EXPECT_GE(xcc::default_workers(), 1);
}

TEST(ParallelRunnerTest, MoreWorkersThanJobs) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back([&ran] { ++ran; });
  xcc::SweepStats stats;
  xcc::run_jobs(jobs, /*workers=*/64, &stats);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(stats.workers, 3);  // clamped to job count
  EXPECT_EQ(stats.jobs, 3u);
}

TEST(ParallelRunnerTest, EmptyBatch) {
  std::vector<xcc::ExperimentConfig> configs;
  EXPECT_TRUE(xcc::run_experiments(configs, 4).empty());
  std::vector<std::function<void()>> jobs;
  xcc::run_jobs(jobs, 4);  // must not hang or crash
}

TEST(ParallelRunnerTest, ExceptionPropagatesFromWorker) {
  std::vector<std::function<void()>> jobs;
  std::atomic<int> ran{0};
  jobs.push_back([&ran] { ++ran; });
  jobs.push_back([]() -> void { throw std::runtime_error("job 1 failed"); });
  jobs.push_back([&ran] { ++ran; });
  EXPECT_THROW(
      {
        try {
          xcc::run_jobs(jobs, /*workers=*/2);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "job 1 failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ParallelRunnerTest, ExceptionPropagatesSerially) {
  std::vector<std::function<void()>> jobs;
  jobs.push_back([]() -> void { throw std::logic_error("serial boom"); });
  EXPECT_THROW(xcc::run_jobs(jobs, /*workers=*/1), std::logic_error);
}

TEST(ParallelRunnerTest, SweepStatsAccounting) {
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back([] {});
  xcc::SweepStats stats;
  xcc::run_jobs(jobs, /*workers=*/2, &stats);
  EXPECT_EQ(stats.jobs, 4u);
  EXPECT_EQ(stats.workers, 2);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.aggregate_seconds, 0.0);
  EXPECT_GE(stats.speedup(), 0.0);
}

#ifndef IBC_TELEMETRY_DISABLED

TEST(ParallelRunnerTest, ProfileCollectorMergesPerJobReports) {
  constexpr int kJobs = 6;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([] {
      telemetry::ProfileScope scope(telemetry::ProfileKey::kKvStore);
      telemetry::profiler::add_sim_progress(1'000);
    });
  }
  xcc::ProfileCollector collector;
  xcc::run_jobs(jobs, /*workers=*/3, /*stats=*/nullptr, &collector);
  const telemetry::ProfileReport merged = collector.merged();
  EXPECT_EQ(merged.entry(telemetry::ProfileKey::kKvStore).calls,
            static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(merged.sim_micros, static_cast<std::uint64_t>(kJobs) * 1'000u);
  EXPECT_GT(merged.wall_nanos, 0u);  // each job's profiled span is summed
}

TEST(ParallelRunnerTest, NoCollectorLeavesProfilerUnarmed) {
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] {
    EXPECT_FALSE(telemetry::profiler::active());
    telemetry::ProfileScope scope(telemetry::ProfileKey::kKvStore);
  });
  xcc::run_jobs(jobs, /*workers=*/1);
}

#endif  // IBC_TELEMETRY_DISABLED

}  // namespace
