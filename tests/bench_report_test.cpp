// Tests for the machine-readable bench reports (xcc/bench_report.hpp).
//
// The load-bearing contract: the `virtual` section of a report is a pure
// function of the seed and config — two independent same-seed sweeps must
// serialize it byte-identically, while the `host` section is allowed (and
// expected) to differ between runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "xcc/bench_report.hpp"
#include "xcc/parallel.hpp"

namespace {

// One small same-seed sweep (two reps of the Fig. 6 inclusion shape, scaled
// down to test size), reported exactly the way bench::run_sweep does it:
// telemetry on the first config, host profile collected per worker thread.
util::json::Value make_report() {
  std::vector<xcc::ExperimentConfig> configs;
  for (int rep = 0; rep < 2; ++rep) {
    configs.push_back(bench::inclusion_config(/*rps=*/40, rep, /*blocks=*/4));
  }
  configs.front().telemetry = true;

  xcc::SweepStats stats;
  xcc::ProfileCollector collector;
  const auto results = xcc::run_experiments(configs, /*workers=*/2, &stats,
                                            &collector);

  util::Table table({"rep", "inclusion_tfps", "avg_block_interval"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row({std::to_string(i),
                   util::fmt_double(results[i].inclusion_tfps, 3),
                   util::fmt_double(results[i].avg_block_interval, 3)});
  }

  xcc::BenchReportInputs in;
  in.bench = "report_test";
  in.reps = 2;
  in.jobs = 2;
  in.flags = {{"smoke", "true"}};
  in.seed_base = bench::seed_for(0);
  in.table = &table;
  for (const auto& r : results) {
    if (r.ok) {
      in.metrics = r.metrics;
      break;
    }
  }
  in.sweep = stats;
  in.profile = collector.merged();
  return xcc::build_bench_report(in);
}

TEST(BenchReportTest, VirtualSectionIsByteIdenticalAcrossSameSeedRuns) {
  const util::json::Value a = make_report();
  const util::json::Value b = make_report();

  ASSERT_NE(a.find("virtual"), nullptr);
  ASSERT_NE(b.find("virtual"), nullptr);
  // The determinism contract bench_compare enforces: virtual time (table
  // cells + metrics snapshot) must serialize byte-identically...
  EXPECT_EQ(a.find("virtual")->dump(2), b.find("virtual")->dump(2));
  EXPECT_EQ(a.find("config")->dump(2), b.find("config")->dump(2));
  // ...while the host section only has to exist; its wall-clock numbers may
  // legitimately differ between the two runs.
  ASSERT_NE(a.find("host"), nullptr);
  ASSERT_NE(b.find("host"), nullptr);
}

TEST(BenchReportTest, ReportCarriesConfigTableAndHostStats) {
  const util::json::Value r = make_report();
  EXPECT_EQ(r.find("schema_version")->as_int(), 1);
  EXPECT_EQ(r.find("bench")->as_string(), "report_test");

  const util::json::Value* config = r.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("reps")->as_int(), 2);
  EXPECT_EQ(config->find("flags")->find("smoke")->as_string(), "true");
  EXPECT_EQ(config->find("seed_base")->as_int(),
            static_cast<std::int64_t>(bench::seed_for(0)));

  const util::json::Value* virt = r.find("virtual");
  ASSERT_NE(virt, nullptr);
  EXPECT_EQ(virt->find("columns")->size(), 3u);
  ASSERT_EQ(virt->find("points")->size(), 2u);
  EXPECT_EQ(virt->find("points")->items()[0].size(), 3u);

  const util::json::Value* host = r.find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_GT(host->find("wall_seconds")->as_double(), 0.0);
  EXPECT_EQ(host->find("runs")->as_int(), 2);
  const util::json::Value* profile = host->find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("subsystems")->size(), telemetry::kProfileKeyCount);

#ifndef IBC_TELEMETRY_DISABLED
  EXPECT_TRUE(host->find("telemetry_compiled")->as_bool());
  // The profiler was armed around each job: DES events and the registry
  // snapshot must have made it into the report.
  EXPECT_GT(host->find("events_executed")->as_int(), 0);
  EXPECT_GT(host->find("sim_seconds")->as_double(), 0.0);
  EXPECT_GT(virt->find("metrics")->size(), 0u);
#else
  EXPECT_FALSE(host->find("telemetry_compiled")->as_bool());
#endif
}

// Bench-specific flags are read back from the parsed options, so a bench
// runs exactly what the report's config section records — including the
// inline `--smoke=1` spelling parse_options accepts.
TEST(BenchReportTest, HasFlagSeesInlineSpelling) {
  std::string prog = "bench", smoke = "--smoke=1";
  char* argv[] = {prog.data(), smoke.data()};
  const bench::Options opt = bench::parse_options(
      2, argv, "report_test.csv", {{"--smoke", false, "trimmed run"}});
  EXPECT_TRUE(bench::has_flag(opt, "--smoke"));
  EXPECT_FALSE(bench::has_flag(opt, "--transfers"));
  ASSERT_EQ(opt.extra.size(), 1u);
  EXPECT_EQ(opt.extra[0].second, "true");
}

// A bare bench id marks a sweep family: --csv names the directory its
// figure CSVs go to, the working directory by default.
TEST(BenchReportTest, SweepFamilyCsvIsADirectory) {
  std::string prog = "bench", csv = "--csv=out";
  char* argv[] = {prog.data(), csv.data()};
  EXPECT_EQ(bench::parse_options(1, argv, "relayer_sweep").csv, "");
  const bench::Options opt = bench::parse_options(2, argv, "relayer_sweep");
  EXPECT_EQ(opt.bench, "relayer_sweep");
  EXPECT_EQ(opt.csv, "out");
  EXPECT_EQ(bench::parse_options(1, argv, "fig12_latency_breakdown.csv").bench,
            "fig12_latency_breakdown");
}

TEST(BenchReportTest, WriteJsonFileRoundTrips) {
  const util::json::Value report = make_report();
  const std::string path = ::testing::TempDir() + "BENCH_report_test.json";
  const util::Status st = xcc::write_json_file(path, report);
  ASSERT_TRUE(st.is_ok()) << st.message();

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  const auto parsed = util::json::parse(buf.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("bench")->as_string(), "report_test");
  // On-disk bytes are exactly dump(2): the cache in run_benches.sh and
  // bench_compare both rely on the serialization being deterministic.
  EXPECT_EQ(buf.str(), report.dump(2));
  std::remove(path.c_str());
}

TEST(BenchReportTest, WriteJsonFileReportsIoFailure) {
  const util::Status st = xcc::write_json_file(
      "/nonexistent-dir-for-sure/report.json", util::json::Value::object());
  EXPECT_FALSE(st.is_ok());
}

TEST(BenchReportTest, PeakRssIsNonZeroOnUnix) {
#ifdef __unix__
  EXPECT_GT(xcc::peak_rss_bytes(), 0u);
#endif
}

}  // namespace
