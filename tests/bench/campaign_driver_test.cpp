// The campaign driver (bench/campaign.hpp): seed selection, in-process
// replay, the invariant/verdict lines and the 0/1/2 exit convention.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign.hpp"

namespace spe::benchutil {
namespace {

/// Runs the driver on `args` (argv[0] is supplied) with default seed 7.
int drive(std::vector<std::string> args,
          const std::function<CampaignResult(std::uint64_t)>& fn) {
  args.insert(args.begin(), "campaign_under_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return run_campaign(static_cast<int>(argv.size()), argv.data(), 7, fn);
}

CampaignResult clean(std::uint64_t seed) {
  return {"report for seed " + std::to_string(seed) + "\n", {{"lost writes", 0}}};
}

TEST(CampaignDriver, DeterministicCampaignPassesAndReplaysEachSeedOfARange) {
  std::vector<std::uint64_t> seen;
  testing::internal::CaptureStdout();
  const int rc = drive({"--seeds", "3..5"}, [&](std::uint64_t seed) {
    seen.push_back(seed);
    return clean(seed);
  });
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 3, 4, 4, 5, 5}));
  EXPECT_NE(out.find("report for seed 4\n\ninvariant lost writes: violations=0\nseed 4: PASS\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("CAMPAIGN PASS\n"), std::string::npos) << out;
}

TEST(CampaignDriver, DefaultSeedAndSingleSeed) {
  std::vector<std::uint64_t> seen;
  const auto record = [&](std::uint64_t seed) {
    seen.push_back(seed);
    return clean(seed);
  };
  EXPECT_EQ(drive({}, record), 0);
  EXPECT_EQ(drive({"--seeds=16"}, record), 0);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{7, 7, 16, 16}));
}

TEST(CampaignDriver, ReplayThatDiffersExitsOne) {
  unsigned calls = 0;
  EXPECT_EQ(drive({}, [&](std::uint64_t seed) {
              CampaignResult r = clean(seed);
              r.report += "call " + std::to_string(++calls) + "\n";
              return r;
            }),
            1);
}

TEST(CampaignDriver, BrokenInvariantExitsOne) {
  testing::internal::CaptureStdout();
  const int rc = drive({}, [](std::uint64_t seed) {
    CampaignResult r = clean(seed);
    r.invariants.emplace_back("silent corruptions", 3);
    return r;
  });
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("invariant silent corruptions: violations=3\n"), std::string::npos) << out;
  EXPECT_NE(out.find("seed 7: FAIL (invariant broken)\nCAMPAIGN FAIL\n"), std::string::npos)
      << out;
}

TEST(CampaignDriver, UsageAndSetupErrorsExitTwo) {
  unsigned calls = 0;
  const auto counted = [&](std::uint64_t seed) {
    ++calls;
    return clean(seed);
  };
  EXPECT_EQ(drive({"--seeds", "5..3"}, counted), 2);
  EXPECT_EQ(drive({"--seeds", "x"}, counted), 2);
  EXPECT_EQ(drive({"--seeds", "-1"}, counted), 2);
  EXPECT_EQ(drive({"--seeds"}, counted), 2);
  EXPECT_EQ(drive({"--seed", "3"}, counted), 2);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(drive({}, [](std::uint64_t) -> CampaignResult {
              throw CampaignSetupError("no loopback ports");
            }),
            2);
}

}  // namespace
}  // namespace spe::benchutil
