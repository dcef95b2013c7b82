// Parameterised property sweep of the TEAM model: physical invariants that
// must hold across the device corner space (the same corners the
// hardware-avalanche evaluation perturbs).

#include <gtest/gtest.h>

#include "device/team_model.hpp"

namespace spe::device {
namespace {

struct Corner {
  const char* name;
  double k_scale;
  double r_scale;
  double i_scale;
};

// gtest's default printer dumps the raw bytes, which include the `name`
// pointer; under ASLR that made every discovered CTest name differ per run.
void PrintTo(const Corner& c, std::ostream* os) { *os << c.name; }

class TeamProperty : public ::testing::TestWithParam<Corner> {
protected:
  TeamParams params() const {
    TeamParams p;
    p.k_off *= GetParam().k_scale;
    p.k_on *= GetParam().k_scale;
    p.r_on *= GetParam().r_scale;
    p.r_off *= GetParam().r_scale;
    p.i_off *= GetParam().i_scale;
    p.i_on *= GetParam().i_scale;
    return p;
  }
};

TEST_P(TeamProperty, TrajectoriesDoNotCross) {
  // Order preservation: a higher starting state stays higher under the
  // same pulse — the property the calibration's level tables rely on.
  // Near the window attractor, saturating pulses squeeze all trajectories
  // into one point and fixed-step RK4 leaves ~1e-4 residuals; the
  // tolerance admits that convergence while rejecting real crossings.
  const TeamParams p = params();
  for (double v : {1.0, -1.0, 0.6, -0.6}) {
    double prev_end = -1.0;
    bool first = true;
    for (double w0 = 0.05; w0 <= 0.96; w0 += 0.1) {
      TeamModel m(p, w0);
      m.apply_voltage(v, 0.05e-6);
      if (!first) EXPECT_GE(m.state() + 5e-3, prev_end) << "v=" << v << " w0=" << w0;
      prev_end = m.state();
      first = false;
    }
  }
}

TEST_P(TeamProperty, MotionIsMonotoneInTime) {
  const TeamParams p = params();
  TeamModel m(p, 0.4);
  double prev = m.state();
  for (int step = 0; step < 10; ++step) {
    m.apply_voltage(1.0, 0.01e-6);
    EXPECT_GE(m.state() + 1e-12, prev);
    prev = m.state();
  }
}

TEST_P(TeamProperty, PolarityIsRespected) {
  const TeamParams p = params();
  TeamModel up(p, 0.5), down(p, 0.5);
  up.apply_voltage(1.0, 0.05e-6);
  down.apply_voltage(-1.0, 0.05e-6);
  EXPECT_GE(up.state(), 0.5);
  EXPECT_LE(down.state(), 0.5);
}

TEST_P(TeamProperty, StateAlwaysBounded) {
  const TeamParams p = params();
  for (double v : {2.0, -2.0}) {
    TeamModel m(p, 0.5);
    m.apply_voltage(v, 5e-6);  // grossly over-long pulse
    EXPECT_GE(m.state(), 0.0);
    EXPECT_LE(m.state(), 1.0);
  }
}

TEST_P(TeamProperty, ResistanceMapMonotone) {
  const TeamParams p = params();
  double prev = 0.0;
  for (double w = 0.0; w <= 1.0; w += 0.05) {
    const double r = p.resistance(w);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, TeamProperty,
    ::testing::Values(Corner{"nominal", 1.0, 1.0, 1.0},
                      Corner{"fast", 1.5, 0.9, 1.1},
                      Corner{"slow", 0.6, 1.1, 0.9},
                      Corner{"high_r", 1.0, 1.5, 1.0},
                      Corner{"low_thresh", 1.0, 1.0, 0.5}),
    [](const ::testing::TestParamInfo<Corner>& info) { return info.param.name; });

}  // namespace
}  // namespace spe::device
