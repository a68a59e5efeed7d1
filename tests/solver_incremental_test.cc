// Warm-started incremental repair + LNS (DESIGN.md §14):
//   * incremental repair produces byte-identical results to the full solver (the restricted
//     refresh scans are exact under the dirty-group invariant);
//   * a dirty fraction above the fallback threshold reverts to the full solve;
//   * results stay byte-identical across thread counts {1, 2, 8} for every backend, including
//     the LNS portfolio, and across repeated warm rounds;
//   * LNS is a pure function of its seed and its move log replays to the final assignment;
//   * the tracker's incremental objective stays within the drift tolerance over 100k moves;
//   * the tracker's per-group penalty cache equals a fresh recompute after every applied move;
//   * a fixed-seed local search reproduces a pinned move list and final objective.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/incremental.h"
#include "src/solver/local_search.h"
#include "src/solver/rebalancer.h"
#include "src/solver/violation_tracker.h"

namespace shardman {
namespace {

SolverProblem RandomProblem(uint64_t seed, int bins, int entities, int groups) {
  Rng rng(seed);
  SolverProblem p;
  for (int b = 0; b < bins; ++b) {
    p.AddBin({rng.Uniform(80, 120), rng.Uniform(80, 120)}, b % 4, b % 8, b / 2);
  }
  for (int e = 0; e < entities; ++e) {
    p.AddEntity({rng.Uniform(1, 8), rng.Uniform(1, 8)}, groups > 0 ? e % groups : -1,
                static_cast<int32_t>(rng.UniformInt(0, bins - 1)));
  }
  return p;
}

Rebalancer Specs() {
  Rebalancer rb;
  for (int m = 0; m < 2; ++m) {
    rb.AddConstraint(CapacitySpec{m, 1.0});
    rb.AddGoal(ThresholdSpec{m, 0.85}, 2000.0);
    rb.AddGoal(BalanceSpec{DomainScope::kGlobal, m, 0.10}, 1000.0);
  }
  rb.AddGoal(ExclusionSpec{DomainScope::kRegion}, 30000.0);
  AffinitySpec affinity;
  for (int g = 0; g < 40; g += 3) {
    affinity.entries.push_back(AffinityEntry{g, g % 4, 1, 1.0});
  }
  rb.AddGoal(affinity, 100000.0);
  rb.AddGoal(DrainSpec{}, 4000.0);
  return rb;
}

// A "previous round": solve the random problem to rest, then perturb it the way production
// rounds do — kill a bin (unassigning its entities), drain one, shift some loads.
SolverProblem WarmProblem(uint64_t seed, int bins, int entities, int groups,
                          const Rebalancer& rb) {
  SolverProblem p = RandomProblem(seed, bins, entities, groups);
  SolveOptions options;
  options.seed = 17;
  options.eval_budget = 60000;
  options.trace_interval = 0;
  rb.Solve(p, options);

  Rng rng(seed ^ 0xfeed);
  int dead = static_cast<int>(rng.UniformInt(0, bins - 1));
  p.bin_alive[static_cast<size_t>(dead)] = 0;
  int draining = (dead + 1) % bins;
  p.bin_draining[static_cast<size_t>(draining)] = 1;
  for (int i = 0; i < entities / 50; ++i) {
    int e = static_cast<int>(rng.UniformInt(0, entities - 1));
    p.entity_load[static_cast<size_t>(e) * 2] *= rng.Uniform(0.5, 2.5);
  }
  for (int e = 0; e < entities; ++e) {
    if (p.assignment[static_cast<size_t>(e)] == dead) {
      p.assignment[static_cast<size_t>(e)] = -1;
    }
  }
  return p;
}

void ExpectIdentical(const SolveResult& a, const SolveResult& b, const std::string& label) {
  ASSERT_EQ(a.moves.size(), b.moves.size()) << label;
  for (size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].entity, b.moves[i].entity) << label << " move " << i;
    EXPECT_EQ(a.moves[i].from, b.moves[i].from) << label << " move " << i;
    EXPECT_EQ(a.moves[i].to, b.moves[i].to) << label << " move " << i;
  }
  // Exact double equality on purpose: the contract is bit-identity, not approximation.
  EXPECT_EQ(a.final_objective, b.final_objective) << label;
  EXPECT_EQ(a.final_violations.total(), b.final_violations.total()) << label;
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(GenStampSetTest, InsertContainsClearSemantics) {
  GenStampSet set;
  set.Reset(16);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));  // second insert of the same item is a no-op
  EXPECT_TRUE(set.Insert(7));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_EQ(set.size(), 2u);
  ASSERT_EQ(set.items().size(), 2u);

  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));  // insertable again after the O(1) clear
  EXPECT_EQ(set.size(), 1u);

  set.Reset(4);  // shrinking reset drops all state
  EXPECT_EQ(set.universe(), 4);
  EXPECT_FALSE(set.Contains(3));
}

TEST(SolverIncrementalTest, IncrementalRepairMatchesFullSolveExactly) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 42;
  options.eval_budget = 30000;
  options.trace_interval = 0;

  SolverProblem full_p = WarmProblem(7, 48, 960, 120, rb);
  SolverProblem incr_p = full_p;

  options.incremental = false;
  SolveResult full = rb.Solve(full_p, options);

  options.incremental = true;
  // Force the incremental mode on regardless of the measured dirty fraction: the restricted
  // scans are exact at any fraction, so parity must hold even when the whole fleet is dirty.
  options.dirty_fallback_fraction = 1.0;
  SolveResult incr = rb.Solve(incr_p, options);

  // The restricted refresh scans are exact, so this holds always — not only when the dirty
  // set covers every violation.
  EXPECT_TRUE(incr.incremental_used);
  EXPECT_GT(incr.dirty_entities, 0);
  ExpectIdentical(full, incr, "incremental vs full");
  EXPECT_EQ(full_p.assignment, incr_p.assignment);
}

TEST(SolverIncrementalTest, FallsBackToFullSolveWhenMostOfTheFleetIsDirty) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 5;
  options.eval_budget = 20000;
  options.trace_interval = 0;
  options.incremental = true;

  // A random assignment leaves most bins violating, far past the fallback threshold.
  SolverProblem chaos = RandomProblem(21, 32, 640, 80);
  SolveResult result = rb.Solve(chaos, options);
  EXPECT_FALSE(result.incremental_used);
  EXPECT_GT(result.dirty_entities, 0);  // the dirty seed was still measured
  EXPECT_GT(result.dirty_bins, 0);

  // And the fallback is exactly the non-incremental solver.
  SolverProblem plain = RandomProblem(21, 32, 640, 80);
  options.incremental = false;
  SolveResult base = rb.Solve(plain, options);
  ExpectIdentical(base, result, "fallback vs plain full solve");
  EXPECT_EQ(chaos.assignment, plain.assignment);
}

TEST(SolverIncrementalTest, IncrementalIsByteIdenticalAcrossThreadCounts) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 9;
  options.eval_budget = 25000;
  options.trace_interval = 0;
  options.incremental = true;

  // Large enough to cross the sharded-scan thresholds with several threads.
  std::vector<int> thread_counts = {1, 2, 8};
  std::vector<SolveResult> results;
  std::vector<SolverProblem> problems;
  for (int threads : thread_counts) {
    options.threads = threads;
    options.starts = 2;
    problems.push_back(WarmProblem(11, 4600, 9200, 3000, rb));
    results.push_back(rb.Solve(problems.back(), options));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectIdentical(results[0], results[i],
                    "threads=" + std::to_string(thread_counts[i]) + " vs threads=1");
    EXPECT_EQ(problems[0].assignment, problems[i].assignment)
        << "assignment differs at threads=" << thread_counts[i];
  }
}

TEST(SolverIncrementalTest, LnsPortfolioIsByteIdenticalAcrossThreadCounts) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 23;
  options.eval_budget = 20000;
  options.trace_interval = 0;
  options.incremental = true;
  options.starts = 3;
  options.lns_starts = 1;  // start 2 runs the LNS backend

  std::vector<int> thread_counts = {1, 2, 8};
  std::vector<SolveResult> results;
  std::vector<SolverProblem> problems;
  for (int threads : thread_counts) {
    options.threads = threads;
    problems.push_back(WarmProblem(13, 48, 960, 120, rb));
    results.push_back(rb.Solve(problems.back(), options));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectIdentical(results[0], results[i],
                    "lns threads=" + std::to_string(thread_counts[i]) + " vs threads=1");
    EXPECT_EQ(results[0].winner_start, results[i].winner_start);
    EXPECT_EQ(problems[0].assignment, problems[i].assignment)
        << "assignment differs at threads=" << thread_counts[i];
  }
}

TEST(SolverIncrementalTest, RepeatedWarmRoundsStayIdentical) {
  // Two full warm rounds (solve, perturb, repair) executed twice from scratch must agree move
  // for move: the warm pipeline adds no hidden nondeterminism.
  Rebalancer rb = Specs();
  auto run_rounds = [&rb]() {
    SolverProblem p = WarmProblem(31, 48, 960, 120, rb);
    SolveOptions options;
    options.seed = 77;
    options.eval_budget = 15000;
    options.trace_interval = 0;
    options.incremental = true;
    SolveResult first = rb.Solve(p, options);
    // Second round: drain another bin and repair again from the repaired state.
    p.bin_draining[5] = 1;
    SolveResult second = rb.Solve(p, options);
    return std::make_pair(p.assignment, std::make_pair(first.evaluations, second.evaluations));
  };
  auto a = run_rounds();
  auto b = run_rounds();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SolverIncrementalTest, LnsIsDeterministicPerSeedAndReplaysToFinalAssignment) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 55;
  options.eval_budget = 12000;
  options.trace_interval = 0;
  options.starts = 1;
  options.lns_starts = 1;  // pure LNS run

  SolverProblem p1 = WarmProblem(41, 48, 960, 120, rb);
  SolverProblem replay_base = p1;  // pre-solve state, for the move replay below
  SolveResult r1 = rb.Solve(p1, options);

  SolverProblem p2 = WarmProblem(41, 48, 960, 120, rb);
  SolveResult r2 = rb.Solve(p2, options);

  ExpectIdentical(r1, r2, "lns same seed");
  EXPECT_EQ(p1.assignment, p2.assignment);

  // The move log replays to the final assignment: accepted-round net moves only, in order.
  for (const SolverMove& move : r1.moves) {
    ASSERT_GE(move.entity, 0);
    ASSERT_LT(move.entity, replay_base.num_entities());
    EXPECT_EQ(replay_base.assignment[static_cast<size_t>(move.entity)], move.from)
        << "move log out of sequence";
    replay_base.assignment[static_cast<size_t>(move.entity)] = move.to;
  }
  EXPECT_EQ(replay_base.assignment, p1.assignment);
}

uint64_t MoveDigest(const std::vector<SolverMove>& moves) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((static_cast<uint64_t>(v) >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  };
  for (const SolverMove& move : moves) {
    mix(move.entity);
    mix(move.from);
    mix(move.to);
  }
  return h;
}

// Golden values of a fixed-seed LocalSearch solve that runs every goal batch (kGoalGroup
// included) with large_shards_first on and ~20 entities per bin, far above
// entities_per_bin_visit. Loads are drawn from three levels, so many entities of a bin tie on
// size (and on group penalty): the order among equal keys is whatever std::sort makes of the
// comparison results. The candidate order of a hot-bin visit and the random fill of its visit
// budget both feed the move list, so a change to the comparison results, to the group
// penalties they read or to the sort algorithm moves these values.
TEST(LocalSearchGoldenTest, GroupBatchRankingReproducesPinnedMovesAndObjective) {
  Rebalancer rb = Specs();
  Rng rng(5);
  SolverProblem p;
  for (int b = 0; b < 48; ++b) {
    p.AddBin({rng.Uniform(80, 120), rng.Uniform(80, 120)}, b % 4, b % 8, b / 2);
  }
  for (int e = 0; e < 960; ++e) {
    double level = 2.0 * static_cast<double>(rng.UniformInt(1, 3));
    p.AddEntity({level, level}, e % 120, static_cast<int32_t>(rng.UniformInt(0, 47)));
  }
  SolveOptions options;
  options.seed = 31;
  options.eval_budget = 40000;
  options.trace_interval = 0;
  ASSERT_TRUE(options.large_shards_first);
  ASSERT_TRUE(options.goal_batching);
  ASSERT_GT(p.num_entities() / p.num_bins(), options.entities_per_bin_visit);

  LocalSearch search(&p, &rb, options);
  SolveResult result = search.Run();
  EXPECT_GT(result.initial_violations.affinity + result.initial_violations.exclusion, 0);
  EXPECT_LT(result.final_violations.affinity + result.final_violations.exclusion,
            result.initial_violations.affinity + result.initial_violations.exclusion);

  // Recorded before the rank keys and the group penalty cache existed; neither may change a
  // comparison result.
  EXPECT_EQ(result.moves.size(), 291u);
  EXPECT_EQ(MoveDigest(result.moves), 10114668765284929643ULL);
  EXPECT_EQ(result.final_objective, 0x1.b77f280fe7ed5p+23);  // exact, hex float
  EXPECT_EQ(result.evaluations, 40005);
}

// Index of the first group whose cached penalty differs from a fresh recompute, or -1. The
// fresh values come from a second tracker Init()ed on a copy of the current problem.
int32_t FirstStaleGroup(const ViolationTracker& tracker, const SolverProblem& p,
                        const Rebalancer& rb) {
  SolverProblem copy = p;
  ViolationTracker fresh(&copy, &rb);
  fresh.Init();
  for (int32_t g = 0; g < tracker.num_groups(); ++g) {
    if (tracker.GroupPenaltyOf(g) != fresh.GroupPenaltyOf(g)) {  // exact on purpose
      return g;
    }
  }
  return -1;
}

// Multi-region problems with affinity and region- plus rack-scope exclusion specs, one dead bin.
Rebalancer CacheSpecs() {
  Rebalancer rb = Specs();
  rb.AddGoal(ExclusionSpec{DomainScope::kRack}, 5000.0);
  return rb;
}

SolverProblem CacheProblem(uint64_t seed) {
  SolverProblem p = RandomProblem(seed, 24, 360, 90);
  p.bin_alive[static_cast<size_t>(seed % 24)] = 0;
  return p;
}

TEST(ViolationTrackerTest, GroupPenaltyCacheIsExactAfterEveryAppliedMove) {
  Rebalancer rb = CacheSpecs();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // The solvers' own moves, swaps' tentative halves and reverts included: with a recompute
    // scheduled after every applied move and the drift check armed, the tracker SM_CHECKs
    // every cached group penalty against a fresh scan after each ApplyMove/ApplyUnassign.
    SolveOptions options;
    options.seed = seed;
    options.eval_budget = 6000;
    options.trace_interval = 0;
    options.objective_recompute_moves = 1;
    options.check_drift = true;
    SolverProblem ls_problem = CacheProblem(seed);
    SolverProblem replay = ls_problem;
    SolveResult local = rb.Solve(ls_problem, options);
    ASSERT_FALSE(local.moves.empty());
    options.lns_starts = 1;  // the single start runs LNS destroy/rebuild
    SolverProblem lns_problem = CacheProblem(seed);
    rb.Solve(lns_problem, options);

    // The same through the public API: replay the local-search move log, then destroy/rebuild
    // rounds shaped like LNS (unassign a neighborhood, re-place each victim), comparing every
    // group after every move.
    ViolationTracker tracker(&replay, &rb);
    tracker.Init();
    ASSERT_EQ(FirstStaleGroup(tracker, replay, rb), -1);
    for (const SolverMove& move : local.moves) {
      tracker.ApplyMove(move.entity, move.to);
      ASSERT_EQ(FirstStaleGroup(tracker, replay, rb), -1) << "after move of " << move.entity;
    }
    EXPECT_EQ(replay.assignment, ls_problem.assignment);

    Rng rng(seed * 7919);
    for (int round = 0; round < 12; ++round) {
      std::vector<int32_t> victims;
      int32_t group = static_cast<int32_t>(rng.UniformInt(0, tracker.num_groups() - 1));
      for (int32_t member : tracker.GroupMembers(group)) {
        victims.push_back(member);
      }
      for (int k = 0; k < 6; ++k) {
        victims.push_back(static_cast<int32_t>(rng.UniformInt(0, replay.num_entities() - 1)));
      }
      std::vector<int32_t> destroyed;
      for (int32_t entity : victims) {
        if (replay.assignment[static_cast<size_t>(entity)] < 0) {
          continue;  // picked twice
        }
        tracker.ApplyUnassign(entity);
        destroyed.push_back(entity);
        ASSERT_EQ(FirstStaleGroup(tracker, replay, rb), -1) << "after unassign of " << entity;
      }
      for (int32_t entity : destroyed) {
        int bin = static_cast<int>(rng.UniformInt(0, replay.num_bins() - 1));
        tracker.ApplyMove(entity, bin);
        ASSERT_EQ(FirstStaleGroup(tracker, replay, rb), -1) << "after re-place of " << entity;
      }
    }
  }
}

TEST(ViolationTrackerTest, IncrementalObjectiveDriftStaysBoundedOver100kMoves) {
  SolverProblem p = RandomProblem(3, 64, 1280, 160);
  Rebalancer rb = Specs();
  ViolationTracker tracker(&p, &rb);
  tracker.Init();
  // Auto-recompute every 4096 applied moves with the drift assertion armed: a drift above the
  // tolerance aborts the test via SM_CHECK.
  tracker.SetAutoRecompute(4096, /*scope_averages_too=*/true);
  tracker.SetDriftCheck(true, /*tolerance=*/1e-4);

  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    int entity = static_cast<int>(rng.UniformInt(0, p.num_entities() - 1));
    int bin = static_cast<int>(rng.UniformInt(0, p.num_bins() - 1));
    if (bin == p.assignment[static_cast<size_t>(entity)]) {
      continue;
    }
    tracker.ApplyMove(entity, bin);
  }
  EXPECT_GT(tracker.applied_moves(), 90000);
  // Drift since the last auto-recompute is itself bounded.
  EXPECT_LE(tracker.MeasureDrift(), 1e-4);
}

}  // namespace
}  // namespace shardman
