// Golden coverage for the engine's calendar-queue event core. Each engine
// test pins a fingerprint of every observable a scheduler change could
// move — final digest, end time, trace sizes, event and checkpoint counts,
// per-channel counters, recovery history — to values recorded while the
// engine also had a std::priority_queue core and both cores agreed. A fast
// grid runs in tier 1; the 200-program generated corpus (with fault
// plans, serial and parallel) runs in the slow tier. The queue itself
// stays differentially tested against std::priority_queue below
// (SchedulerQueueProperty).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "explore/explore.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "proto/protocols.h"
#include "sim/calqueue.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/montecarlo.h"
#include "sim/recovery.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

/// Folds every scheduler-determined observable of a run into 64 bits.
/// Doubles hash by their bit pattern and vectors by length then content,
/// so two runs share a fingerprint only if they agree bitwise.
std::uint64_t fingerprint(const sim::SimResult& r) {
  util::Checksum64 h(0x5c4ed);
  auto scalar = [&h](auto v) { h.update(&v, sizeof v); };
  auto vec = [&h, &scalar](const auto& v) {
    scalar(static_cast<std::uint64_t>(v.size()));
    h.update(v.data(), v.size() * sizeof v[0]);
  };
  vec(r.trace.final_digest);
  scalar(r.trace.end_time);
  scalar(static_cast<std::uint64_t>(r.trace.events.size()));
  scalar(static_cast<std::uint64_t>(r.trace.messages.size()));
  scalar(static_cast<std::uint64_t>(r.trace.checkpoints.size()));
  scalar(r.stats.events_processed);
  scalar(r.stats.app_messages);
  scalar(r.stats.statement_checkpoints);
  scalar(r.stats.forced_checkpoints);
  vec(r.final_sends);
  vec(r.final_recvs);
  scalar(static_cast<std::uint64_t>(r.recoveries.size()));
  for (const sim::RecoveryRec& rec : r.recoveries) {
    scalar(rec.fail_time);
    scalar(rec.failed_proc);
  }
  return h.finish();
}

std::uint64_t run_fingerprint(const mp::Program& program,
                              const sim::SimOptions& opts) {
  sim::Engine engine(program, opts);
  return fingerprint(engine.run());
}

// ---------------------------------------------------------------------------
// Fast grid (tier 1): workloads × world sizes × jitter × faults
// ---------------------------------------------------------------------------

TEST(Scheduler, MatchesLegacyOnRingGrid) {
  constexpr std::uint64_t kGolden[] = {
      0x4d2cabb2a8fbe45bULL, 0x1d3d9627ed2facc0ULL, 0x44c2be8d6dde7a61ULL,
      0xf5eabc76d9e8755aULL, 0x6b2d23b86fa27d5dULL, 0xe352614f4a6c0cacULL,
      0xb483a7a881ad8b68ULL, 0x88f33352aec26affULL,
  };
  benchws::RingParams params;
  params.iterations = 8;
  params.compute_cost = 2.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  std::size_t i = 0;
  for (const int n : {2, 5, 8, 16}) {
    for (const double jitter : {0.0, 0.3}) {
      sim::SimOptions opts;
      opts.nprocs = n;
      opts.compute_jitter = jitter;
      opts.seed = 11 + static_cast<std::uint64_t>(n);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " jitter=" + std::to_string(jitter));
      EXPECT_EQ(run_fingerprint(program, opts), kGolden[i++]);
    }
  }
}

TEST(Scheduler, MatchesLegacyOnDominoWithFaults) {
  const mp::Program program = benchws::domino_exchange(10, 3.0);
  sim::SimOptions opts;
  opts.nprocs = 6;
  opts.compute_jitter = 0.25;
  opts.checkpoint_overhead = 0.5;
  opts.recovery_overhead = 2.0;
  opts.fault_plan.faults.push_back(sim::FaultPlan::after_checkpoint(2, 2));
  opts.fault_plan.faults.push_back(sim::FaultPlan::after_events(4, 150));
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  // The plan must actually fire for this test to mean anything.
  ASSERT_FALSE(result.recoveries.empty());
  EXPECT_EQ(fingerprint(result), 0x8ea61f54bedd80eaULL);
}

TEST(Scheduler, MatchesLegacyUnderTimedFaultAndSparseTimes) {
  // at_time faults plus a long-tailed delay model exercise bucket
  // rotation over mostly-empty calendar days.
  benchws::RingParams params;
  params.iterations = 6;
  params.compute_cost = 50.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  sim::SimOptions opts;
  opts.nprocs = 5;
  opts.compute_jitter = 0.5;
  opts.checkpoint_overhead = 1.0;
  opts.recovery_overhead = 5.0;
  opts.fault_plan.faults.push_back(sim::FaultPlan::at_time(1, 120.0));
  EXPECT_EQ(run_fingerprint(program, opts), 0xb26498e49c5a9293ULL);
}

// ---------------------------------------------------------------------------
// Gray-failure grid (tier 1): every driver under crashes, partitions,
// stalls and a slow link, on the reliable and the lossy wire
// ---------------------------------------------------------------------------

/// fingerprint() plus everything the send paths decide: each message's
/// delivery time and transport sequence number, and the partition, stall,
/// transport and control-plane counters.
std::uint64_t gray_fingerprint(const sim::SimResult& r) {
  util::Checksum64 h(0x9a7f);
  auto scalar = [&h](auto v) { h.update(&v, sizeof v); };
  scalar(fingerprint(r));
  for (const trace::MsgRec& m : r.trace.messages) {
    scalar(m.deliver_time);
    scalar(m.xport_seq);
  }
  const sim::SimStats& s = r.stats;
  for (const long v :
       {s.control_messages, s.control_bytes, s.transport_sends,
        s.transport_retransmits, s.transport_dropped,
        s.transport_dup_arrivals, s.transport_acks, s.transport_give_ups,
        s.transport_rto_backoffs, s.transport_reorder_high_water,
        s.suspicions, s.false_suspicions, s.quarantines,
        s.crash_dropped_events, s.partition_deferred_sends,
        s.partition_dropped_attempts, s.stall_deferred_events})
    scalar(v);
  scalar(s.restarts);
  scalar(s.supervised_restarts);
  return h.finish();
}

TEST(SchedulerGrayFailure, DriversUnderWindowsAndLossMatchGolden) {
  // Driver-major, then workload, then wire (reliable, lossy).
  constexpr std::uint64_t kGolden[] = {
      0x2c5b7d02588f0cfaULL, 0x2f53dd0e33843181ULL, 0x94a835182c94e97aULL,
      0xa0ca682f24043055ULL, 0x9d6a1c630770c61bULL, 0x2303d449196b2aafULL,
      0x4156fa68a6b48d60ULL, 0x46da3b63c5142259ULL, 0x1780c40fe5f8d495ULL,
      0x6a9d1208d6efcca5ULL, 0xea30dd77dd0ea03aULL, 0x198e3f7c9dbbe357ULL,
      0x902c2f816f38aaa9ULL, 0xd34744aed7ece4a7ULL, 0xe638938e7713cbe0ULL,
      0xc1c25c2783409045ULL, 0x869a8fce1f6a0a61ULL, 0x2709ae74aeeff1f5ULL,
      0xd70bdb6eb0b083beULL, 0x1e219fe6ebe3367fULL, 0x65ebc7d335f64767ULL,
      0xe054b9d0428ed739ULL, 0xb0c9fdcd0b3cbf8bULL, 0x4f514c30e7ffbf3cULL,
      0x1c374c5f957fa735ULL, 0x9c7ca73cedb631d2ULL, 0x11adb5cc9519a620ULL,
      0x133dacc5234e1986ULL,
  };
  constexpr int kN = 4;
  constexpr double kHorizon = 80.0;
  std::size_t i = 0;
  for (const std::string driver :
       {"app-driven", "sync-and-stop", "chandy-lamport", "koo-toueg", "cic",
        "uncoordinated", "supervised"}) {
    proto::ProtocolOptions popts;
    popts.interval = 15.0;
    const sim::DriverFactory factory =
        proto::driver_factory_by_name(driver, popts);
    for (const std::string workload : {"ring", "stencil_two_phase"}) {
      mp::WorkloadParams params;
      params.iterations = 6;
      params.checkpoints = driver == "app-driven" || driver == "supervised";
      const mp::Program program = mp::workload_by_name(workload, params);
      for (const bool lossy : {false, true}) {
        const std::uint64_t seed = 31 + i;
        sim::SimOptions opts;
        opts.nprocs = kN;
        opts.seed = seed;
        opts.checkpoint_overhead = 0.2;
        opts.recovery_overhead = 0.5;
        if (lossy) {
          opts.delay.drop = 0.05;
          opts.delay.dup = 0.02;
          opts.delay.reorder = 0.05;
        }
        opts.fault_plan = sim::random_fault_plan(seed, kN, kHorizon, 2, 2, 2);
        opts.fault_plan.slow_links.push_back(sim::FaultPlan::slow_link(
            static_cast<int>(seed % kN), -1, 0.2 * kHorizon, 0.6 * kHorizon,
            3.0));
        SCOPED_TRACE(driver + " " + workload + (lossy ? " lossy" : ""));
        const std::unique_ptr<sim::ProtocolDriver> d = factory();
        sim::Engine engine(program, opts, d.get());
        EXPECT_EQ(gray_fingerprint(engine.run()), kGolden[i++]);
      }
    }
  }
  EXPECT_EQ(i, std::size(kGolden));
}

TEST(SchedulerGrayFailure, ReplaysWaitForThePartitionToHeal) {
  // Rank 0 sends and then checkpoints; rank 1 checkpoints and then
  // receives. Crashing rank 1 in between leaves the message in transit
  // across the recovery line, so the rollback replays it from the log
  // while rank 0 is still cut off.
  const mp::Program program = mp::parse(R"(
    program transit {
      if (rank == 0) {
        compute 1.0;
        send to 1 tag 1;
        checkpoint;
        compute 10.0;
      } else {
        checkpoint;
        compute 10.0;
        recv from 0 tag 1;
      }
    })");
  constexpr std::uint64_t kGolden[] = {0x60db11eb752cd955ULL,
                                       0x625f78f7635c6c3cULL};
  constexpr double kHeal = 20.0;
  std::size_t i = 0;
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "lossy" : "reliable");
    sim::SimOptions opts;
    opts.nprocs = 2;
    opts.recovery_overhead = 0.5;
    if (lossy) opts.delay.drop = 0.05;
    opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 6.0)};
    opts.fault_plan.partitions = {
        sim::FaultPlan::partition({0}, 5.0, kHeal)};
    sim::Engine engine(program, opts);
    const sim::SimResult r = engine.run();
    ASSERT_TRUE(r.trace.completed);
    long replays = 0;
    for (const trace::MsgRec& m : r.trace.messages)
      if (m.replayed) {
        ++replays;
        EXPECT_GE(m.deliver_time, kHeal);
      }
    EXPECT_EQ(replays, 1);
    EXPECT_EQ(gray_fingerprint(r), kGolden[i++]);
  }
}

TEST(SchedulerGrayFailure, ExplorerWindowSearchCountsMatchGolden) {
  // Explorer-injected crash, partition and stall points. Chandy-Lamport
  // and the supervisor send control messages, so injected windows reach
  // the control send path too; the memo counts pin the state hash.
  struct Expected {
    const char* driver;
    long schedules, choice_points, states_recorded, states_pruned;
    std::uint64_t replays;
  };
  constexpr Expected kGolden[] = {
      {"app-driven", 46, 2763, 89, 10, 0x6c5d3048c6438ec7ULL},
      {"chandy-lamport", 46, 2898, 89, 10, 0x423e4afd7f0c4c7dULL},
      {"supervised", 46, 3414, 89, 10, 0xeb7667bf957ef6dfULL},
  };
  // Choice vectors, three per boundary: crash, partition, stall.
  const std::vector<std::vector<int>> kPlans = {
      {0, 1, 0, 0, 0, 1},
      {0, 0, 1, 0, 1, 0, 0, 1, 0},
      {1, 0, 0, 0, 1, 0, 0, 0, 1},
      {0, 1, 1, 0, 1, 1, 0, 1, 1},
  };
  for (const Expected& want : kGolden) {
    SCOPED_TRACE(want.driver);
    explore::Scenario sc;
    sc.workload = "ring";
    sc.params.iterations = 2;
    sc.nprocs = 3;
    sc.driver = want.driver;
    sc.proto.interval = 20.0;
    explore::ExploreOptions opts;
    opts.max_choice_points = 9;
    opts.max_schedules = 4000;
    opts.perturb.tie_cap = 1;
    opts.perturb.failure_points = true;
    opts.perturb.partition_points = true;
    opts.perturb.partition_window = 2.0;
    opts.perturb.stall_points = true;
    opts.perturb.stall_window = 2.0;
    const explore::ExploreResult r = explore::explore(sc, opts);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.violations_found, 0);
    EXPECT_EQ(r.schedules_run, want.schedules);
    EXPECT_EQ(r.choice_points, want.choice_points);
    EXPECT_EQ(r.states_recorded, want.states_recorded);
    EXPECT_EQ(r.states_pruned, want.states_pruned);
    EXPECT_EQ(r.max_plan_length, 9);
    // Replays of hand-picked plans that inject windows early, late and
    // next to a crash, folded with every counter the windows move.
    util::Checksum64 h(0x3e91);
    auto scalar = [&h](auto v) { h.update(&v, sizeof v); };
    for (const std::vector<int>& plan : kPlans) {
      const explore::ReplayReport rep = explore::replay_plan(sc, opts, plan);
      scalar(rep.completed);
      scalar(rep.digest);
      for (const long v :
           {rep.stats.events_processed, rep.stats.control_messages,
            rep.stats.partition_deferred_sends,
            rep.stats.stall_deferred_events, rep.stats.crash_dropped_events,
            rep.stats.suspicions})
        scalar(v);
      scalar(rep.stats.restarts);
    }
    EXPECT_EQ(h.finish(), want.replays);
  }
}

// ---------------------------------------------------------------------------
// Generated corpus (slow tier): 200 programs, with and without faults,
// serial and parallel
// ---------------------------------------------------------------------------

// Same corpus recipe as test_fastpath.cpp: 100 seeds × misaligned
// {off, on}, sizes cycling through 6..22 segments.
mp::Program corpus_program(int index, bool misalign) {
  mp::GenerateOptions opts;
  opts.seed = 0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(index);
  opts.segments = 6 + (index % 5) * 4;
  opts.misalign_checkpoints = misalign;
  return mp::generate_program(opts);
}

sim::SimOptions corpus_options(int index) {
  sim::SimOptions opts;
  opts.nprocs = 3 + index % 6;
  opts.seed = 1000 + static_cast<std::uint64_t>(index);
  opts.compute_jitter = (index % 3) * 0.2;
  opts.checkpoint_overhead = 0.25;
  opts.recovery_overhead = 1.0;
  // Every third program gets a fault plan, cycling through trigger kinds.
  switch (index % 6) {
    case 0:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_checkpoint(index % opts.nprocs, 1));
      break;
    case 3:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_events(index % opts.nprocs, 200));
      break;
    default:
      break;
  }
  return opts;
}

/// Fingerprints of the corpus runs, index-major, misalign off then on.
constexpr std::uint64_t kCorpusGolden[] = {
    0x96a2fd03356e0e64ULL, 0x96a2fd03356e0e64ULL, 0x2a802ee5a8cd5ef6ULL,
    0xd21ae6102974657fULL, 0xa0168d48cf40dfcfULL, 0x01246713bd84a0fcULL,
    0x41f696f47b442486ULL, 0x3c0f3c1a2f875c4fULL, 0x7c9f126493ebf55fULL,
    0x1041e0f2c416292fULL, 0x5b7b2d657426d57aULL, 0x5b7b2d657426d57aULL,
    0x6bf21f5d74f55ff3ULL, 0x935fc2a683c608f7ULL, 0x2009145a334608d3ULL,
    0x2a910cfeeb43c88cULL, 0x2470a4976fe093bcULL, 0x1d15b05d3259fb0fULL,
    0x7e24e635abd921feULL, 0x7eb4fbe1d6a836c0ULL, 0xf9ca68be2cd84e6dULL,
    0xf9ca68be2cd84e6dULL, 0xb819d6d9726cecfdULL, 0xb819d6d9726cecfdULL,
    0x20fec2a2659436beULL, 0x06a088c3eeff466cULL, 0x1a245b258ff69611ULL,
    0xa830bb0866db849cULL, 0x1ffd25edc8531161ULL, 0x67ecdef0d1efa8edULL,
    0xa3f562efe7456798ULL, 0xaa024f0dd96ec2afULL, 0x78323a9095b0b02dULL,
    0xc940d23063677061ULL, 0x9dc446a3d45f84cfULL, 0xd49821fcd2406704ULL,
    0x9199c3dabc22b0bdULL, 0xd4cabd86aca78f65ULL, 0xd9e0b35bf1ad8b97ULL,
    0x9cf83295fc001b55ULL, 0x1d7f2034f1167167ULL, 0x1d7f2034f1167167ULL,
    0x5b278ce345695e9eULL, 0x5b278ce345695e9eULL, 0x415d2f22060db715ULL,
    0x415d2f22060db715ULL, 0xc4ba1edb9277a20bULL, 0x57d4cce7715f1f51ULL,
    0xa21eb4ff069fec2fULL, 0x7ea123ac927abc66ULL, 0x51f9ce14bbcecea5ULL,
    0x51f9ce14bbcecea5ULL, 0x02161abae99faeddULL, 0x93bf46fe74bf7f57ULL,
    0x97dce8a3a8804b26ULL, 0xfffa90bd760b22cbULL, 0x167f5f3ba23774a3ULL,
    0x71e6f8262ef073ceULL, 0x9468ea0d873529e2ULL, 0xc5591fb89a5f306eULL,
    0xe6e2f53df3ece3b0ULL, 0x3e418b3556aeebbaULL, 0xfc3351c124813be9ULL,
    0x57dca9443e5de843ULL, 0x0d4fa2f0320cc0e1ULL, 0xe7425d18b44903f7ULL,
    0xfe9bb3b964624f5eULL, 0x8d6c6d6dc3aa3758ULL, 0x59cf397b4813deb2ULL,
    0x4475e5287285cb65ULL, 0x83d88dcce709c11aULL, 0x83d88dcce709c11aULL,
    0x2703bf3794ba330bULL, 0x55a98facc2e8733aULL, 0x4caf706fdd8f8b25ULL,
    0x68c446a2a2a5e5b8ULL, 0x9f03c32a995e98a6ULL, 0xcd447447424fd100ULL,
    0x6ea26f8a19b90acbULL, 0x3ffb078f2e3474fbULL, 0xe8597a170722038bULL,
    0x827e3cfbbc437a69ULL, 0xbbde47c11cb4685dULL, 0x6ad78f24066474cbULL,
    0x0cff346e9d60dd43ULL, 0x5be7f05bc1b8e86aULL, 0xa655465b6c8c130eULL,
    0xd4c52adaf6d6ae26ULL, 0x627bec6ed66bab3eULL, 0x627bec6ed66bab3eULL,
    0x5cd5194e8b37e56bULL, 0xd064aaf72362baf3ULL, 0x6404b0f1f534c379ULL,
    0xbbf8b7be0a0e768eULL, 0xc93aa0bc07ef8226ULL, 0x01f020e3d7cddf73ULL,
    0x87ef8d9ebb4eaa37ULL, 0x87ef8d9ebb4eaa37ULL, 0x4ac852db3ca7b687ULL,
    0xc17a32836931d476ULL, 0x945ce2662eebae6fULL, 0x945ce2662eebae6fULL,
    0x5fc2f13e151f5c69ULL, 0x30f3b1fff42ccaffULL, 0x589e0dd2eecbc37fULL,
    0x7869d21e9bd8a10bULL, 0x76e839dcf7821e00ULL, 0x2e42a5d6995c9ca5ULL,
    0x25c0c99a2d7a424dULL, 0x5a5286f74046a4f5ULL, 0x477ba356ffd53beaULL,
    0xced0220390f98f06ULL, 0xab204976fbc32c39ULL, 0x0e21d0a6b0fd16ecULL,
    0xb44b16b7855da49fULL, 0xb44b16b7855da49fULL, 0xba1cdf535bb0f458ULL,
    0xc69ce3acf5dff077ULL, 0xb20246f03aa0f2adULL, 0xb20246f03aa0f2adULL,
    0x6a6968eac564f31bULL, 0x2ecf7983c6b3f208ULL, 0x3e9daa9dca2993d5ULL,
    0xf2004dde99dc4bc6ULL, 0xb5d600b671f287d3ULL, 0xb4b67477cdee1f9cULL,
    0x3e0e017212771996ULL, 0xf1ffec65b7c86747ULL, 0xb13c0d4968119e7cULL,
    0x1bed03d6ffb9619cULL, 0xece3e1b5e5f73ab6ULL, 0xc6f8bdf3f17c966bULL,
    0x2eec24d7702c658dULL, 0xda8768e29de37cb3ULL, 0xe326055010cb1a17ULL,
    0x6535d7d92ce21984ULL, 0xea6f59e7f6aae9c4ULL, 0x855171e3932d8905ULL,
    0x782b65f9b793cfcdULL, 0xfd350dd9dda067b6ULL, 0xcfcf7f4bc6271b92ULL,
    0x1beb554f00a4310eULL, 0x94204f9515235856ULL, 0x14eae0ed987bb194ULL,
    0x931782857dcf51e6ULL, 0x40efcfefcf1bc8f5ULL, 0x6b8c52fb083257e0ULL,
    0x46b9ce2cf108787cULL, 0x647220e1152f1e9aULL, 0x992f71826c5021a4ULL,
    0x3b10803a7379d33bULL, 0xc74193345973c225ULL, 0xb1a0a9d5cabd9d5dULL,
    0x975b1e75fd306f49ULL, 0x2c750b55e8ccf642ULL, 0x7f606f4b52875b84ULL,
    0x680aa97342305aeaULL, 0xf6a6f8e2f7ca64fcULL, 0xe3c80356578b40b8ULL,
    0x3ee6a99b3eecc6f6ULL, 0xee0e9c77b628c744ULL, 0x15d77eca36b9b050ULL,
    0x5e4a5ab33bbda36fULL, 0x6107bf828ce198bcULL, 0x33c23dc9e05035daULL,
    0xb6e6e042d0f8ebb5ULL, 0xd9985c03d5d5fe94ULL, 0x8c60cb28b7445456ULL,
    0xec0f2932bcd21f11ULL, 0x11613f05e2559d72ULL, 0xd5e340b2b3c146b2ULL,
    0xd5e340b2b3c146b2ULL, 0x93f872c6147fe622ULL, 0x93f872c6147fe622ULL,
    0x27a8993931bd884eULL, 0x8a75b529ee709900ULL, 0x107856f18c444d0cULL,
    0x82e1add55390c08cULL, 0x128913665ea1cf0aULL, 0x128913665ea1cf0aULL,
    0xa23bc4fdb3b9fb8fULL, 0x37c4a37484df0f61ULL, 0xbbc8401ff3f5af13ULL,
    0xf53bd934cf3bc3ceULL, 0xa20acc7557b7a6daULL, 0xa20acc7557b7a6daULL,
    0x7fc6c7e30d77dd57ULL, 0xe70e65573feda648ULL, 0x954bfc38f0b50841ULL,
    0x4e05a2f983c544ccULL, 0x388d0f32fcc0b4c3ULL, 0x388d0f32fcc0b4c3ULL,
    0x16a6c099b04393e5ULL, 0x16a6c099b04393e5ULL, 0xd1a3cc890edc05afULL,
    0xccc94e94e06f9700ULL, 0x8783e99497937c62ULL, 0x430aa96120145647ULL,
    0xb365de2358499d19ULL, 0x191cffeaf4672bf4ULL,
};

TEST(SchedulerCorpusSlow, MatchesLegacyOn200Programs) {
  std::size_t programs = 0;
  for (int index = 0; index < 100; ++index) {
    for (const bool misalign : {false, true}) {
      const mp::Program program = corpus_program(index, misalign);
      SCOPED_TRACE("index=" + std::to_string(index) +
                   " misalign=" + std::to_string(misalign));
      EXPECT_EQ(run_fingerprint(program, corpus_options(index)),
                kCorpusGolden[programs]);
      ++programs;
    }
  }
  EXPECT_EQ(programs, std::size(kCorpusGolden));
}

// ---------------------------------------------------------------------------
// Data-structure-level differential property test: CalendarQueue against
// std::priority_queue<Ev, EvCmp> under randomized push/pop interleavings.
// (time, seq) is a unique total order, so the two must agree on the EXACT
// pop sequence, not just multiset equality. The op mix deliberately
// stresses the hard regimes: same-time bursts (one day, heap discipline),
// regular spacing (steady ring occupancy), far-future outliers (empty-year
// direct jumps + width re-estimation), and the tiny-behind-the-scan pushes
// the engine's time slack can produce (anchor rewind).

void expect_pop_matches(sim::CalendarQueue& cal,
                        std::priority_queue<sim::Ev, std::vector<sim::Ev>,
                                            sim::EvCmp>& ref,
                        double& now) {
  ASSERT_FALSE(ref.empty());
  ASSERT_FALSE(cal.empty());
  const sim::Ev got = cal.pop();
  const sim::Ev want = ref.top();
  ref.pop();
  ASSERT_EQ(got.time, want.time);
  ASSERT_EQ(got.seq, want.seq);
  now = got.time;
}

TEST(SchedulerQueueProperty, RandomOpSequencesMatchPriorityQueue) {
  long total_direct_jumps = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    sim::CalendarQueue cal;
    std::priority_queue<sim::Ev, std::vector<sim::Ev>, sim::EvCmp> ref;
    long seq = 0;
    double now = 0.0;
    for (int op = 0; op < 4000; ++op) {
      const bool push = ref.empty() || rng.uniform_int(0, 99) < 55;
      if (push) {
        const auto regime = rng.uniform_int(0, 9);
        double dt = 0.0;  // regimes 0-2: same-time burst
        if (regime >= 3 && regime <= 7)
          dt = 1e-3 * static_cast<double>(rng.uniform_int(1, 50));
        else if (regime == 8)
          dt = static_cast<double>(rng.uniform_int(1, 100));  // outlier
        sim::Ev ev;
        ev.time = regime == 9 ? std::max(0.0, now - 1e-12) : now + dt;
        ev.seq = seq++;
        ev.a = op;
        cal.push(ev);
        ref.push(ev);
      } else {
        expect_pop_matches(cal, ref, now);
      }
    }
    while (!ref.empty()) expect_pop_matches(cal, ref, now);
    EXPECT_TRUE(cal.empty());
    total_direct_jumps += cal.stats().direct_jumps;
  }
  // The outlier regime must have exercised the empty-year jump path —
  // otherwise the mix is too tame to count as differential coverage.
  EXPECT_GT(total_direct_jumps, 0);
}

TEST(SchedulerQueueProperty, BurstThenSparseDrainMatches) {
  // Deterministic boundary case: a 256-event same-time burst (everything
  // in one day; grows the ring past two doublings) followed by events at
  // exponentially growing gaps — the width estimate always trails the
  // largest gaps, so draining them needs empty-year direct jumps.
  sim::CalendarQueue cal;
  std::priority_queue<sim::Ev, std::vector<sim::Ev>, sim::EvCmp> ref;
  long seq = 0;
  for (int i = 0; i < 256; ++i) {
    sim::Ev ev;
    ev.time = 5.0;
    ev.seq = seq++;
    cal.push(ev);
    ref.push(ev);
  }
  double t = 1000.0;
  for (int i = 0; i < 24; ++i) {
    sim::Ev ev;
    ev.time = t;
    ev.seq = seq++;
    cal.push(ev);
    ref.push(ev);
    t *= 4.0;
  }
  EXPECT_GT(cal.stats().grows, 0);
  double now = 0.0;
  while (!ref.empty()) expect_pop_matches(cal, ref, now);
  EXPECT_TRUE(cal.empty());
  EXPECT_GT(cal.stats().direct_jumps, 0);
}

TEST(SchedulerCorpusSlow, ParallelBatchMatchesLegacySerialBatch) {
  // Parallel vs serial batch, both against the golden fingerprints. Any
  // scheduler drift OR any pool nondeterminism breaks the match.
  constexpr std::uint64_t kGolden[] = {
      0xb471013f56e9c479ULL, 0xb18fdc54610e7f1aULL, 0x1fc39d4cc214bcaeULL,
      0xf7d9196b16b52aadULL, 0x36e70beaa4ce2359ULL, 0x2d5bea21d1beadf7ULL,
      0xb471013f56e9c479ULL, 0x34f05625123bc9a5ULL, 0x061a3693306c9cd6ULL,
      0xf7d9196b16b52aadULL, 0x734b53bf270017a9ULL, 0xcc4ac5674280c701ULL,
      0xb471013f56e9c479ULL, 0x3b2576600fda2cceULL, 0x18a638665e1eea20ULL,
      0xf7d9196b16b52aadULL, 0xdfddf193187dbb35ULL, 0x677cab53cf5f0964ULL,
      0xb471013f56e9c479ULL, 0xdf75f9ca341fcbd7ULL, 0x22405a666e787bedULL,
      0xf7d9196b16b52aadULL, 0x59b6a1c981fa548fULL, 0xf342dcb9ca9ed1aeULL,
  };
  const mp::Program program = benchws::domino_exchange(8, 4.0);
  std::vector<sim::SimOptions> configs;
  for (int index = 0; index < 24; ++index)
    configs.push_back(corpus_options(index));
  const auto parallel = sim::run_batch(program, configs, sim::McOptions{4});
  const auto serial = sim::run_batch(program, configs, sim::McOptions{1});
  ASSERT_EQ(parallel.size(), std::size(kGolden));
  ASSERT_EQ(serial.size(), std::size(kGolden));
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(fingerprint(parallel[i]), fingerprint(serial[i]));
    EXPECT_EQ(fingerprint(serial[i]), kGolden[i]);
  }
}

}  // namespace
