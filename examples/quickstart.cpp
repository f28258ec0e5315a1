// Quickstart: self-stabilizing ranking and leader election in five minutes,
// on either simulation backend.
//
// We drop 100 agents into a hostile, completely scrambled initial
// configuration (as if every memory bit had been hit by transient faults),
// run Optimal-Silent-SSR (the paper's O(n)-time, O(n)-state silent
// protocol), and watch the population detect the inconsistency, reset,
// elect a leader during the dormant phase, and rebuild the ranking
// 1..n via the binary rank tree.
//
// The same generic driver runs on both engines of the unified Engine API —
// the agent-array Simulation and the count-based BatchSimulation — because
// it only uses the shared contract (run, interactions,
// parallel_time, counters) plus a per-backend role census.
//
// Build & run:  ./build/quickstart                  # agent array (default)
//               ./build/quickstart --backend=batch  # count-based engine
#include <cstdio>

#include "common/cli.h"
#include "core/batch_simulation.h"
#include "core/engine.h"
#include "core/simulation.h"
#include "init/optimal_silent_init.h"
#include "protocols/leader.h"
#include "protocols/optimal_silent.h"

using namespace ppsim;

namespace {

constexpr std::uint32_t kN = 100;

// Role census, per backend: O(n) over agents or O(|Q|) over counts.
template <Engine EngineT>
std::uint32_t count_role(const EngineT& sim, OsRole role) {
  std::uint32_t count = 0;
  if constexpr (AgentArrayEngine<EngineT>) {
    for (const auto& s : sim.states())
      if (s.role == role) ++count;
  } else {
    const auto& counts = sim.state_counts();
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] > 0 && sim.protocol().decode(q).role == role)
        count += static_cast<std::uint32_t>(counts[q]);
  }
  return count;
}

template <Engine EngineT>
bool ranked(const EngineT& sim) {
  if constexpr (AgentArrayEngine<EngineT>) {
    return is_correctly_ranked(sim.protocol(), sim.states());
  } else {
    return is_correctly_ranked(sim.protocol(), sim.state_counts());
  }
}

// The backend-agnostic demo: one driver, either engine.
template <Engine EngineT>
int drive(EngineT sim, const OptimalSilentParams& params) {
  std::printf("n = %u agents, Emax = %u, Dmax = %u, Rmax = %u\n", kN,
              params.emax, params.dmax, params.rmax);
  std::printf("%10s %12s %12s %12s %10s\n", "time", "settled", "unsettled",
              "resetting", "ranked?");

  double next_report = 0;
  while (!ranked(sim)) {
    // Advance in small bursts; the batched engine may overshoot a burst by
    // the tail of a geometric null-skip, which is real simulated time.
    sim.run(kN / 2);
    if (sim.parallel_time() >= next_report) {
      std::printf("%10.1f %12u %12u %12u %10s\n", sim.parallel_time(),
                  count_role(sim, OsRole::Settled),
                  count_role(sim, OsRole::Unsettled),
                  count_role(sim, OsRole::Resetting),
                  ranked(sim) ? "yes" : "no");
      next_report += 100.0;
    }
  }

  std::printf("\nstabilized at parallel time %.1f (%llu interactions)\n",
              sim.parallel_time(),
              static_cast<unsigned long long>(sim.interactions()));
  const auto& counters = sim.counters();
  std::printf("resets: %llu collision triggers, %llu timeout triggers\n",
              static_cast<unsigned long long>(counters.collision_triggers),
              static_cast<unsigned long long>(counters.timeout_triggers));

  if constexpr (AgentArrayEngine<EngineT>) {
    const auto leader = unique_leader(sim.protocol(), sim.states());
    std::printf("leader (rank 1) is agent %u\n", *leader);
    std::printf("first ranks: ");
    for (std::uint32_t r = 1; r <= 10; ++r) {
      for (std::uint32_t i = 0; i < kN; ++i)
        if (sim.protocol().rank_of(sim.states()[i]) == r)
          std::printf("%u->agent%u ", r, i);
    }
    std::printf("...\n");
  } else {
    // The count-based engine is anonymous: agents have no identity, only
    // states do — exactly why it runs in O(|Q|) memory.
    std::printf("unique leader: %s (count-based view; agents are anonymous "
                "under the batched engine)\n",
                has_unique_leader(sim.protocol(), sim.state_counts())
                    ? "yes"
                    : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool batch = parse_backend_flag(argc, argv);

  const auto params = OptimalSilentParams::standard(kN);
  OptimalSilentSSR protocol(params);
  // An adversarial start from the named initial-condition catalog: every
  // field of every agent uniformly random. The same generator feeds either
  // backend (counts for the batched engine, agents for the array).
  const auto& inits = optimal_silent_inits();

  std::printf("backend: %s\n", batch ? "count-based batched" : "agent array");
  if (batch) {
    return drive(BatchSimulation<OptimalSilentSSR>(
                     protocol, inits.counts(protocol, "uniform-random", 7),
                     /*seed=*/42),
                 params);
  }
  return drive(Simulation<OptimalSilentSSR>(
                   protocol, inits.agents(protocol, "uniform-random", 7),
                   /*seed=*/42),
               params);
}
