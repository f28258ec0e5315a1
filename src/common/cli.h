// Shared command-line parsing for the bench binaries, examples and tools.
//
// Every bench binary used to carry its own copy of the --smoke/--quick/
// --full/--threads/--strategy loop (and every example its own --backend
// strcmp chain); they now all go through this header. Unlike the old
// parsers, unknown flags are a *hard error* (exit 2): a typoed
// --strateg=geometric_skip used to be silently ignored and the bench would
// happily measure the wrong configuration.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.h"    // BatchStrategy, parse_strategy
#include "core/faults.h"    // FaultSpec
#include "core/topology.h"  // Topology::validate_spec

namespace ppsim {

// Strict thread-count parse shared by --threads= and PPSIM_THREADS: the
// whole text must be a decimal integer in [0, UINT32_MAX] (no sign, no
// whitespace, no trailing characters). Returns false otherwise.
inline bool parse_thread_count(const std::string& text, std::uint32_t& out) {
  if (text.empty() || text.size() > 10) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

// Scale/flag bundle for the bench binaries:
//   --quick / --full   scale the trial counts down / up
//   --smoke            CI mode: 1 trial, smallest population only (see
//                      sizes()) — exercises every code path in seconds
//   --threads=N        worker count for the trial fan-out (also
//                      PPSIM_THREADS; 0 = hardware concurrency). Never
//                      changes results — only wall clock.
//   --strategy=S       batching strategy for the count-based engine
//                      (geometric_skip | auto);
//                      benches that honor it call strategy_or() and record
//                      the choice in their BENCH_*.json metadata
//   --fault.drop=P     fault injection (core/faults.h): interaction loss
//   --fault.oneway=P   probability, one-way-delivery probability, and
//   --fault.churn=R    crash-reset rate per unit parallel time. Benches
//                      that honor these pass `faults` into their
//                      ScenarioSpecs; out-of-range values are hard errors
//                      like everything else here.
//   --topology=G       interaction graph (core/topology.h): complete |
//                      ring | line | star | mesh:RxC | torus:RxC |
//                      custom:<path>. Structurally validated here (bad
//                      names/dims exit 2); the n-dependent checks happen
//                      when the bench builds its Topology.
//   --micro            also run the binary's google-benchmark micro section
// Anything else is a hard error.
struct BenchScale {
  double factor = 1.0;  // multiplies trial counts
  bool quick = false;
  bool full = false;
  bool smoke = false;
  bool micro = false;
  std::uint32_t threads = 0;   // 0 = auto (env / hardware)
  std::string strategy_name;   // empty = bench default
  std::string topology;        // empty = bench default (complete)
  FaultSpec faults;            // all-zero = fault-free

  static BenchScale from_args(int argc, char** argv) {
    BenchScale s;
    // Strict numeric parse for the fault knobs: the whole argument after
    // '=' must be a number in [lo, hi], else exit 2 — a typoed
    // --fault.drop=0.5x must not silently run some other experiment.
    auto fault_knob = [&](const std::string& arg, std::size_t prefix_len,
                          double lo, double hi, const char* name) {
      const std::string text = arg.substr(prefix_len);
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size() || v < lo ||
          v > hi) {
        std::cerr << "bad --" << name << " value '" << text << "' (want a "
                  << "number in [" << lo << ", "
                  << (hi < 1e300 ? std::to_string(hi) : std::string("inf"))
                  << "])\n";
        std::exit(2);
      }
      return v;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--quick") {
        s.quick = true;
        s.factor = 0.25;
      } else if (a == "--full") {
        s.full = true;
        s.factor = 4.0;
      } else if (a == "--smoke") {
        s.smoke = true;
        s.quick = true;
        s.factor = 0.0;
      } else if (a == "--micro") {
        s.micro = true;
      } else if (a.rfind("--threads=", 0) == 0) {
        // Strict like the fault knobs: --threads=4x must not mean 4.
        if (!parse_thread_count(a.substr(10), s.threads)) {
          std::cerr << "bad --threads value '" << a.substr(10)
                    << "' (want a non-negative integer)\n";
          std::exit(2);
        }
      } else if (a.rfind("--strategy=", 0) == 0) {
        s.strategy_name = a.substr(11);
        BatchStrategy ignored;
        if (!parse_strategy(s.strategy_name, ignored)) {
          std::cerr << "unknown --strategy value '" << s.strategy_name
                    << "' (want geometric_skip | auto)\n";
          std::exit(2);
        }
      } else if (a.rfind("--fault.drop=", 0) == 0) {
        s.faults.drop = fault_knob(a, 13, 0.0, 1.0, "fault.drop");
      } else if (a.rfind("--fault.oneway=", 0) == 0) {
        s.faults.oneway = fault_knob(a, 15, 0.0, 1.0, "fault.oneway");
      } else if (a.rfind("--fault.churn=", 0) == 0) {
        // The churn <= n upper bound needs the population; the engines
        // check it. Here: any finite non-negative rate.
        s.faults.churn = fault_knob(a, 14, 0.0, 1e300, "fault.churn");
      } else if (a.rfind("--topology=", 0) == 0) {
        s.topology = a.substr(11);
        try {
          Topology::validate_spec(s.topology);
        } catch (const std::exception& e) {
          std::cerr << "bad --topology value '" << s.topology
                    << "': " << e.what() << "\n";
          std::exit(2);
        }
      } else {
        std::cerr << argv[0] << ": unknown flag '" << a
                  << "' (known: --quick --full --smoke --micro --threads=N "
                     "--strategy=S --fault.drop=P "
                     "--fault.oneway=P --fault.churn=R --topology=G)\n";
        std::exit(2);
      }
    }
    return s;
  }

  // The engine strategy this run should use: the --strategy flag if given,
  // else the bench's own default.
  BatchStrategy strategy_or(BatchStrategy fallback) const {
    BatchStrategy s = fallback;
    if (!strategy_name.empty()) parse_strategy(strategy_name, s);
    return s;
  }

  std::uint32_t trials(std::uint32_t base) const {
    if (smoke) return 1;
    const auto t = static_cast<std::uint32_t>(base * factor);
    return t < 3 ? 3 : t;
  }

  // Sweep points for this run: the full list normally, only the first
  // (smallest) entry under --smoke. Works for any point type (population
  // sizes, ablation factors, Smax values, ...).
  template <class T>
  std::vector<T> points(std::initializer_list<T> all) const {
    if (smoke) return {*all.begin()};
    return all;
  }

  // The common case: population sizes (keeps integer literals deducing to
  // std::uint32_t at every call site).
  std::vector<std::uint32_t> sizes(
      std::initializer_list<std::uint32_t> all) const {
    return points<std::uint32_t>(all);
  }
};

// Flag parser for the examples: --backend=array|batch plus nothing else.
// Returns true for the batched engine. Unknown flags are a hard error.
inline bool parse_backend_flag(int argc, char** argv,
                               bool default_batch = false) {
  bool batch = default_batch;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--backend=batch") {
      batch = true;
    } else if (a == "--backend=array") {
      batch = false;
    } else {
      std::cerr << argv[0] << ": unknown flag '" << a
                << "' (known: --backend=array|batch)\n";
      std::exit(2);
    }
  }
  return batch;
}

// For binaries that take no flags at all: hard-error on any argument.
inline void require_no_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << argv[0] << ": unexpected argument '" << argv[1]
            << "' (this binary takes no flags)\n";
  std::exit(2);
}

}  // namespace ppsim
