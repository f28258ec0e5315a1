// ppsle_run: the declarative scenario runner over the protocol registry.
//
// One binary replaces the per-experiment flag parsing of the bench
// binaries for ad-hoc and matrix experimentation: every cell of
// (protocol x n x adversarial init x engine/strategy x stop condition) is
// a ScenarioSpec executed by the registry (core/registry.h,
// analysis/scenarios.h), and results are emitted both as human tables and
// in the BENCH_*.json schema tools/bench_compare diffs.
//
// Modes:
//   ppsle_run --list
//       Print the registry: every protocol with its state space, engines,
//       initial conditions and stop conditions.
//   ppsle_run --scenario key=val [key=val ...]
//       Run one scenario. Keys: protocol, n, init, engine, strategy,
//       until, trials, seed, threads, max_interactions, ptime, tail,
//       fault.drop, fault.oneway, fault.churn, topology, label,
//       param.<name> (protocol-constant override, e.g.
//       param.rmax_factor=2). Unknown keys/values are hard errors, and so
//       are n, trials and threads above UINT32_MAX.
//   ppsle_run --matrix file.json
//       Run a sweep matrix: the JSON's "matrix" object maps spec keys to
//       value lists (full cross product), "defaults" seeds every cell, and
//       "scenarios" appends explicit extra cells. Every cell is resolved
//       (core/registry.h resolve()) before any runs, so an inexpressible
//       cell fails the matrix up front; cells whose plans share an
//       identity and a label (e.g. strategy variants of a cell that runs
//       on the agent array) run once.
//
// Common flags: --out=<name> names the BENCH_<name>.json (default
// "scenarios" or the matrix file's "name").
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/json.h"
#include "core/table.h"

namespace ppsim {
namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "ppsle_run: " << message << "\n"
            << "usage: ppsle_run --list\n"
            << "       ppsle_run --scenario key=val [key=val ...] "
               "[--out=<name>]\n"
            << "       ppsle_run --matrix <file.json> [--out=<name>]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (...) {
    usage_error("value of '" + key + "' is not an integer: '" + value + "'");
  }
}

// The 32-bit spec fields (n, trials, threads): a value above UINT32_MAX is
// a hard error, never a silent truncation to its low 32 bits.
std::uint32_t parse_u32(const std::string& key, const std::string& value) {
  const std::uint64_t v = parse_u64(key, value);
  if (v > UINT32_MAX)
    usage_error("value of '" + key + "' exceeds " +
                std::to_string(UINT32_MAX) + ": '" + value + "'");
  return static_cast<std::uint32_t>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (...) {
    usage_error("value of '" + key + "' is not a number: '" + value + "'");
  }
}

// Applies one key=value pair to a spec; `label` is the caller-chosen
// experiment name for the JSON records. Unknown keys are hard errors.
void apply_kv(ScenarioSpec& spec, std::string& label, const std::string& key,
              const std::string& value) {
  if (key == "protocol") {
    spec.protocol = value;
  } else if (key == "n") {
    spec.n = parse_u32(key, value);
  } else if (key == "init") {
    spec.init = value;
  } else if (key == "engine") {
    spec.engine = value;
  } else if (key == "strategy") {
    spec.strategy = value;
  } else if (key == "until") {
    spec.until = value;
  } else if (key == "trials") {
    spec.trials = parse_u32(key, value);
  } else if (key == "seed") {
    spec.seed = parse_u64(key, value);
  } else if (key == "threads") {
    spec.threads = parse_u32(key, value);
  } else if (key == "max_interactions") {
    spec.max_interactions = parse_u64(key, value);
  } else if (key == "ptime") {
    spec.horizon_ptime = parse_double(key, value);
  } else if (key == "tail") {
    spec.tail_ptime = parse_double(key, value);
  } else if (key == "fault.drop") {
    // Fault-injection knobs (core/faults.h). Like every other spec field
    // they are checked by resolve(). Any non-zero knob stamps the record
    // `faulted`.
    spec.faults.drop = parse_double(key, value);
  } else if (key == "fault.oneway") {
    spec.faults.oneway = parse_double(key, value);
  } else if (key == "fault.churn") {
    spec.faults.churn = parse_double(key, value);
  } else if (key == "topology") {
    spec.topology = value;  // interaction graph (core/topology.h)
  } else if (key == "label") {
    label = value;
  } else if (key.rfind("param.", 0) == 0 && key.size() > 6) {
    // Protocol-constant override, passed through verbatim; the protocol's
    // registered runner validates the name and value (unknown names are
    // hard errors there, matching the unknown-key policy here).
    spec.params.emplace_back(key.substr(6), value);
  } else {
    usage_error("unknown scenario key '" + key +
                "' (known: protocol n init engine strategy until "
                "trials seed threads max_interactions ptime tail "
                "fault.drop fault.oneway fault.churn topology label "
                "param.<name>)");
  }
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

int list_registry() {
  const ProtocolRegistry& reg = default_registry();
  std::cout << "registered protocols (" << reg.all().size() << "):\n\n";
  Table t({"protocol", "n", "states", "engines", "until (default first)",
           "description"});
  for (const ProtocolEntry& e : reg.all()) {
    std::vector<std::string> untils = {e.default_until};
    for (const auto& u : e.untils)
      if (u != e.default_until) untils.push_back(u);
    t.add_row({e.name,
               e.fixed_n ? "= " + std::to_string(e.fixed_n) : "any",
               e.states, e.batch_capable ? "array, batch" : "array",
               join(untils, " | "), e.description});
  }
  t.print();
  std::cout << "\ninitial conditions (default first):\n";
  for (const ProtocolEntry& e : reg.all()) {
    std::vector<std::string> inits = {e.default_init};
    for (const auto& i : e.inits)
      if (i != e.default_init) inits.push_back(i);
    std::cout << "  " << e.name << ": " << join(inits, ", ") << "\n";
  }
  std::cout << "\nexample:\n  ppsle_run --scenario protocol=optimal-silent "
               "n=1024 init=duplicate-rank until=detected trials=5\n";
  return 0;
}

// Runs one resolved plan, prints a table row, appends the JSON record.
void run_and_report(const ScenarioPlan& plan, const std::string& label,
                    Table& table, BenchReport& report) {
  const ScenarioResult r = default_registry().run(plan);
  // "auto:" marks cells where the strategy controller (not the spec) chose
  // the whole-run arm from the initial occupancy.
  const std::string engine_desc =
      (r.engine_arm.empty() ? "" : "auto:") +
      (r.backend == "batch" ? r.backend + "/" + r.strategy : r.backend);
  table.add_row(
      {plan.protocol, std::to_string(r.n), r.init, engine_desc, r.until,
       std::to_string(r.trials),
       fmt(r.summary.mean, 3) + " +/- " + fmt(r.summary.ci95, 3),
       r.metric, std::to_string(r.failed), fmt(r.wall_seconds, 3)});
  report_scenario(report,
                  label.empty() ? "scenario_" + plan.protocol + "_" + r.init +
                                      "_" + r.until
                                : label,
                  r);
}

int run_single(const std::vector<std::string>& kvs, std::string out_name) {
  ScenarioSpec spec;
  std::string label;
  for (const std::string& kv : kvs) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos)
      usage_error("expected key=val after --scenario, got '" + kv + "'");
    apply_kv(spec, label, kv.substr(0, eq), kv.substr(eq + 1));
  }
  if (spec.protocol.empty()) usage_error("--scenario needs protocol=<name>");
  BenchReport report(out_name.empty() ? "scenarios" : out_name);
  Table t({"protocol", "n", "init", "engine", "until", "trials",
           "metric mean +/- ci95", "metric", "failed", "wall s"});
  run_and_report(default_registry().plan(spec), label, t, report);
  t.print();
  const std::string path = report.write();
  if (!path.empty()) std::cout << "machine-readable results: " << path << "\n";
  return 0;
}

std::string json_scalar_to_string(const JsonValue& v, const char* where) {
  if (v.is_string()) return v.str;
  if (v.is_number()) {
    // Spec integers must round-trip exactly; print without exponent. The
    // range check keeps the float->uint64 cast defined (negatives and
    // huge values — e.g. a tail=-0.5 default — take the %g path).
    char buf[64];
    const bool integral =
        v.num >= 0 && v.num < 1.8446744073709552e19 &&
        v.num == static_cast<double>(static_cast<std::uint64_t>(v.num));
    if (integral)
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(v.num));
    else
      std::snprintf(buf, sizeof buf, "%.17g", v.num);
    return buf;
  }
  usage_error(std::string(where) + ": values must be strings or numbers");
}

void apply_json_object(ScenarioSpec& spec, std::string& label,
                       const JsonValue& obj, const char* where) {
  for (const auto& [key, value] : obj.fields)
    apply_kv(spec, label, key, json_scalar_to_string(value, where));
}

int run_matrix(const std::string& path, std::string out_name) {
  std::ifstream in(path);
  if (!in) usage_error("cannot open matrix file '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  if (!JsonParser(buffer.str()).parse(root) || !root.is_object())
    usage_error("cannot parse matrix file '" + path + "'");

  if (out_name.empty()) {
    const JsonValue* name = root.get("name");
    out_name = (name != nullptr && name->is_string()) ? name->str
                                                      : "scenarios";
  }

  ScenarioSpec defaults;
  std::string default_label_override;
  if (const JsonValue* d = root.get("defaults"))
    apply_json_object(defaults, default_label_override, *d, "defaults");

  // Expand the cross product of the matrix lists into cells.
  struct Cell {
    ScenarioSpec spec;
    std::string label;
  };
  std::vector<Cell> cells;
  if (const JsonValue* matrix = root.get("matrix")) {
    if (!matrix->is_object())
      usage_error("'matrix' must be an object of key -> value list");
    cells.push_back({defaults, default_label_override});
    for (const auto& [key, values] : matrix->fields) {
      if (!values.is_array() || values.items.empty())
        usage_error("matrix key '" + key + "' must be a non-empty list");
      std::vector<Cell> expanded;
      expanded.reserve(cells.size() * values.items.size());
      for (const Cell& cell : cells) {
        for (const JsonValue& v : values.items) {
          Cell next = cell;
          apply_kv(next.spec, next.label, key,
                   json_scalar_to_string(v, "matrix"));
          expanded.push_back(std::move(next));
        }
      }
      cells = std::move(expanded);
    }
  }
  if (const JsonValue* extra = root.get("scenarios")) {
    if (!extra->is_array())
      usage_error("'scenarios' must be a list of spec objects");
    for (const JsonValue& obj : extra->items) {
      if (!obj.is_object())
        usage_error("'scenarios' entries must be objects");
      Cell cell{defaults, default_label_override};
      apply_json_object(cell.spec, cell.label, obj, "scenarios");
      cells.push_back(std::move(cell));
    }
  }
  if (cells.empty())
    usage_error("matrix file has neither 'matrix' nor 'scenarios'");

  // Resolve every cell before running any: an inexpressible cell fails
  // the whole matrix up front, and cells whose plans share an identity
  // (and a label) run once.
  std::vector<std::pair<ScenarioPlan, std::string>> plans;
  std::set<std::string> seen;
  std::uint32_t collapsed = 0;
  for (const Cell& cell : cells) {
    if (cell.spec.protocol.empty())
      usage_error("a matrix cell has no protocol (set it in 'defaults' or "
                  "the matrix)");
    ScenarioPlan plan = default_registry().plan(cell.spec);
    if (!seen.insert(plan.identity() + "|label=" + cell.label).second) {
      ++collapsed;
      continue;
    }
    plans.emplace_back(std::move(plan), cell.label);
  }

  BenchReport report(out_name);
  Table t({"protocol", "n", "init", "engine", "until", "trials",
           "metric mean +/- ci95", "metric", "failed", "wall s"});
  for (const auto& [plan, label] : plans) run_and_report(plan, label, t, report);
  const std::size_t ran = plans.size();
  t.print();
  std::cout << ran << " scenario(s) run";
  if (collapsed > 0) std::cout << ", " << collapsed << " duplicate cell(s) collapsed";
  std::cout << "\n";
  const std::string path_out = report.write();
  if (!path_out.empty())
    std::cout << "machine-readable results: " << path_out << "\n";
  return 0;
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  bool list = false;
  bool scenario_mode = false;
  std::string matrix_path, out_name;
  std::vector<std::string> kvs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      list = true;
    } else if (a == "--scenario") {
      scenario_mode = true;
    } else if (a.rfind("--matrix=", 0) == 0) {
      matrix_path = a.substr(9);
    } else if (a == "--matrix") {
      if (i + 1 >= argc) ppsim::usage_error("--matrix needs a file path");
      matrix_path = argv[++i];
    } else if (a.rfind("--out=", 0) == 0) {
      out_name = a.substr(6);
    } else if (scenario_mode && a.find('=') != std::string::npos &&
               a.rfind("--", 0) != 0) {
      kvs.push_back(a);
    } else {
      ppsim::usage_error("unknown argument '" + a + "'");
    }
  }
  const int modes = (list ? 1 : 0) + (scenario_mode ? 1 : 0) +
                    (matrix_path.empty() ? 0 : 1);
  if (modes > 1)
    ppsim::usage_error(
        "--list, --scenario and --matrix are mutually exclusive");
  try {
    if (list) return ppsim::list_registry();
    if (scenario_mode) return ppsim::run_single(kvs, out_name);
    if (!matrix_path.empty()) return ppsim::run_matrix(matrix_path, out_name);
  } catch (const std::exception& e) {
    std::cerr << "ppsle_run: " << e.what() << "\n";
    return 2;
  }
  ppsim::usage_error("one of --list, --scenario, --matrix is required");
}
