// Table 1: the SysNoise taxonomy — noise types, affected tasks, input
// dependence, effect level and option counts, rendered straight from the
// NoiseAxis registry so the table cannot drift from the code (registering
// a new axis adds a row here automatically). Shares the --shard/--merge/
// --emit-plan row lifecycle with the other table benches via
// run_standard_modes.
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/axis.h"
#include "core/report.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table1_taxonomy");
  bench::banner("Table 1 — SysNoise taxonomy", "Sec. 3.4, Table 1");
  bench::BenchTrace trace(cli);

  std::vector<std::string> labels;
  for (const core::NoiseAxis& axis : core::AxisRegistry::global().axes())
    labels.push_back(axis.name);

  core::TextTable table({"Stage", "Type", "Task", "Input Dep.", "Effect Level",
                         "#Categories"});
  std::string csv = "stage,type,task,input_dependent,effect_level,categories\n";
  return bench::run_standard_modes(
      cli, labels,
      [&](const std::string& name) {
        const core::NoiseAxis& axis = *core::AxisRegistry::global().find(name);
        table.add_row({axis.stage, axis.name, axis.tasks_label,
                       axis.input_dependent ? "yes" : "no", axis.effect_level,
                       std::to_string(axis.taxonomy_categories())});
        csv += axis.stage + "," + axis.name + "," + axis.tasks_label + "," +
               (axis.input_dependent ? "yes" : "no") + "," + axis.effect_level +
               "," + std::to_string(axis.taxonomy_categories()) + "\n";
      },
      [&] { return std::make_pair(table.str(), csv); });
}
