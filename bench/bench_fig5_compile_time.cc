// Figure 5: compile time of a scan over an 8-attribute relation as the
// number of storage-layout combinations grows — JIT-compiled ("unrolled")
// scan code vs. the pre-compiled interpreted vectorized scan.

#include <array>
#include <cstdio>
#include <cstdlib>

#include "exec/table_scanner.h"
#include "jit/codegen.h"
#include "jit/jit_compiler.h"
#include "util/rng.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  const uint32_t max_combos =
      argc > 1 ? uint32_t(atoi(argv[1])) : (quick ? 4u : 1024u);
  if (!JitCompiler::Available()) {
    std::printf("no system compiler available; Figure 5 requires one\n");
    return 0;
  }

  // The interpreted vectorized scan needs no per-layout compilation: its
  // "compile time" is the (constant) cost of instantiating a scanner.
  Schema schema({{"a0", TypeId::kInt64},
                 {"a1", TypeId::kInt64},
                 {"a2", TypeId::kInt64},
                 {"a3", TypeId::kInt64},
                 {"a4", TypeId::kInt64},
                 {"a5", TypeId::kInt64},
                 {"a6", TypeId::kInt64},
                 {"a7", TypeId::kInt64}});
  Table t("rel", schema, 1024);
  Rng rng(1);
  for (int i = 0; i < 1024; ++i) {
    std::array<Cell, 8> row;
    for (Cell& cell : row) cell = Cell::Int(rng.Uniform(0, 99));
    t.Insert(row);
  }
  t.FreezeAll();
  Timer vt;
  for (int rep = 0; rep < 100; ++rep) {
    TableScanner scan(t, {0, 1, 2, 3, 4, 5, 6, 7}, {},
                      ScanMode::kDataBlocks);
    Batch b;
    scan.Next(&b);  // includes per-block predicate translation
  }
  double vectorized_ms = vt.ElapsedMillis() / 100.0;

  std::printf(
      "=== Figure 5: compile time vs storage layout combinations "
      "(8 attributes) ===\n");
  std::printf("%-14s %16s %26s\n", "combinations", "JIT compile",
              "interpreted vectorized");
  for (uint32_t combos = 1; combos <= max_combos; combos *= 4) {
    auto layout_combos = EnumerateCombos(8, combos);
    std::string source = GenerateScanSource(layout_combos);
    std::string error;
    auto mod = JitCompiler::Compile(source, &error);
    if (mod == nullptr) {
      std::printf("compile failed at %u combos: %s\n", combos, error.c_str());
      return 1;
    }
    std::printf("%-14u %13.0f ms %23.2f ms\n", combos,
                mod->compile_seconds() * 1e3, vectorized_ms);
  }
  std::printf(
      "\n(The JIT column grows with the number of generated code paths; the\n"
      " interpreted vectorized scan is pre-compiled and stays constant —\n"
      " the effect shown in Figure 5.)\n");
  return 0;
}
