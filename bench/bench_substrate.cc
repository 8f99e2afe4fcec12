// Substrate microbenchmarks (google-benchmark): B+-tree operations, tuple
// (de)serialization, key encoding, RLE compression analysis, and executor
// throughput. These quantify the engine primitives every strategy in the
// paper reproduction is built from.

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "cstore/compression.h"
#include "exec/batch_executors.h"
#include "exec/scan_executor.h"
#include "index/btree.h"

namespace elephant {
namespace {

std::string IntKey(int64_t v) {
  std::string k;
  keycodec::Encode(Value::Int64(v), &k);
  return k;
}

void BM_BTreeInsertRandom(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 16384);
    auto tree = BPlusTree::Create(&pool);
    Rng rng(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); i++) {
      benchmark::DoNotOptimize(
          tree.value().Insert(IntKey(rng.Uniform(0, 1 << 24)), "payload-40-bytes-xxxxxxxxxxxxxxxxxxxx"));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertRandom)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_BTreeBulkLoad(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 32768);
    state.ResumeTiming();
    int64_t i = 0;
    const int64_t n = state.range(0);
    auto stream = [&](std::string* k, std::string* v) {
      if (i >= n) return false;
      *k = IntKey(i++);
      *v = "payload-40-bytes-xxxxxxxxxxxxxxxxxxxx";
      return true;
    };
    benchmark::DoNotOptimize(BPlusTree::BulkLoad(&pool, stream));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_BTreePointLookup(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 32768);
  const int64_t n = 500000;
  int64_t i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= n) return false;
    *k = IntKey(i++);
    *v = "val";
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&pool, stream);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.value().Get(IntKey(rng.Uniform(0, n - 1))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointLookup);

void BM_BTreeRangeScan(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 32768);
  const int64_t n = 500000;
  int64_t i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= n) return false;
    *k = IntKey(i++);
    *v = "0123456789012345678901234567890123456789";
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&pool, stream);
  for (auto _ : state) {
    auto it = tree.value().SeekToFirst();
    int64_t count = 0;
    while (it.value().Valid()) {
      count++;
      if (!it.value().Next().ok()) break;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeRangeScan)->Unit(benchmark::kMillisecond);

Schema WideSchema() {
  return Schema({Column("a", TypeId::kInt32), Column("b", TypeId::kInt64),
                 Column("c", TypeId::kDecimal), Column("d", TypeId::kDate),
                 Column("e", TypeId::kChar, 1), Column("f", TypeId::kVarchar)});
}

void BM_TupleSerialize(benchmark::State& state) {
  Schema s = WideSchema();
  Row row{Value::Int32(42),      Value::Int64(4242),
          Value::Decimal(12345), Value::Date(9000),
          Value::Char("R"),      Value::Varchar("hello world text")};
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(tuple::Serialize(s, row, &buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleSerialize);

void BM_TupleDeserialize(benchmark::State& state) {
  Schema s = WideSchema();
  Row row{Value::Int32(42),      Value::Int64(4242),
          Value::Decimal(12345), Value::Date(9000),
          Value::Char("R"),      Value::Varchar("hello world text")};
  std::string buf;
  Status ser = tuple::Serialize(s, row, &buf);
  if (!ser.ok()) {
    state.SkipWithError(ser.ToString().c_str());
    return;
  }
  Row out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuple::Deserialize(s, buf.data(), buf.size(), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleDeserialize);

void BM_KeyEncode(benchmark::State& state) {
  Row row{Value::Date(9000), Value::Int32(77)};
  std::vector<size_t> cols{0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(keycodec::EncodeKey(row, cols));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyEncode);

void BM_RleRuns(benchmark::State& state) {
  Rng rng(3);
  std::vector<Row> rows;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back({Value::Int32(static_cast<int32_t>(i / 100)),
                    Value::Int32(static_cast<int32_t>(rng.Uniform(0, 9)))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compression::RleRuns(rows, 1, {0}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RleRuns)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ClusteredScanExecutor(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 32768);
  Catalog catalog(&pool);
  Schema s({Column("k", TypeId::kInt32), Column("v", TypeId::kInt32)});
  auto table = catalog.CreateTable("t", s, {0}, true);
  std::vector<Row> rows;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back({Value::Int32(static_cast<int32_t>(i)),
                    Value::Int32(static_cast<int32_t>(i % 97))});
  }
  Status load = table.value()->BulkLoadRows(std::move(rows));
  if (!load.ok()) {
    state.SkipWithError(load.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    ExecContext ctx(&pool);
    IndexScanExecutor scan(&ctx, table.value());
    Status init = scan.Init();
    if (!init.ok()) {
      state.SkipWithError(init.ToString().c_str());
      return;
    }
    Batch batch;
    int64_t count = 0;
    while (true) {
      auto has = scan.NextBatch(&batch);
      if (!has.ok() || !has.value()) break;
      count += batch.ActiveCount();
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ClusteredScanExecutor)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_HashAggregate(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 32768);
  Catalog catalog(&pool);
  Schema s({Column("k", TypeId::kInt32), Column("v", TypeId::kInt32)});
  auto table = catalog.CreateTable("t", s, {0}, true);
  std::vector<Row> rows;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back({Value::Int32(static_cast<int32_t>(i)),
                    Value::Int32(static_cast<int32_t>(i % 500))});
  }
  Status load = table.value()->BulkLoadRows(std::move(rows));
  if (!load.ok()) {
    state.SkipWithError(load.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    ExecContext ctx(&pool);
    auto scan = std::make_unique<IndexScanExecutor>(&ctx, table.value());
    std::vector<ExprPtr> groups;
    groups.push_back(Col(1, TypeId::kInt32));
    std::vector<AggSpec> aggs;
    aggs.emplace_back(AggFunc::kCountStar, nullptr, "cnt");
    BatchHashAggregateExecutor agg(std::move(scan), std::move(groups),
                                   std::move(aggs));
    Status init = agg.Init();
    if (!init.ok()) {
      state.SkipWithError(init.ToString().c_str());
      return;
    }
    Batch batch;
    int64_t count = 0;
    while (true) {
      auto has = agg.NextBatch(&batch);
      if (!has.ok() || !has.value()) break;
      count += batch.ActiveCount();
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashAggregate)->Arg(200000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace elephant

// Same CLI contract as the other bench binaries: `--json <path>` produces a
// structured JSON report (here via google-benchmark's own JSON reporter).
int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      i++;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.push_back("--benchmark_out=" + arg.substr(7));
      args.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> argv2;
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
