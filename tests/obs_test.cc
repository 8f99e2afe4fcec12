#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/plan_stats.h"
#include "obs/prometheus.h"
#include "obs/trace_log.h"

namespace elephant {
namespace obs {
namespace {

TEST(PrometheusTest, RendersTableCellsAsLabeledGauges) {
  const Schema schema({Column("object", TypeId::kVarchar),
                       Column("hits", TypeId::kInt64),
                       Column("note", TypeId::kVarchar),
                       Column("seconds", TypeId::kDouble)});
  const std::vector<Row> rows = {
      {Value::Varchar("t"), Value::Int64(7), Value::Varchar("a\"b\\c\nd"),
       Value::Double(0.25)},
      {Value::Varchar("u"), Value::Int64(-1), Value::Varchar(""),
       Value::Double(1e-05)},
  };
  std::string out;
  AppendPrometheusTable("elephant_stat_x", schema, rows, &out);
  EXPECT_EQ(out,
            "# TYPE elephant_stat_x_hits gauge\n"
            "elephant_stat_x_hits{object=\"t\",note=\"a\\\"b\\\\c\\nd\"} 7\n"
            "elephant_stat_x_hits{object=\"u\",note=\"\"} -1\n"
            "# TYPE elephant_stat_x_seconds gauge\n"
            "elephant_stat_x_seconds{object=\"t\",note=\"a\\\"b\\\\c\\nd\"} "
            "0.25\n"
            "elephant_stat_x_seconds{object=\"u\",note=\"\"} 1e-05\n");

  // A table without VARCHAR columns has unlabeled samples; one without
  // rows contributes nothing.
  const Schema one({Column("n", TypeId::kInt64)});
  out.clear();
  AppendPrometheusTable("elephant_stat_y", one, {{Value::Int64(3)}}, &out);
  EXPECT_EQ(out, "# TYPE elephant_stat_y_n gauge\nelephant_stat_y_n 3\n");
  out.clear();
  AppendPrometheusTable("elephant_stat_y", one, {}, &out);
  EXPECT_EQ(out, "");
}

TEST(HistogramTest, BucketAssignment) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // <= 1.0
  h.Observe(1.0);   // boundary is inclusive
  h.Observe(1.5);   // <= 2.0
  h.Observe(3.0);   // <= 4.0
  h.Observe(100.0); // overflow
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 106.0);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);

  // A snapshot observed into directly buckets the same way.
  HistogramSnapshot direct(h.bounds());
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) direct.Observe(v);
  EXPECT_EQ(direct.buckets, snap.buckets);
  EXPECT_EQ(direct.count, snap.count);
  EXPECT_DOUBLE_EQ(direct.sum, snap.sum);
}

TEST(HistogramTest, BoundsAreSortedOnConstruction) {
  Histogram h({4.0, 1.0, 2.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0});
  for (int i = 0; i < 10; i++) h.Observe(5.0);
  // All mass in [0, 10]; uniform assumption puts the median at 5.
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(1.0), 10.0);
  // Overflow bucket reports the last bound.
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(1.0), 10.0);
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Snapshot().Quantile(0.5), 0.0);
}

TEST(QueryTraceTest, RecordsNestedPhaseSpansInStartOrder) {
  QueryTrace trace;
  {
    QueryTraceScope collect(&trace);
    auto outer = TraceSpan::Phase("execute");
    {
      auto inner = TraceSpan::Phase("scan");
    }
    auto sibling = TraceSpan::Phase("sort");
  }
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].name, "execute");
  EXPECT_EQ(trace.spans[0].depth, 0);
  EXPECT_EQ(trace.spans[1].name, "scan");
  EXPECT_EQ(trace.spans[1].depth, 1);
  EXPECT_EQ(trace.spans[2].name, "sort");
  EXPECT_EQ(trace.spans[2].depth, 1);
  for (const SpanRecord& s : trace.spans) EXPECT_GE(s.seconds, 0.0);
  EXPECT_GE(trace.SecondsFor("execute"), trace.SecondsFor("scan"));
  EXPECT_DOUBLE_EQ(trace.SecondsFor("missing"), 0.0);
}

TEST(QueryTraceTest, OnlyPhaseSpansUnderAScopeRecord) {
  // No collector installed: the phase span records nowhere.
  { auto outside = TraceSpan::Phase("parse"); }
  QueryTrace trace;
  {
    QueryTraceScope collect(&trace);
    auto phase = TraceSpan::Phase("execute");
    TraceSpan task("task", "sched");  // not a phase
    {
      // A nested statement collects into its own trace, from depth 0.
      QueryTrace nested;
      QueryTraceScope nested_collect(&nested);
      { auto inner = TraceSpan::Phase("parse"); }
      ASSERT_EQ(nested.spans.size(), 1u);
      EXPECT_EQ(nested.spans[0].depth, 0);
    }
    auto sibling = TraceSpan::Phase("fetch");
  }
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "execute");
  EXPECT_EQ(trace.spans[0].depth, 0);
  EXPECT_EQ(trace.spans[1].name, "fetch");
  EXPECT_EQ(trace.spans[1].depth, 1);
  for (const SpanRecord& s : trace.spans) EXPECT_GE(s.seconds, 0.0);
}

TEST(JsonWriterTest, EscapesAndStructures) {
  JsonWriter w;
  w.BeginObject()
      .Key("s")
      .String("a\"b\\c\nd")
      .Key("n")
      .Int(-3)
      .Key("u")
      .UInt(7)
      .Key("b")
      .Bool(true)
      .Key("arr")
      .BeginArray()
      .Double(1.5)
      .Null()
      .EndArray()
      .EndObject();
  EXPECT_EQ(std::move(w).str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":-3,\"u\":7,\"b\":true,"
            "\"arr\":[1.5,null]}");
}

TEST(PlanStatsTest, FlattenAttributesSelfIo) {
  // parent(inclusive: 10 seq, 4 rand) over child(inclusive: 7 seq, 1 rand):
  // parent self = 3 seq + 3 rand, child self = its own inclusive numbers.
  PlanNode root;
  root.label = "HashAggregate";
  root.stats = std::make_shared<OperatorStats>();
  root.stats->rows = 5;
  root.stats->next_calls = 6;
  root.stats->io.sequential_reads = 10;
  root.stats->io.random_reads = 4;
  auto child = std::make_unique<PlanNode>();
  child->label = "ClusteredScan t\nfull scan";
  child->est_rows = 100;
  child->stats = std::make_shared<OperatorStats>();
  child->stats->rows = 100;
  child->stats->io.sequential_reads = 7;
  child->stats->io.random_reads = 1;
  root.children.push_back(std::move(child));

  auto flat = FlattenPlan(root);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].op, "HashAggregate");
  EXPECT_EQ(flat[0].depth, 0);
  EXPECT_EQ(flat[0].io.sequential_reads, 3u);
  EXPECT_EQ(flat[0].io.random_reads, 3u);
  EXPECT_EQ(flat[1].op, "ClusteredScan t");  // first label line only
  EXPECT_EQ(flat[1].depth, 1);
  EXPECT_EQ(flat[1].io.sequential_reads, 7u);
  EXPECT_EQ(flat[1].io.random_reads, 1u);
  // Self pages sum back to the root's inclusive (query-level) totals.
  uint64_t seq = 0, rand = 0;
  for (const auto& op : flat) {
    seq += op.io.sequential_reads;
    rand += op.io.random_reads;
  }
  EXPECT_EQ(seq, root.stats->io.sequential_reads);
  EXPECT_EQ(rand, root.stats->io.random_reads);
}

TEST(PlanStatsTest, RenderShowsEstimatesAndActuals) {
  PlanNode root;
  root.label = "Project";
  root.est_rows = 42;
  root.est_cost = 99;
  std::string plain = RenderPlanTree(root, false);
  EXPECT_NE(plain.find("-> Project"), std::string::npos);
  EXPECT_NE(plain.find("est_rows=42"), std::string::npos);
  EXPECT_EQ(plain.find("actual"), std::string::npos);

  root.stats = std::make_shared<OperatorStats>();
  root.stats->rows = 40;
  std::string analyzed = RenderPlanTree(root, true);
  EXPECT_NE(analyzed.find("actual rows=40"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace elephant
