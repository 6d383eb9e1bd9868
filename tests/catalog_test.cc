#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "catalog/catalog.h"
#include "catalog/generalization.h"
#include "catalog/lcp.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// True if `general` (at `general_level`) is an ancestor-or-self of
/// `specific` (at `specific_level <= general_level`).
bool Covers(const DomainHierarchy& tree, const Value& general,
            int general_level, const Value& specific, int specific_level) {
  if (specific_level > general_level) return false;
  auto g = tree.LeafRange(general, general_level);
  auto s = tree.LeafRange(specific, specific_level);
  return g.ok() && s.ok() && g->Contains(*s);
}

/// Shortest phase duration: the paper's "shortest degradation step".
Micros ShortestStep(const AttributeLcp& lcp) {
  Micros shortest = kForever;
  for (int p = 0; p < lcp.num_phases(); ++p) {
    shortest = std::min(shortest, lcp.phase(p).duration);
  }
  return shortest;
}

/// Index of the tuple state holding at `offset` since insertion.
int StateAt(const TupleLcp& tuple, Micros offset) {
  int idx = 0;
  for (int i = 0; i < tuple.num_states(); ++i) {
    if (tuple.states()[i].start_offset <= offset) idx = i;
  }
  return idx;
}

// --- Value -------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int64(42).int64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("x").str(), "x");
  EXPECT_TRUE(Value::Bool(true).boolean());
  EXPECT_EQ(Value::Timestamp(kMicrosPerHour).timestamp(), kMicrosPerHour);
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_EQ(Value::Double(1.5).Compare(Value::Double(1.5)), 0);
  // NULL sorts first.
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_GT(Value::Int64(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, EqualityAcrossInt64AndTimestamp) {
  EXPECT_EQ(Value::Int64(5), Value::Timestamp(5));
  EXPECT_NE(Value::Int64(5), Value::String("5"));
}

TEST(ValueTest, RecordEncodingRoundTrip) {
  const std::vector<Value> values = {
      Value::Null(),           Value::Int64(-7),
      Value::Int64(1LL << 40), Value::Double(-3.25),
      Value::String(""),       Value::String("hello\0world"),
      Value::Bool(true),       Value::Timestamp(kMicrosPerDay)};
  std::string buf;
  for (const Value& v : values) v.EncodeTo(&buf);
  Slice in = buf;
  for (const Value& v : values) {
    Value got;
    ASSERT_TRUE(Value::DecodeFrom(&in, &got));
    EXPECT_EQ(got, v) << v.ToString();
    EXPECT_EQ(got.type(), v.type());
  }
  EXPECT_TRUE(in.empty());
}

// --- GeneralizationTree (Fig. 1) ----------------------------------------------

class LocationTreeTest : public ::testing::Test {
 protected:
  std::shared_ptr<const DomainHierarchy> tree_ = LocationDomain();
};

TEST_F(LocationTreeTest, HeightMatchesFig1) {
  // Fig. 1: address -> city -> region -> country = 4 levels.
  EXPECT_EQ(tree_->height(), 4);
  EXPECT_EQ(tree_->value_type(), ValueType::kString);
}

TEST_F(LocationTreeTest, PathToRootIsTheDegradationPath) {
  // "a path from a particular node to the root of the GT expresses all
  // degraded forms the value of that node can take" (paper §II).
  const Value addr = Value::String("11 Rue Lepic");
  EXPECT_EQ(tree_->Generalize(addr, 0, 0)->str(), "11 Rue Lepic");
  EXPECT_EQ(tree_->Generalize(addr, 0, 1)->str(), "Paris");
  EXPECT_EQ(tree_->Generalize(addr, 0, 2)->str(), "Ile-de-France");
  EXPECT_EQ(tree_->Generalize(addr, 0, 3)->str(), "France");
}

TEST_F(LocationTreeTest, GeneralizeFromIntermediateLevel) {
  EXPECT_EQ(tree_->Generalize(Value::String("Marseille"), 1, 2)->str(),
            "Provence");
  EXPECT_EQ(tree_->Generalize(Value::String("Provence"), 2, 3)->str(),
            "France");
}

TEST_F(LocationTreeTest, GeneralizeRejectsBadLevels) {
  EXPECT_FALSE(tree_->Generalize(Value::String("Paris"), 1, 0).ok());  // down
  EXPECT_FALSE(tree_->Generalize(Value::String("Paris"), 1, 9).ok());  // high
  // Value not at claimed level.
  EXPECT_FALSE(tree_->Generalize(Value::String("Paris"), 0, 2).ok());
  EXPECT_TRUE(tree_->Generalize(Value::String("Nowhere"), 0, 1)
                  .status()
                  .IsNotFound());
}

TEST_F(LocationTreeTest, LeafIntervalsAreContiguousAndNested) {
  const auto paris = tree_->LeafRange(Value::String("Paris"), 1);
  const auto idf = tree_->LeafRange(Value::String("Ile-de-France"), 2);
  const auto france = tree_->LeafRange(Value::String("France"), 3);
  ASSERT_TRUE(paris.ok());
  ASSERT_TRUE(idf.ok());
  ASSERT_TRUE(france.ok());
  EXPECT_TRUE(idf->Contains(*paris));
  EXPECT_TRUE(france->Contains(*idf));
  // Fig. 1 instance has 5 addresses total.
  EXPECT_EQ(france->lo, 0);
  EXPECT_EQ(france->hi, 4);
  const auto lepic = tree_->LeafRange(Value::String("11 Rue Lepic"), 0);
  ASSERT_TRUE(lepic.ok());
  EXPECT_EQ(lepic->lo, lepic->hi);
  EXPECT_TRUE(paris->Contains(*lepic));
}

TEST_F(LocationTreeTest, CoversRelation) {
  EXPECT_TRUE(Covers(*tree_, Value::String("France"), 3,
                     Value::String("11 Rue Lepic"), 0));
  EXPECT_TRUE(Covers(*tree_, Value::String("Provence"), 2,
                     Value::String("Aix"), 1));
  EXPECT_FALSE(Covers(*tree_, Value::String("Provence"), 2,
                      Value::String("Paris"), 1));
  // A specific value never covers a more general one.
  EXPECT_FALSE(Covers(*tree_, Value::String("Paris"), 1,
                      Value::String("France"), 3));
}

TEST_F(LocationTreeTest, CardinalityPerLevel) {
  EXPECT_EQ(*tree_->CardinalityAtLevel(0), 5);  // addresses
  EXPECT_EQ(*tree_->CardinalityAtLevel(1), 4);  // Paris, Versailles, Marseille, Aix
  EXPECT_EQ(*tree_->CardinalityAtLevel(2), 2);  // Ile-de-France, Provence
  EXPECT_EQ(*tree_->CardinalityAtLevel(3), 1);  // France
}

TEST(GeneralizationTreeTest, RejectsUnbalancedTree) {
  GeneralizationTree::Builder builder("bad");
  builder.AddRoot("root");
  builder.AddChild("root", "deep");
  builder.AddChild("deep", "leaf1");
  builder.AddChild("root", "leaf2");  // depth 1 vs depth 2
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GeneralizationTreeTest, RejectsDuplicateLabelsAndUnknownParents) {
  {
    GeneralizationTree::Builder builder("dup");
    builder.AddRoot("r");
    builder.AddChild("r", "a");
    builder.AddChild("r", "a");
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    GeneralizationTree::Builder builder("orphan");
    builder.AddRoot("r");
    builder.AddChild("nope", "a");
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    GeneralizationTree::Builder builder("empty");
    EXPECT_FALSE(builder.Build().ok());
  }
}

TEST(GeneralizationTreeTest, SyntheticDomainScales) {
  auto tree = SyntheticLocationDomain(2, 3, 4, 5);
  EXPECT_EQ(tree->height(), 5);
  EXPECT_EQ(*tree->CardinalityAtLevel(0), 2 * 3 * 4 * 5);
  EXPECT_EQ(*tree->CardinalityAtLevel(4), 1);
  // Every leaf generalizes to the root.
  EXPECT_EQ(tree->Generalize(Value::String("Addr1.2.3.4"), 0, 4)->str(),
            "World");
}

TEST(GeneralizationTreeTest, LeafOrdinalRoundTrip) {
  auto domain = SyntheticLocationDomain(2, 2, 2, 2);
  const auto* tree = static_cast<const GeneralizationTree*>(domain.get());
  for (int64_t ord = 0; ord < tree->leaf_count(); ++ord) {
    auto label = tree->LeafLabel(ord);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*tree->LeafOrdinal(Value::String(*label)), ord);
  }
  EXPECT_FALSE(tree->LeafLabel(tree->leaf_count()).ok());
}

/// The integer-only ancestor queries must agree with the Value path: for a
/// level-`level` value v with ordinal LeafRange(v, level).lo, the level-`to`
/// ancestor's interval and value are LeafRange(Generalize(v, level, to)) and
/// Generalize(v, level, to), for every `to` at or above `level`.
void ExpectAncestorQueriesMatchComposition(const DomainHierarchy& domain,
                                           const Value& value, int level) {
  const Result<LeafInterval> own = domain.LeafRange(value, level);
  ASSERT_TRUE(own.ok()) << value.ToString() << " @" << level;
  for (int to = level; to < domain.height(); ++to) {
    const Result<Value> generalized = domain.Generalize(value, level, to);
    ASSERT_TRUE(generalized.ok()) << value.ToString() << " " << level << "->"
                                  << to;
    const Result<LeafInterval> range = domain.LeafRange(*generalized, to);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(domain.AncestorRange(own->lo, to), *range)
        << value.ToString() << " " << level << "->" << to;
    EXPECT_EQ(domain.AncestorValue(own->lo, to), *generalized)
        << value.ToString() << " " << level << "->" << to;
  }
}

TEST(GeneralizationTreeTest, AncestorQueriesMatchComposition) {
  auto domain = SyntheticLocationDomain(4, 8, 16, 8);
  const auto* tree = static_cast<const GeneralizationTree*>(domain.get());
  size_t checked = 0;
  for (int level = 0; level < tree->height(); ++level) {
    for (const std::string& label : tree->LabelsAtLevel(level)) {
      ExpectAncestorQueriesMatchComposition(*tree, Value::String(label),
                                            level);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4096u + 512 + 32 + 4 + 1);
}

TEST(IntervalHierarchyTest, AncestorQueriesMatchComposition) {
  // The last bucket of each coarse level is cut short by the domain max.
  auto domain = IntervalHierarchy::Make("x", -7, 100, {4, 20, 100});
  ASSERT_TRUE(domain.ok());
  for (int level = 0; level < (*domain)->height(); ++level) {
    const int64_t width = (*domain)->WidthAt(level);
    for (int64_t v = -7; v <= 100; v += width) {
      ExpectAncestorQueriesMatchComposition(**domain, Value::Int64(v), level);
    }
  }
}

// A state store keeps a value only as its leaf ordinal LeafRange(v, l).lo
// and rebuilds it with AncestorValue: the identity must hold for every node
// at every level of every built-in domain.
TEST(OrdinalRoundTripTest, EveryNodeRebuildsFromItsLeafOrdinal) {
  auto round_trips = [](const DomainHierarchy& domain, const Value& v,
                        int level) {
    const Result<LeafInterval> range = domain.LeafRange(v, level);
    return range.ok() && domain.AncestorValue(range->lo, level) == v;
  };
  const auto trees = {LocationDomain(), SyntheticLocationDomain(4, 8, 16, 8)};
  for (const auto& domain : trees) {
    const auto* tree = static_cast<const GeneralizationTree*>(domain.get());
    for (int level = 0; level < tree->height(); ++level) {
      size_t nodes = 0;
      for (const std::string& label : tree->LabelsAtLevel(level)) {
        EXPECT_TRUE(round_trips(*tree, Value::String(label), level))
            << label << " @" << level;
        ++nodes;
      }
      EXPECT_EQ(static_cast<int64_t>(nodes), *tree->CardinalityAtLevel(level));
    }
  }
  const auto salary = SalaryDomain();
  const auto* interval = static_cast<const IntervalHierarchy*>(salary.get());
  for (int level = 0; level < interval->height(); ++level) {
    int64_t nodes = 0;
    for (int64_t v = interval->min(); v <= interval->max();
         v += interval->WidthAt(level)) {
      EXPECT_TRUE(round_trips(*interval, Value::Int64(v), level))
          << v << " @" << level;
      ++nodes;
    }
    EXPECT_EQ(nodes, *interval->CardinalityAtLevel(level));
  }
}

TEST(GeneralizationTreeTest, AsciiArtShowsFig1Shape) {
  auto domain = LocationDomain();
  const auto* tree = static_cast<const GeneralizationTree*>(domain.get());
  const std::string art = tree->ToAsciiArt();
  EXPECT_NE(art.find("France"), std::string::npos);
  EXPECT_NE(art.find("Paris"), std::string::npos);
  EXPECT_NE(art.find("11 Rue Lepic"), std::string::npos);
}

// --- IntervalHierarchy ---------------------------------------------------------

class SalaryDomainTest : public ::testing::Test {
 protected:
  std::shared_ptr<const DomainHierarchy> salary_ = SalaryDomain();
};

TEST_F(SalaryDomainTest, HeightAndTypes) {
  EXPECT_EQ(salary_->height(), 4);  // exact, 1000, 10000, 100000
  EXPECT_EQ(salary_->value_type(), ValueType::kInt64);
}

TEST_F(SalaryDomainTest, GeneralizeToPaperRange1000) {
  // The paper's example: SALARY = '2000-3000' at accuracy RANGE1000.
  EXPECT_EQ(salary_->Generalize(Value::Int64(2345), 0, 1)->int64(), 2000);
  EXPECT_EQ(salary_->Generalize(Value::Int64(2999), 0, 1)->int64(), 2000);
  EXPECT_EQ(salary_->Generalize(Value::Int64(3000), 0, 1)->int64(), 3000);
  EXPECT_EQ(salary_->Generalize(Value::Int64(2345), 0, 2)->int64(), 0);
  EXPECT_EQ(salary_->Generalize(Value::Int64(23456), 0, 2)->int64(), 20000);
}

TEST_F(SalaryDomainTest, BucketsNest) {
  // Generalizing in two hops equals one hop (functoriality of f_k).
  const Value v = Value::Int64(67890);
  const Value mid = *salary_->Generalize(v, 0, 1);
  EXPECT_EQ(*salary_->Generalize(mid, 1, 2), *salary_->Generalize(v, 0, 2));
  EXPECT_EQ(*salary_->Generalize(mid, 1, 3), *salary_->Generalize(v, 0, 3));
}

TEST_F(SalaryDomainTest, ValidationCatchesNonBucketValues) {
  EXPECT_TRUE(salary_->ValidateAtLevel(Value::Int64(2345), 0).ok());
  EXPECT_FALSE(salary_->ValidateAtLevel(Value::Int64(2345), 1).ok());
  EXPECT_TRUE(salary_->ValidateAtLevel(Value::Int64(2000), 1).ok());
  EXPECT_FALSE(salary_->ValidateAtLevel(Value::Int64(-5), 0).ok());
  EXPECT_FALSE(salary_->ValidateAtLevel(Value::Int64(200001), 0).ok());
  EXPECT_FALSE(salary_->ValidateAtLevel(Value::String("x"), 0).ok());
}

TEST_F(SalaryDomainTest, LeafRangesAndCardinality) {
  auto range = salary_->LeafRange(Value::Int64(2000), 1);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 2000);
  EXPECT_EQ(range->hi, 2999);
  EXPECT_EQ(*salary_->CardinalityAtLevel(0), 100001);
  EXPECT_EQ(*salary_->CardinalityAtLevel(1), 101);
  EXPECT_EQ(*salary_->CardinalityAtLevel(3), 2);  // [0,100000] has 2 buckets of 100000
}

TEST_F(SalaryDomainTest, DisplayValueRendersBuckets) {
  EXPECT_EQ(salary_->DisplayValue(Value::Int64(2000), 1), "[2000..2999]");
  EXPECT_EQ(salary_->DisplayValue(Value::Int64(2345), 0), "2345");
}

TEST_F(SalaryDomainTest, LevelForWidthResolvesPaperSyntax) {
  const auto* ih = static_cast<const IntervalHierarchy*>(salary_.get());
  EXPECT_EQ(*ih->LevelForWidth(1000), 1);
  EXPECT_EQ(*ih->LevelForWidth(1), 0);
  EXPECT_FALSE(ih->LevelForWidth(500).ok());
}

TEST(IntervalHierarchyTest, RejectsNonNestingWidths) {
  EXPECT_FALSE(IntervalHierarchy::Make("x", 0, 100, {10, 15}).ok());
  EXPECT_FALSE(IntervalHierarchy::Make("x", 0, 100, {10, 10}).ok());
  EXPECT_FALSE(IntervalHierarchy::Make("x", 0, 100, {}).ok());
  EXPECT_FALSE(IntervalHierarchy::Make("x", 100, 0, {10}).ok());
  EXPECT_TRUE(IntervalHierarchy::Make("x", 0, 100, {10, 100}).ok());
}

// --- Hierarchy persistence ----------------------------------------------------

TEST(HierarchyCodecTest, TreeRoundTrip) {
  auto original = LocationDomain();
  std::string buf;
  original->EncodeTo(&buf);
  Slice in = buf;
  auto decoded = DomainHierarchy::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ((*decoded)->height(), 4);
  EXPECT_EQ((*decoded)->Generalize(Value::String("3 Av Foch"), 0, 1)->str(),
            "Paris");
  EXPECT_EQ(*(*decoded)->CardinalityAtLevel(0), 5);
}

TEST(HierarchyCodecTest, IntervalRoundTrip) {
  auto original = SalaryDomain();
  std::string buf;
  original->EncodeTo(&buf);
  Slice in = buf;
  auto decoded = DomainHierarchy::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->height(), 4);
  EXPECT_EQ((*decoded)->Generalize(Value::Int64(1234), 0, 1)->int64(), 1000);
}

TEST(HierarchyCodecTest, CorruptInputRejected) {
  std::string buf = "\x07garbage";
  Slice in = buf;
  EXPECT_FALSE(DomainHierarchy::DecodeFrom(&in).ok());
}

// --- AttributeLcp (Fig. 2) -----------------------------------------------------

TEST(LcpTest, Fig2Timeline) {
  const AttributeLcp lcp = Fig2LocationLcp();
  ASSERT_EQ(lcp.num_phases(), 4);
  // d0: accurate address for 1 hour.
  EXPECT_EQ(lcp.PhaseAt(0), 0);
  EXPECT_EQ(lcp.PhaseAt(kMicrosPerHour - 1), 0);
  // d1: city until 1h + 1day.
  EXPECT_EQ(lcp.PhaseAt(kMicrosPerHour), 1);
  EXPECT_EQ(lcp.PhaseAt(kMicrosPerHour + kMicrosPerDay - 1), 1);
  // d2: region until + 1 month.
  EXPECT_EQ(lcp.PhaseAt(kMicrosPerHour + kMicrosPerDay), 2);
  // d3: country until + another month.
  EXPECT_EQ(lcp.PhaseAt(kMicrosPerHour + kMicrosPerDay + kMicrosPerMonth), 3);
  // ⊥ afterwards.
  EXPECT_EQ(
      lcp.PhaseAt(kMicrosPerHour + kMicrosPerDay + 2 * kMicrosPerMonth), 4);
  EXPECT_TRUE(lcp.DegradesFully());
  EXPECT_EQ(lcp.RemovalOffset(),
            kMicrosPerHour + kMicrosPerDay + 2 * kMicrosPerMonth);
  EXPECT_EQ(ShortestStep(lcp), kMicrosPerHour);
}

TEST(LcpTest, ValidationRules) {
  EXPECT_FALSE(AttributeLcp::Make({}).ok());
  // Levels must strictly increase.
  EXPECT_FALSE(AttributeLcp::Make({{1, 10}, {1, 10}}).ok());
  EXPECT_FALSE(AttributeLcp::Make({{2, 10}, {1, 10}}).ok());
  // Durations positive.
  EXPECT_FALSE(AttributeLcp::Make({{0, 0}}).ok());
  // kForever only in last phase.
  EXPECT_FALSE(AttributeLcp::Make({{0, kForever}, {1, 10}}).ok());
  EXPECT_TRUE(AttributeLcp::Make({{0, 10}, {2, kForever}}).ok());
}

TEST(LcpTest, RetentionBaselineIsDegenerateLcp) {
  // The paper's "limited retention" is expressible as a single-phase LCP:
  // accurate for the TTL, then gone. This is how the baseline shares the
  // whole engine.
  const AttributeLcp retention = AttributeLcp::Retention(7 * kMicrosPerDay);
  EXPECT_EQ(retention.num_phases(), 1);
  EXPECT_EQ(retention.PhaseAt(6 * kMicrosPerDay), 0);
  EXPECT_EQ(retention.PhaseAt(7 * kMicrosPerDay), 1);  // removed
  EXPECT_TRUE(retention.DegradesFully());

  const AttributeLcp keep = AttributeLcp::KeepForever();
  EXPECT_FALSE(keep.DegradesFully());
  EXPECT_EQ(keep.PhaseAt(kForever - 1), 0);
}

TEST(LcpTest, EncodingRoundTrip) {
  const AttributeLcp lcp = Fig2LocationLcp();
  std::string buf;
  lcp.EncodeTo(&buf);
  Slice in = buf;
  auto decoded = AttributeLcp::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, lcp);

  const AttributeLcp forever = AttributeLcp::KeepForever();
  buf.clear();
  forever.EncodeTo(&buf);
  in = buf;
  EXPECT_EQ(*AttributeLcp::DecodeFrom(&in), forever);
}

TEST(LcpTest, ToStringMentionsStates) {
  const std::string s = Fig2LocationLcp().ToString();
  EXPECT_NE(s.find("d0"), std::string::npos);
  EXPECT_NE(s.find("d3"), std::string::npos);
  EXPECT_NE(s.find("⊥"), std::string::npos);
}

// --- TupleLcp (Fig. 3) ---------------------------------------------------------

TEST(TupleLcpTest, ProductOfTwoAttributeLcps) {
  // Fig. 3: the tuple LCP combines the attribute LCPs; each independent
  // attribute transition moves the tuple to a new state t_k.
  const auto a = *AttributeLcp::Make({{0, 10}, {1, 20}});           // ⊥ at 30
  const auto b = *AttributeLcp::Make({{0, 15}, {1, 30}});           // ⊥ at 45
  const TupleLcp tuple = TupleLcp::Make({&a, &b});

  // Transition instants: 0, 10, 15, 30, 45(removal). States before removal:
  // t0@0 (d0,d0), t1@10 (d1,d0), t2@15 (d1,d1), t3@30 (⊥,d1).
  ASSERT_EQ(tuple.num_states(), 4);
  EXPECT_EQ(tuple.states()[0].attr_phase, (std::vector<int>{0, 0}));
  EXPECT_EQ(tuple.states()[1].attr_phase, (std::vector<int>{1, 0}));
  EXPECT_EQ(tuple.states()[2].attr_phase, (std::vector<int>{1, 1}));
  EXPECT_EQ(tuple.states()[3].attr_phase, (std::vector<int>{2, 1}));
  EXPECT_EQ(tuple.RemovalOffset(), 45);

  EXPECT_EQ(StateAt(tuple, 0), 0);
  EXPECT_EQ(StateAt(tuple, 12), 1);
  EXPECT_EQ(StateAt(tuple, 29), 2);
  EXPECT_EQ(StateAt(tuple, 44), 3);
}

TEST(TupleLcpTest, SimultaneousTransitionsMergeIntoOneState) {
  const auto a = *AttributeLcp::Make({{0, 10}});
  const auto b = *AttributeLcp::Make({{0, 10}});
  const TupleLcp tuple = TupleLcp::Make({&a, &b});
  ASSERT_EQ(tuple.num_states(), 1);  // both removed together at 10
  EXPECT_EQ(tuple.RemovalOffset(), 10);
}

TEST(TupleLcpTest, ForeverAttributeBlocksRemoval) {
  const auto a = *AttributeLcp::Make({{0, 10}});
  const auto keep = AttributeLcp::KeepForever();
  const TupleLcp tuple = TupleLcp::Make({&a, &keep});
  EXPECT_EQ(tuple.RemovalOffset(), kForever);
  // States: t0 (d0,d0), t1@10 (⊥, d0).
  ASSERT_EQ(tuple.num_states(), 2);
  EXPECT_EQ(tuple.states()[1].attr_phase, (std::vector<int>{1, 0}));
}

TEST(TupleLcpTest, NoDegradableAttributes) {
  const TupleLcp tuple = TupleLcp::Make({});
  EXPECT_EQ(tuple.num_states(), 1);
  EXPECT_EQ(tuple.RemovalOffset(), kForever);
}

// --- Schema --------------------------------------------------------------------

Schema MakePersonSchema() {
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("name", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable(
           "salary", SalaryDomain(),
           *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}))});
  return *schema;
}

TEST(SchemaTest, PartitionsStableAndDegradable) {
  const Schema schema = MakePersonSchema();
  EXPECT_EQ(schema.num_columns(), 4);
  EXPECT_EQ(schema.stable_columns(), (std::vector<int>{0, 1}));
  EXPECT_EQ(schema.degradable_columns(), (std::vector<int>{2, 3}));
  EXPECT_EQ(schema.FindColumn("salary"), 3);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
  EXPECT_EQ(schema.DegradableOrdinal(2), 0);
  EXPECT_EQ(schema.DegradableOrdinal(3), 1);
  EXPECT_EQ(schema.DegradableOrdinal(0), -1);
  EXPECT_GT(schema.tuple_lcp().num_states(), 1);
}

TEST(SchemaTest, ValidateInsertRowEnforcesFullAccuracy) {
  const Schema schema = MakePersonSchema();
  const std::vector<Value> good = {Value::Int64(1), Value::String("alice"),
                                   Value::String("11 Rue Lepic"),
                                   Value::Int64(2345)};
  EXPECT_TRUE(schema.ValidateInsertRow(good).ok());

  // Degradable value given at city level instead of address level.
  std::vector<Value> coarse = good;
  coarse[2] = Value::String("Paris");
  EXPECT_FALSE(schema.ValidateInsertRow(coarse).ok());

  // NULL degradable value rejected; NULL stable value accepted.
  std::vector<Value> null_degradable = good;
  null_degradable[3] = Value::Null();
  EXPECT_FALSE(schema.ValidateInsertRow(null_degradable).ok());
  std::vector<Value> null_stable = good;
  null_stable[1] = Value::Null();
  EXPECT_TRUE(schema.ValidateInsertRow(null_stable).ok());

  // Wrong arity and wrong types.
  EXPECT_FALSE(schema.ValidateInsertRow({Value::Int64(1)}).ok());
  std::vector<Value> bad_type = good;
  bad_type[0] = Value::String("one");
  EXPECT_FALSE(schema.ValidateInsertRow(bad_type).ok());
}

TEST(SchemaTest, MakeRejectsBadDefinitions) {
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(Schema::Make({ColumnDef::Stable("a", ValueType::kInt64),
                             ColumnDef::Stable("a", ValueType::kInt64)})
                   .ok());
  // LCP level beyond hierarchy height.
  auto bad_lcp = *AttributeLcp::Make({{0, 10}, {9, kForever}});
  EXPECT_FALSE(
      Schema::Make({ColumnDef::Degradable("loc", LocationDomain(), bad_lcp)})
          .ok());
}

TEST(SchemaTest, EncodingRoundTrip) {
  const Schema schema = MakePersonSchema();
  std::string buf;
  schema.EncodeTo(&buf);
  Slice in = buf;
  auto decoded = Schema::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->num_columns(), 4);
  EXPECT_EQ(decoded->column(2).name, "location");
  EXPECT_EQ(decoded->column(2).kind, ColumnKind::kDegradable);
  EXPECT_EQ(decoded->column(2).lcp, Fig2LocationLcp());
  EXPECT_EQ(decoded->column(2).hierarchy->height(), 4);
}

// --- Catalog -------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t1 = catalog.CreateTable("person", MakePersonSchema());
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ((*t1)->id, 1u);
  EXPECT_FALSE(catalog.CreateTable("person", MakePersonSchema()).ok());
  EXPECT_NE(catalog.GetTable("person"), nullptr);
  EXPECT_EQ(catalog.GetTable("person"), catalog.GetTable(TableId{1}));
  EXPECT_EQ(catalog.GetTable("ghost"), nullptr);
  EXPECT_TRUE(catalog.DropTable("person").ok());
  EXPECT_FALSE(catalog.DropTable("person").ok());
  EXPECT_EQ(catalog.GetTable("person"), nullptr);
}

TEST(CatalogTest, IdsNotReusedAfterDrop) {
  Catalog catalog;
  auto t1 = catalog.CreateTable("a", MakePersonSchema());
  ASSERT_TRUE(t1.ok());
  const TableId dropped_id = (*t1)->id;  // DropTable frees the TableDef
  ASSERT_TRUE(catalog.DropTable("a").ok());
  auto t2 = catalog.CreateTable("b", MakePersonSchema());
  ASSERT_TRUE(t2.ok());
  EXPECT_GT((*t2)->id, dropped_id);
}

TEST(CatalogTest, PersistenceRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/idb_catalog_test";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  ASSERT_TRUE(CreateDirs(dir).ok());
  const std::string path = dir + "/CATALOG";

  {
    Catalog catalog;
    ASSERT_TRUE(catalog.CreateTable("person", MakePersonSchema()).ok());
    ASSERT_TRUE(catalog
                    .CreateTable("events",
                                 *Schema::Make({ColumnDef::Stable(
                                     "what", ValueType::kString)}))
                    .ok());
    ASSERT_TRUE(catalog.SaveTo(path).ok());
  }
  auto loaded = Catalog::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  const TableDef* person = (*loaded)->GetTable("person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->schema.num_columns(), 4);
  EXPECT_EQ(person->schema.column(2).hierarchy->name(), "location");
  ASSERT_NE((*loaded)->GetTable("events"), nullptr);
  // New tables after load continue the id sequence.
  auto t3 = (*loaded)->CreateTable(
      "more", *Schema::Make({ColumnDef::Stable("x", ValueType::kInt64)}));
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ((*t3)->id, 3u);
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

TEST(CatalogTest, LoadRejectsCorruptFile) {
  const std::string dir = ::testing::TempDir() + "/idb_catalog_corrupt";
  ASSERT_TRUE(CreateDirs(dir).ok());
  const std::string path = dir + "/CATALOG";
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("person", MakePersonSchema()).ok());
  ASSERT_TRUE(catalog.SaveTo(path).ok());
  // Flip one byte past the checksum header.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string mutated = *contents;
  mutated[mutated.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(path, mutated, false).ok());
  EXPECT_TRUE(Catalog::LoadFrom(path).status().IsCorruption());
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

}  // namespace
}  // namespace instantdb
