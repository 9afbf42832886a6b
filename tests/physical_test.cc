// The physical (iterator) engine must agree with the materializing
// evaluator on every plan shape, and the compiler must insert Sort_φ
// enforcers so streaming structural joins receive document-order inputs.
#include <gtest/gtest.h>

#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "storage/storage_models.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"

namespace uload {
namespace {

class PhysicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    summary_ = PathSummary::Build(&doc_);
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {{"people", &people_}, {"names", &names_}};
    ctx_.document = &doc_;
  }

  void CheckAgree(const PlanPtr& plan) {
    auto logical = Evaluate(*plan, ctx_);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    auto physical = ExecutePhysicalPlan(plan, ctx_);
    ASSERT_TRUE(physical.ok()) << physical.status().ToString();
    EXPECT_TRUE(logical->EqualsUnordered(*physical))
        << "logical rows=" << logical->size()
        << " physical rows=" << physical->size();
  }

  Document doc_;
  PathSummary summary_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

TEST_F(PhysicalTest, ScanSelectProject) {
  CheckAgree(LogicalPlan::Scan("people"));
  CheckAgree(LogicalPlan::Select(
      LogicalPlan::Scan("names"),
      Predicate::CompareConst("n_Val", Comparator::kContainsWord,
                              AtomicValue::String("Smith"))));
  CheckAgree(LogicalPlan::Project(LogicalPlan::Scan("names"), {"n_Val"},
                                  /*dedup=*/true));
}

TEST_F(PhysicalTest, StreamingStructuralJoin) {
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kChild, "n_ID", JoinVariant::kInner);
  CheckAgree(join);
  // The compiled tree uses the streaming StackTreeDesc. The tag collections
  // are physically in document order, so the scans prove their order
  // (TryAdoptOrder) and no Sort_phi enforcer is needed.
  auto phys = CompilePhysicalPlan(join, ctx_);
  ASSERT_TRUE(phys.ok());
  std::string desc = (*phys)->Describe();
  EXPECT_NE(desc.find("StackTreeDesc_phi"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("Sort_phi"), std::string::npos) << desc;

  // Piping one structural join into another breaks the requirement on the
  // ancestor side — the inner join's output is ordered on its *descendant*
  // attribute — so there the compiler must still insert the enforcer.
  PlanPtr piped = LogicalPlan::StructuralJoin(
      join, LogicalPlan::Scan("names"), "p_ID", Axis::kDescendant, "n_ID",
      JoinVariant::kInner);
  auto piped_phys = CompilePhysicalPlan(piped, ctx_);
  ASSERT_TRUE(piped_phys.ok());
  std::string piped_desc = (*piped_phys)->Describe();
  EXPECT_NE(piped_desc.find("Sort_phi"), std::string::npos) << piped_desc;
}

TEST_F(PhysicalTest, SortedInputsSkipEnforcers) {
  // Wrapping the scans in explicit sorts makes the compiler's EnsureOrder
  // a no-op for the outer join... here we verify the descendant stream is
  // emitted in document order.
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kDescendant, "n_ID", JoinVariant::kInner);
  auto phys = CompilePhysicalPlan(join, ctx_);
  ASSERT_TRUE(phys.ok());
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok());
  int idx = rel->schema().IndexOf("n_ID");
  ASSERT_GE(idx, 0);
  for (int64_t i = 1; i < rel->size(); ++i) {
    EXPECT_LE(rel->tuple(i - 1).fields[idx].atom().sid().pre,
              rel->tuple(i).fields[idx].atom().sid().pre);
  }
}

TEST_F(PhysicalTest, JoinVariantsAgree) {
  for (JoinVariant v : {JoinVariant::kInner, JoinVariant::kSemi,
                        JoinVariant::kLeftOuter, JoinVariant::kNestJoin,
                        JoinVariant::kNestOuter}) {
    CheckAgree(LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                                      LogicalPlan::Scan("names"), "p_Val",
                                      Comparator::kEq, "n_Val", v, "grp"));
    CheckAgree(LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                           LogicalPlan::Scan("names"), "p_ID",
                                           Axis::kDescendant, "n_ID", v,
                                           "grp"));
  }
}

TEST_F(PhysicalTest, ProductUnionNavigate) {
  CheckAgree(LogicalPlan::Product(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("names")));
  CheckAgree(LogicalPlan::Union(LogicalPlan::Scan("names"),
                                LogicalPlan::Scan("names")));
  NavEmit emit;
  emit.id = true;
  emit.val = true;
  emit.prefix = "em";
  CheckAgree(LogicalPlan::Navigate(LogicalPlan::Scan("people"), "p_ID",
                                   {NavStep{Axis::kChild, "emailaddress"}},
                                   emit, JoinVariant::kLeftOuter));
}

TEST_F(PhysicalTest, RewrittenPlansExecutePhysically) {
  // End to end: compile the rewriter's output through the physical engine.
  Catalog catalog;
  for (NamedXam& v : TagPartitionedModel(summary_)) {
    ASSERT_TRUE(catalog.AddXam(v.name, std::move(v.xam), doc_).ok());
  }
  std::vector<NamedXam> defs;
  for (const auto& v : catalog.views()) {
    defs.push_back({v->name(), v->definition()});
  }
  Rewriter rewriter(&summary_, defs);
  auto q = ParseXam(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  ASSERT_TRUE(q.ok());
  auto r = rewriter.RewriteBest(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EvalContext ctx = catalog.MakeEvalContext(&doc_);
  auto logical = Evaluate(*r->plan, ctx);
  auto physical = ExecutePhysicalPlan(r->plan, ctx);
  ASSERT_TRUE(logical.ok());
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_TRUE(logical->EqualsUnordered(*physical));
}

TEST_F(PhysicalTest, StructuralJoinCompilesEachChildOnce) {
  // The join attributes resolve on the children compiled for real, so an
  // evaluator-fallback child (Difference) over an index lookup is evaluated
  // once per compile, not once more just to learn its schema.
  int lookups = 0;
  EvalContext ctx = ctx_;
  ctx.index_lookup =
      [&](const std::string&,
          const std::vector<std::pair<std::string, AtomicValue>>&)
      -> Result<NestedRelation> {
    ++lookups;
    return names_;
  };
  PlanPtr smiths = LogicalPlan::Select(
      LogicalPlan::Scan("names"),
      Predicate::CompareConst("n_Val", Comparator::kContainsWord,
                              AtomicValue::String("Smith")));
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"),
      LogicalPlan::Difference(LogicalPlan::IndexScan("names", {}), smiths),
      "p_ID", Axis::kDescendant, "n_ID", JoinVariant::kInner);
  auto phys = CompilePhysicalPlan(join, ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_EQ(lookups, 1);
  auto physical = ExecutePhysical(phys->get());
  auto logical = Evaluate(*join, ctx);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  EXPECT_GT(physical->size(), 0);
  EXPECT_TRUE(logical->EqualsUnordered(*physical));
}

TEST_F(PhysicalTest, ReopenIsRepeatable) {
  PlanPtr plan = LogicalPlan::Select(
      LogicalPlan::Scan("people"),
      Predicate::NotNull("p_ID"));
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok());
  auto first = ExecutePhysical(phys->get());
  auto second = ExecutePhysical(phys->get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->Equals(*second));
}

}  // namespace
}  // namespace uload
