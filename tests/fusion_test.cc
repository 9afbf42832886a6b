// Pipeline fusion tests (exec/fusion.h): every pipeline-breaker kind must
// split the fused chain; fused execution must be byte-identical to the
// materializing evaluator; exchange workers must fuse their partitioned scan
// slices; the static verifier must reject a seeded mis-fused plan (corrupted
// boundary schema / advertised order); the Explain surface must render the
// fused chain and DescribeAnalyze must still attribute tuples to the elided
// chain members; and the governor — deadline, cancellation, fault injection
// at interior member sites — must reach through the fused loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/fusion.h"
#include "exec/physical.h"
#include "storage/columnar/columnar_document.h"
#include "storage/store.h"
#include "verify/plan_verifier.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"

namespace uload {
namespace {

class FusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {{"people", &people_}, {"names", &names_}};
    ctx_.document = &doc_;
  }

  static PredicatePtr SmithPred() {
    return Predicate::CompareConst("n_Val", Comparator::kContainsWord,
                                   AtomicValue::String("Smith"));
  }

  PlanPtr NavChain() {
    NavEmit emit;
    emit.id = true;
    emit.val = true;
    emit.prefix = "em";
    return LogicalPlan::Navigate(
        LogicalPlan::PrefixNames(LogicalPlan::Scan("people"), "x"), "xp_ID",
        {NavStep{Axis::kChild, "emailaddress"}}, emit,
        JoinVariant::kLeftOuter);
  }

  // Executes `plan` through the fused compiler and through the
  // materializing evaluator (the oracle); both must succeed and agree tuple
  // for tuple. Returns the compiled tree's Describe().
  std::string CheckFusedAgainstUnfused(const PlanPtr& plan) {
    ExecContext fused_exec;
    auto fused_phys = CompilePhysicalPlan(plan, ctx_, &fused_exec);
    EXPECT_TRUE(fused_phys.ok()) << fused_phys.status().ToString();
    if (!fused_phys.ok()) return std::string();
    auto fused = ExecutePhysical(fused_phys->get());
    EXPECT_TRUE(fused.ok()) << fused.status().ToString();

    auto oracle = Evaluate(*plan, ctx_);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    if (fused.ok() && oracle.ok()) {
      EXPECT_TRUE(fused->Equals(*oracle))
          << "fused rows=" << fused->size() << " evaluator rows="
          << oracle->size() << "\n" << (*fused_phys)->Describe();
    }
    return (*fused_phys)->Describe();
  }

  Document doc_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

// --- Chain formation ---------------------------------------------------------

TEST_F(FusionTest, GoldenDescribeForScanSelectProject) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  // The whole chain — scan included — is one operator; its label names every
  // elided member in execution order.
  EXPECT_EQ((*phys)->Describe(),
            "FusedPipeline_phi[Scan_phi(names) -> Select_phi[n_Val "
            "contains \"Smith\"] -> Project_phi]\n");
  EXPECT_EQ((*phys)->kind(), PhysOpKind::kFusedPipeline);
  EXPECT_TRUE((*phys)->children().empty());
}

TEST_F(FusionTest, FusedChainsMatchUnfusedExecution) {
  // Select over a scan.
  CheckFusedAgainstUnfused(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()));
  // Select → Project (drops a column the predicate needed).
  CheckFusedAgainstUnfused(LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_ID"}, /*dedup=*/false));
  // Rename → Navigate → Select over the navigated value.
  CheckFusedAgainstUnfused(LogicalPlan::Select(
      NavChain(), Predicate::NotNull("em_ID")));
  // Retype at the top of a chain.
  std::vector<Attribute> renamed;
  for (const Attribute& a : names_.schema().attrs()) {
    renamed.push_back(Attribute::Atomic("r_" + a.name));
  }
  CheckFusedAgainstUnfused(LogicalPlan::Retype(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      Schema::Make(std::move(renamed))));
}

TEST_F(FusionTest, BareSourcesStayUnfused) {
  auto phys = CompilePhysicalPlan(LogicalPlan::Scan("names"), ctx_);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ((*phys)->Describe(), "Scan_phi(names)\n");
}

TEST_F(FusionTest, DescribeAnalyzeAttributesTuplesToChainMembers) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      {"n_Val"}, /*dedup=*/false);
  ExecContext exec;
  auto phys = CompilePhysicalPlan(plan, ctx_, &exec);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0);
  std::string analyzed = (*phys)->DescribeAnalyze();
  // Each elided member renders its own attribution line with its original
  // label and a per-member tuple count (the tuples flowing out of it).
  EXPECT_NE(analyzed.find("~ Scan_phi(names)"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("~ Select_phi"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("~ Project_phi"), std::string::npos) << analyzed;
  std::string expect_count = "tuples=" + std::to_string(rel->size());
  EXPECT_NE(analyzed.find(expect_count), std::string::npos) << analyzed;
}

// --- Breakers ----------------------------------------------------------------

// Every pipeline-breaker kind must terminate the fused chain: the breaker
// keeps its own operator, chains on both sides still fuse, and the result
// is unchanged.
TEST_F(FusionTest, SortBreaksTheChain) {
  // n_Val order is not provable from the scan, so the enforcer must stay.
  std::string desc = CheckFusedAgainstUnfused(LogicalPlan::SortOp(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}));
  EXPECT_NE(desc.find("Sort_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi["), std::string::npos) << desc;
}

TEST_F(FusionTest, StructuralJoinBreaksTheChain) {
  std::string desc = CheckFusedAgainstUnfused(LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"),
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()), "p_ID",
      Axis::kDescendant, "n_ID", JoinVariant::kInner));
  EXPECT_NE(desc.find("StackTreeDesc_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(names)"),
            std::string::npos)
      << desc;
}

TEST_F(FusionTest, ValueJoinBuildBreaksTheChain) {
  std::string desc = CheckFusedAgainstUnfused(LogicalPlan::ValueJoin(
      LogicalPlan::Select(LogicalPlan::Scan("people"),
                          Predicate::NotNull("p_Val")),
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_Val")),
      "p_Val", Comparator::kEq, "n_Val", JoinVariant::kInner));
  EXPECT_NE(desc.find("HashJoin"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(people)"),
            std::string::npos)
      << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(names)"), std::string::npos)
      << desc;
}

TEST_F(FusionTest, ProductAndUnionBreakTheChain) {
  std::string desc = CheckFusedAgainstUnfused(LogicalPlan::Product(
      LogicalPlan::Select(LogicalPlan::Scan("people"),
                          Predicate::NotNull("p_ID")),
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID"))));
  EXPECT_NE(desc.find("Product_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(people)"),
            std::string::npos)
      << desc;

  desc = CheckFusedAgainstUnfused(LogicalPlan::Union(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred())));
  EXPECT_NE(desc.find("Union_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi["), std::string::npos) << desc;
}

TEST_F(FusionTest, DedupProjectionBreaksTheChain) {
  // First-wins dedup buffers a seen-set — a breaker. The chain below it
  // still fuses.
  std::string desc = CheckFusedAgainstUnfused(LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}, /*dedup=*/true));
  EXPECT_NE(desc.find("Project0_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(names)"),
            std::string::npos)
      << desc;
}

TEST_F(FusionTest, ExchangeBoundaryBreaksTheChain) {
  // Under a thread budget the structural join fans out; fused chains live
  // inside the worker pipelines, never across the exchange boundary.
  PlanPtr plan = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"),
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_Val")),
      "p_ID", Axis::kDescendant, "n_ID", JoinVariant::kInner);
  ExecContext serial_exec;
  serial_exec.set_thread_budget(1);
  auto serial = ExecutePhysicalPlan(plan, ctx_, &serial_exec);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExecContext exec;
  exec.set_thread_budget(4);
  auto phys = CompilePhysicalPlan(plan, ctx_, &exec);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  std::string desc = (*phys)->Describe();
  EXPECT_NE(desc.find("ExchangeMerge_phi"), std::string::npos) << desc;
  // Each worker's descendant chain fuses over its scan slice.
  EXPECT_NE(desc.find("FusedPipeline_phi[ParallelScan_phi(names 1/"),
            std::string::npos)
      << desc;
  auto parallel = ExecutePhysical(phys->get());
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(serial->Equals(*parallel));
}

TEST_F(FusionTest, ColumnarExchangeWorkersFuseTheirSlices) {
  // The same join over virtual column-backed extents: each worker's chain
  // reads its ColumnarParallelScan_φ slice inline.
  ColumnarDocument col = ColumnarDocument::FromDocument(doc_);
  auto people_def =
      ParseXam("xam\nnode p label=person id=s\nedge top // j p\n");
  auto names_def =
      ParseXam("xam\nnode n label=name id=s val\nedge top // j n\n");
  ASSERT_TRUE(people_def.ok() && names_def.ok());
  auto people = MaterializedView::Materialize("vpeople", *people_def, col);
  auto names = MaterializedView::Materialize("vnames", *names_def, col);
  ASSERT_TRUE(people.ok()) << people.status().ToString();
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_NE(names->virtual_store(), nullptr);
  EvalContext ctx;
  ctx.views = {{"vpeople", &*people}, {"vnames", &*names}};
  ctx.document = &col;
  PlanPtr plan = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("vpeople"),
      LogicalPlan::Select(LogicalPlan::Scan("vnames"),
                          Predicate::NotNull("n_Val")),
      "p_ID", Axis::kDescendant, "n_ID", JoinVariant::kInner);
  ExecContext serial_exec;
  auto serial = ExecutePhysicalPlan(plan, ctx, &serial_exec);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->size(), 0);
  ExecContext exec;
  exec.set_thread_budget(4);
  auto phys = CompilePhysicalPlan(plan, ctx, &exec);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  std::string desc = (*phys)->Describe();
  EXPECT_NE(desc.find("ExchangeMerge_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[ColumnarParallelScan_phi("),
            std::string::npos)
      << desc;
  auto parallel = ExecutePhysical(phys->get());
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(serial->Equals(*parallel));
}

// --- Verification ------------------------------------------------------------

TEST_F(FusionTest, FusedPlansPassStaticVerification) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(NavChain(), Predicate::NotNull("em_ID")),
      {"em_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_NE((*phys)->Describe().find("FusedPipeline_phi"), std::string::npos);
  EXPECT_TRUE(VerifyPhysicalPlan(**phys).ok());
}

TEST_F(FusionTest, MisfusedPlanFailsVerification) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}, /*dedup=*/false);
  auto make_fused = [&]() {
    auto phys = CompilePhysicalPlan(plan, ctx_);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    EXPECT_EQ((*phys)->kind(), PhysOpKind::kFusedPipeline);
    return std::move(*phys);
  };

  // (a) The advertised composed schema drifts from what the chain derives.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptSchemaForTesting(Schema::Make({Attribute::Atomic("bogus")}));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fused"), std::string::npos)
        << st.ToString();
  }
  // (b) A recorded step boundary schema is not what re-derivation yields.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptStepSchemaForTesting(
        0, Schema::Make({Attribute::Atomic("bogus")}));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fused"), std::string::npos)
        << st.ToString();
  }
  // (c) The fused operator claims an order the chain cannot prove.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptOrderForTesting(OrderDescriptor::On("n_Val"));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok()) << "claimed unprovable order passed verification";
  }
}

// --- Governor through the fused loop ----------------------------------------

TEST_F(FusionTest, MemberFaultSitesStillInjectable) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      {"n_Val"}, /*dedup=*/false);
  // Address an interior (elided) member by its original label: fusion must
  // keep the site reachable for the sweep.
  for (const char* target : {"Scan_phi", "Select_phi", "Project_phi"}) {
    for (FaultSpec::Site site :
         {FaultSpec::Site::kOpen, FaultSpec::Site::kNextBatch}) {
      ExecContext exec;
      FaultSpec f;
      f.op_substring = target;
      f.site = site;
      f.call_index = 0;
      exec.set_fault(f);
      auto got = ExecutePhysicalPlan(plan, ctx_, &exec);
      ASSERT_FALSE(got.ok()) << target;
      EXPECT_EQ(got.status().code(), StatusCode::kInternal) << target;
      EXPECT_NE(got.status().message().find("injected fault"),
                std::string::npos)
          << target << ": " << got.status().ToString();
      EXPECT_NE(got.status().message().find(target), std::string::npos)
          << got.status().ToString();
    }
  }
}

TEST_F(FusionTest, DeadlineReachesIntoTheFusedLoop) {
  PlanPtr plan = LogicalPlan::Select(LogicalPlan::Scan("names"),
                                     Predicate::NotNull("n_ID"));
  ExecContext exec;
  auto control = std::make_shared<QueryControl>();
  control->set_deadline_ns(1);  // already expired
  exec.set_control(control);
  auto got = ExecutePhysicalPlan(plan, ctx_, &exec);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
}

TEST_F(FusionTest, ReopenIsRepeatable) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(NavChain(), Predicate::NotNull("em_ID")),
      {"em_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto first = ExecutePhysical(phys->get());
  auto second = ExecutePhysical(phys->get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->Equals(*second));
}

}  // namespace
}  // namespace uload
