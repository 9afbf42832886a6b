// Pipeline fusion: maximal non-breaking operator chains compiled into one
// tuple-loop operator (ROADMAP item 3; the produce/consume design of
// HyPer-style engines, realized as template composition instead of source
// emission).
//
// The compiler (exec/physical.cc) splits a plan at pipeline *breakers* —
// Sort_φ, hash-join builds, StackTree buffering, Product/Union fan-in,
// exchange boundaries — and collapses each maximal chain of non-breaking
// operators (Scan/IndexScan/ColumnarScan/Unit sources, partitioned scan
// slices included, then Select, Project, Navigate, Rename, Retype) into a
// single FusedPipeline_φ, the only implementation of those five operators.
// The fused operator pulls source tuples from an inline cursor (materialized
// rows, index row-id lists, columnar row sets) or from a child operator, and
// pushes each tuple through the chain's steps in one loop: no intermediate
// TupleBatch is materialized, no virtual NextBatch() boundary is crossed, and
// the governor's cancel/deadline/memory checks run once per pipeline
// iteration instead of once per elided operator.
//
// Contract with the rest of the engine:
//  - Schemas/orders: the fused operator advertises the chain's *composed*
//    output schema and order descriptor, and records every elided operator
//    boundary (schema + order at that point) as a checkable obligation. The
//    static plan verifier (verify/plan_verifier.cc) re-derives each step's
//    output schema from its input schema and re-propagates the order
//    descriptors, proving fusion is a no-op on both.
//  - Metrics: each elided chain member keeps its own counter slot in the
//    ExecContext (registered at Bind with the member's original label), and
//    the fused loop attributes tuples flowing *out of* each step to that
//    slot — DescribeAnalyze still explains the logical chain. Wall-clock is
//    attributed at pipeline granularity (the per-member clock reads are
//    exactly the overhead fusion removes).
//  - Faults: the fault-injection spec is consulted per member site (ordinal
//    and label, Open/NextBatch, per-member call counters), so the sweep
//    still addresses interior sites that fusion elided.
#ifndef ULOAD_EXEC_FUSION_H_
#define ULOAD_EXEC_FUSION_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/physical.h"
#include "exec/plan_schemas.h"
#include "xml/node.h"

namespace uload {

class MaterializedView;   // storage/store.h
class ColumnarRowReader;  // storage/virtual_scan.h

// The document-navigation kernel of the fused Navigate step (there is no
// standalone Navigate_φ operator): resolves the source identifier to a store
// node, walks the navigation steps (child/descendant axes), and applies the
// join variant (inner/semi/outer/nest) to produce output tuples.
class NavigationCore {
 public:
  NavigationCore(const LogicalPlan* plan, const DocumentStore* doc);

  const LogicalPlan* plan() const { return plan_; }
  const DocumentStore* document() const { return doc_; }
  const SchemaPtr& emit_schema() const { return emit_schema_; }

  // Resolves the navigation source attribute against `input`. Fails when no
  // document is attached or the source attribute is nested.
  Status BindInput(const Schema& input);

  // Expands one input tuple into zero or more output tuples, appended to
  // `*out` in deterministic document order.
  Status Expand(const Tuple& t, std::deque<Tuple>* out) const;

 private:
  void Collect(NodeIndex from, const NavStep& step,
               std::vector<NodeIndex>* out) const;

  const LogicalPlan* plan_;
  const DocumentStore* doc_;
  SchemaPtr emit_schema_;
  int lidx_ = 0;
};

class FusedPipelineBuilder;

// One fused chain. Constructed exclusively through FusedPipelineBuilder.
class FusedPipelinePhys final : public PhysicalOperator {
 public:
  ~FusedPipelinePhys() override;

  enum class StepKind : uint8_t { kSelect, kProject, kNavigate, kRename,
                                  kRetype };
  enum class SourceKind : uint8_t { kRelation, kOwned, kRows, kColumnar,
                                    kOperator };

  // Read-only view of one fused step, the verifier's surface: the recorded
  // boundary schemas/orders are the obligations fusion must discharge, and
  // the spec fields let the verifier re-derive them independently.
  struct StepView {
    StepKind kind;
    std::string label;
    const SchemaPtr* in_schema;
    const SchemaPtr* out_schema;
    const OrderDescriptor* in_order;
    const OrderDescriptor* out_order;
    const Predicate* pred = nullptr;                  // kSelect
    const std::vector<std::string>* attrs = nullptr;  // kProject
    const LogicalPlan* nav = nullptr;                 // kNavigate
    const std::string* prefix = nullptr;              // kRename
  };

  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }
  std::string label() const override;
  std::vector<PhysicalOperator*> children() const override;
  PhysOpKind kind() const override { return PhysOpKind::kFusedPipeline; }
  bool TryAdoptOrder(const OrderDescriptor& order) override;
  OrderDescriptor ProvableOrder() const override;
  std::string Describe(int indent = 0) const override;
  std::string DescribeAnalyze(int indent = 0) const override;
  void MergeMetricsFrom(PhysicalOperator& other) override;

  // --- Verification / introspection surface --------------------------------
  size_t step_count() const { return steps_.size(); }
  StepView step(size_t i) const;
  SourceKind source_kind() const { return src_kind_; }
  // Number of slices the inline source's scan is partitioned into; above 1
  // the pipeline reads one slice and belongs inside an exchange worker.
  size_t source_nparts() const { return src_nparts_; }
  const SchemaPtr& source_schema() const { return src_schema_; }
  const OrderDescriptor& source_order() const;
  std::string source_label() const { return src_label_; }
  PhysicalOperator* source_operator() const { return src_op_.get(); }

  // Order propagation across one fused step (forward direction). Shared by
  // the fused operator and the plan verifier.
  static OrderDescriptor PropagateStepOrder(const StepView& s,
                                            const OrderDescriptor& in);

  // Testing only: corrupt the advertised composed schema/order so verifier
  // tests can prove a mis-fused plan is rejected.
  void CorruptSchemaForTesting(SchemaPtr s) { schema_ = std::move(s); }
  void CorruptStepSchemaForTesting(size_t i, SchemaPtr s);
  void CorruptOrderForTesting(OrderDescriptor o) { order_ = std::move(o); }

 protected:
  Status OpenImpl() override;
  Result<std::optional<TupleBatch>> NextBatchImpl() override;
  void CloseImpl() override;
  void BindChildren(ExecContext* ctx) override;

 private:
  friend class FusedPipelineBuilder;
  FusedPipelinePhys() = default;

  // Per-member attribution: a counter slot registered under the elided
  // operator's original label, plus the call counters fault injection keys
  // on. Unbound pipelines fall back to a private slot (resolved lazily so
  // moving a Member never leaves a dangling self-pointer).
  struct Member {
    std::string label;
    OperatorMetrics local;
    OperatorMetrics* metrics = nullptr;
    int ordinal = -1;
    int64_t open_calls = 0;
    int64_t next_calls = 0;
    OperatorMetrics& slot() { return metrics != nullptr ? *metrics : local; }
    const OperatorMetrics& slot() const {
      return metrics != nullptr ? *metrics : local;
    }
  };

  struct Step {
    StepKind kind;
    SchemaPtr in_schema;
    SchemaPtr out_schema;
    OrderDescriptor in_order;
    OrderDescriptor out_order;
    Member member;
    // Spec (one of, per kind).
    PredicatePtr pred;                        // kSelect
    std::optional<TupleProjector> projector;  // kProject
    std::vector<std::string> attrs;           // kProject (for re-derivation)
    std::unique_ptr<NavigationCore> nav;      // kNavigate
    std::string prefix;                       // kRename
    // Navigate expansion scratch, reused across tuples.
    std::deque<Tuple> buf;
  };

  Status CheckMemberFaults(FaultSpec::Site site);
  // Pushes one source tuple through steps [i..) and emits survivors.
  Status Apply(size_t i, Tuple&& t, TupleBatch* out);
  void Emit(Tuple&& t, TupleBatch* out);
  // Pulls the next source tuple, or nullopt at end of stream.
  Result<std::optional<Tuple>> NextSourceTuple();
  // Relation-resident tuple at the current cursor without copying it, or
  // nullptr at end of stream (relation-backed sources only).
  const Tuple* PeekSourceTuple() const;
  // Backward order translation across step `s` (the adoption direction).
  static bool TranslateOrderBack(const Step& s, const OrderDescriptor& out,
                                 OrderDescriptor* in);
  // Re-derives every boundary order (and the advertised order) forward from
  // the source order.
  void RecomputeOrders();

  SchemaPtr schema_;
  OrderDescriptor order_;
  std::vector<Step> steps_;

  // Source.
  SourceKind src_kind_ = SourceKind::kOperator;
  std::string src_label_;
  SchemaPtr src_schema_;
  OrderDescriptor src_order_;  // inline sources only; kOperator asks the op
  Member src_member_;          // inline sources only
  // Slice of a partitioned scan (kRelation / kColumnar); 0 of 1 = all rows.
  size_t src_part_ = 0;
  size_t src_nparts_ = 1;
  int64_t src_begin_ = 0;                      // kRelation slice bounds
  int64_t src_end_ = 0;
  const NestedRelation* src_rel_ = nullptr;    // kRelation / kRows
  NestedRelation src_owned_;                   // kOwned
  std::vector<int64_t> src_rows_;              // kRows
  std::unique_ptr<ColumnarRowReader> src_reader_;  // kColumnar
  PhysicalPtr src_op_;                         // kOperator

  // Cursors / runtime state.
  int64_t spos_ = 0;                  // kRelation/kOwned/kRows cursor
  std::vector<NodeIndex> crows_;      // kColumnar decoded slice
  size_t cpos_ = 0;
  std::optional<TupleBatch> src_batch_;  // kOperator buffered batch
  size_t src_batch_pos_ = 0;
  bool src_done_ = false;
  std::deque<Tuple> pending_;  // overflow when a batch fills mid-expansion
  uint64_t ticks_ = 0;         // interior cancellation-check pacing
  // Index of the first kSelect step when every earlier step is
  // metadata-only (kRename/kRetype — positional fields untouched) and the
  // source is relation-backed; -1 otherwise. The hot loop then evaluates
  // the predicate against the relation-resident tuple and copies only
  // survivors. Member counters are bumped exactly as the copying path bumps
  // them.
  int prefilter_step_ = -1;
};

// Assembles a FusedPipelinePhys bottom-up: one source, then steps in
// execution order. Each Add* derives the step's output schema with the
// shared derivations of exec/plan_schemas.h and fails on type errors.
class FusedPipelineBuilder {
 public:
  FusedPipelineBuilder();
  ~FusedPipelineBuilder();

  // Exactly one source, set before any step. A relation or columnar source
  // given a slice reads only rows [part·n/nparts, (part+1)·n/nparts) — the
  // ParallelScan_φ partitioning, so worker streams stay disjoint and locally
  // ordered.
  void SourceRelation(const NestedRelation* rel, std::string label,
                      size_t part = 0, size_t nparts = 1);
  void SourceOwnedRelation(NestedRelation rel, std::string label,
                           OrderDescriptor order = OrderDescriptor());
  void SourceRows(const NestedRelation* data, std::vector<int64_t> rows,
                  std::string label);
  void SourceColumnar(const MaterializedView* view, std::string label,
                      size_t part = 0, size_t nparts = 1);
  void SourceOperator(PhysicalPtr op);

  Status AddSelect(PredicatePtr pred);
  Status AddProject(std::vector<std::string> attrs);
  Status AddNavigate(const LogicalPlan* plan, const DocumentStore* doc);
  Status AddRename(std::string prefix);
  Status AddRetype(SchemaPtr schema);

  const SchemaPtr& current_schema() const;

  // Finalizes the pipeline. Fails when no source was set or the chain has no
  // steps (a bare source keeps its scan operator).
  Result<PhysicalPtr> Build();

 private:
  std::unique_ptr<FusedPipelinePhys> op_;
  bool has_source_ = false;
  Status deferred_ = Status::Ok();
};

}  // namespace uload

#endif  // ULOAD_EXEC_FUSION_H_
