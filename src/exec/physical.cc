#include "exec/physical.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <unordered_map>

#include "exec/exchange.h"
#include "exec/plan_schemas.h"
#include "exec/structural_join.h"
#include "opt/cost.h"
#include "exec/fusion.h"
#include "storage/virtual_scan.h"
#include "verify/batch_validator.h"
#include "verify/plan_verifier.h"

namespace uload {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- PhysicalOperator template methods --------------------------------------

Status PhysicalOperator::Open() {
  adapter_batch_.reset();
  adapter_pos_ = 0;
  adapter_done_ = false;
  int64_t start = NowNs();
  if (control_ != nullptr) {
    Status c = control_->Check(start);
    if (!c.ok()) return c;
  }
  int64_t call = open_calls_++;
  if (fault_ != nullptr &&
      fault_->ShouldFail(op_ordinal_, label(), FaultSpec::Site::kOpen, call)) {
    return Status::Internal("injected fault: Open of " + label());
  }
  Status s = OpenImpl();
  metrics_->open_ns += NowNs() - start;
  return s;
}

Result<std::optional<TupleBatch>> PhysicalOperator::NextBatch() {
  int64_t start = NowNs();
  // Cooperative cancellation/deadline: every batch boundary is a check
  // point, reusing the clock read the metrics need anyway.
  if (control_ != nullptr) {
    Status c = control_->Check(start);
    if (!c.ok()) return c;
  }
  int64_t call = next_calls_++;
  if (fault_ != nullptr &&
      fault_->ShouldFail(op_ordinal_, label(), FaultSpec::Site::kNextBatch,
                         call)) {
    return Status::Internal("injected fault: NextBatch of " + label());
  }
  Result<std::optional<TupleBatch>> r = NextBatchImpl();
  metrics_->next_ns += NowNs() - start;
  if (r.ok() && r->has_value()) {
    metrics_->batches_produced += 1;
    metrics_->tuples_produced += static_cast<int64_t>((*r)->size());
    if (memory_ != nullptr) {
      // Transient charge of the streamed batch: enforces the budget and
      // records the tracker peak at batch granularity without holding the
      // bytes beyond the handoff (the consumer owns the batch).
      int64_t bytes = (*r)->ApproxBytes();
      Status ms = memory_->Charge(bytes);
      if (!ms.ok()) return ms;
      memory_->Release(bytes);
      if (metrics_->peak_bytes < held_bytes_ + bytes) {
        metrics_->peak_bytes = held_bytes_ + bytes;
      }
    }
    if (validate_batches_) {
      Status s = ValidateBatch(*schema(), **r);
      if (!s.ok()) {
        return Status::Internal("batch validation failed in " + label() +
                                ": " + s.message());
      }
    }
  }
  return r;
}

void PhysicalOperator::Close() {
  CloseImpl();
  // Whatever the implementation still held (error/cancel paths included)
  // goes back to the tracker: an aborted query leaves no charge behind.
  ReleaseAllMemory();
}

Status PhysicalOperator::CheckControl() {
  if (control_ == nullptr) return Status::Ok();
  return control_->Check(NowNs());
}

Status PhysicalOperator::ChargeMemory(int64_t bytes) {
  if (bytes <= 0) return Status::Ok();
  if (memory_ != nullptr) ULOAD_RETURN_NOT_OK(memory_->Charge(bytes));
  held_bytes_ += bytes;
  if (metrics_->peak_bytes < held_bytes_) metrics_->peak_bytes = held_bytes_;
  return Status::Ok();
}

void PhysicalOperator::ReleaseMemory(int64_t bytes) {
  if (bytes <= 0) return;
  held_bytes_ -= bytes;
  if (held_bytes_ < 0) held_bytes_ = 0;
  if (memory_ != nullptr) memory_->Release(bytes);
}

Status PhysicalOperator::TrackGrow(int64_t bytes) {
  deferred_bytes_ += bytes;
  if (deferred_bytes_ < (int64_t{1} << 16)) return Status::Ok();
  int64_t b = deferred_bytes_;
  deferred_bytes_ = 0;
  return ChargeMemory(b);
}

void PhysicalOperator::TrackShrink(int64_t bytes) {
  deferred_bytes_ -= bytes;
  if (deferred_bytes_ > -(int64_t{1} << 16)) return;
  ReleaseMemory(-deferred_bytes_);
  deferred_bytes_ = 0;
}

void PhysicalOperator::ReleaseAllMemory() {
  if (held_bytes_ > 0 && memory_ != nullptr) memory_->Release(held_bytes_);
  held_bytes_ = 0;
  deferred_bytes_ = 0;
}

Result<std::optional<Tuple>> PhysicalOperator::NextTuple() {
  for (;;) {
    if (adapter_batch_.has_value() && adapter_pos_ < adapter_batch_->size()) {
      return std::optional<Tuple>(
          std::move(adapter_batch_->tuple(adapter_pos_++)));
    }
    if (adapter_done_) return std::optional<Tuple>();
    ULOAD_ASSIGN_OR_RETURN(adapter_batch_, NextBatch());
    adapter_pos_ = 0;
    if (!adapter_batch_.has_value()) {
      adapter_done_ = true;
      return std::optional<Tuple>();
    }
  }
}

std::string PhysicalOperator::Describe(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "\n";
  for (const PhysicalOperator* c : children()) out += c->Describe(indent + 1);
  return out;
}

std::string PhysicalOperator::DescribeAnalyze(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "  [" + metrics_->ToString() + "]\n";
  for (const PhysicalOperator* c : children()) {
    out += c->DescribeAnalyze(indent + 1);
  }
  return out;
}

void PhysicalOperator::Bind(ExecContext* ctx) {
  batch_size_ = ctx->batch_size();
  validate_batches_ = ctx->validate_batches();
  // Registration ordinal doubles as the fault-point address: stable across
  // runs of the same plan, enumerable by sweeping [0, metric_count()).
  metrics_ = ctx->Register(label(), &op_ordinal_);
  control_ = ctx->control();
  memory_ = ctx->memory_tracker();
  fault_ = ctx->fault().enabled() ? &ctx->fault() : nullptr;
  open_calls_ = 0;
  next_calls_ = 0;
  held_bytes_ = 0;
  deferred_bytes_ = 0;
  BindChildren(ctx);
}

void PhysicalOperator::BindChildren(ExecContext* ctx) {
  for (PhysicalOperator* c : children()) c->Bind(ctx);
}

void PhysicalOperator::MergeMetricsFrom(PhysicalOperator& other) {
  metrics_->MergeFrom(*other.metrics_);
  other.metrics_->Reset();
  std::vector<PhysicalOperator*> mine = children();
  std::vector<PhysicalOperator*> theirs = other.children();
  for (size_t i = 0; i < mine.size() && i < theirs.size(); ++i) {
    mine[i]->MergeMetricsFrom(*theirs[i]);
  }
}

namespace {

// Base with common bookkeeping.
class PhysBase : public PhysicalOperator {
 public:
  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }

 protected:
  void CloseImpl() override {}

  SchemaPtr schema_ = Schema::Make({});
  OrderDescriptor order_;
};

// --- Scan_φ ----------------------------------------------------------------

class ScanPhys : public PhysBase {
 public:
  ScanPhys(const NestedRelation* rel, std::string name)
      : rel_(rel), name_(std::move(name)) {
    schema_ = rel->schema_ptr();
  }
  std::string label() const override { return "Scan_phi(" + name_ + ")"; }
  PhysOpKind kind() const override { return PhysOpKind::kScan; }
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    Result<bool> sorted = IsSortedBy(order, *rel_);
    if (!sorted.ok() || !*sorted) return false;
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= rel_->size()) return std::optional<TupleBatch>();
    TupleBatch out = NewBatch();
    while (pos_ < rel_->size() && !out.full()) out.Add(rel_->tuple(pos_++));
    return std::optional<TupleBatch>(std::move(out));
  }

 private:
  const NestedRelation* rel_;
  std::string name_;
  int64_t pos_ = 0;
};

// A scan over an owned materialized relation (index lookups and the
// materializing fallbacks reuse it).
class MaterialPhys : public PhysBase {
 public:
  MaterialPhys(NestedRelation data, std::string label, OrderDescriptor order)
      : data_(std::move(data)), label_(std::move(label)) {
    schema_ = data_.schema_ptr();
    order_ = std::move(order);
  }
  std::string label() const override { return label_; }
  PhysOpKind kind() const override { return PhysOpKind::kMaterial; }
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    Result<bool> sorted = IsSortedBy(order, data_);
    if (!sorted.ok() || !*sorted) return false;
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= data_.size()) return std::optional<TupleBatch>();
    TupleBatch out = NewBatch();
    while (pos_ < data_.size() && !out.full()) out.Add(data_.tuple(pos_++));
    return std::optional<TupleBatch>(std::move(out));
  }

 private:
  NestedRelation data_;
  std::string label_;
  int64_t pos_ = 0;
};

// --- IndexScan_φ -------------------------------------------------------------

// Batch-streaming scan of an R-marked view restricted to the rows matched by
// the lookup bindings. The catalog hands out the view's stored relation plus
// the row ids (storage order); nothing is materialized per query.
class IndexScanPhys : public PhysBase {
 public:
  IndexScanPhys(const NestedRelation* data, std::vector<int64_t> rows,
                std::string name)
      : data_(data), rows_(std::move(rows)), name_(std::move(name)) {
    schema_ = data_->schema_ptr();
  }
  std::string label() const override {
    return "IndexScan_phi(" + name_ + ")";
  }
  PhysOpKind kind() const override { return PhysOpKind::kIndexScan; }
  // The selected rows are a subsequence of the stored relation; sortedness
  // is checked over exactly those rows (same per-key contract as
  // IsSortedBy: every key independently non-decreasing).
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    for (const OrderKey& k : order.keys()) {
      int idx = data_->schema().IndexOf(k.attr);
      if (idx < 0 || data_->schema().attr(idx).is_collection) return false;
      for (size_t i = 1; i < rows_.size(); ++i) {
        const AtomicValue& prev =
            data_->tuple(rows_[i - 1]).fields[idx].atom();
        const AtomicValue& cur = data_->tuple(rows_[i]).fields[idx].atom();
        int c = AtomicValue::Compare(prev, cur);
        if (k.ascending ? c > 0 : c < 0) return false;
      }
    }
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= rows_.size()) return std::optional<TupleBatch>();
    TupleBatch out = NewBatch();
    while (pos_ < rows_.size() && !out.full()) {
      out.Add(data_->tuple(rows_[pos_++]));
    }
    return std::optional<TupleBatch>(std::move(out));
  }

 private:
  const NestedRelation* data_;
  std::vector<int64_t> rows_;
  std::string name_;
  size_t pos_ = 0;
};

// --- π0_φ (duplicate-eliminating projection) ---------------------------------

// First-wins dedup buffers a seen-set over the whole stream, so it breaks the
// pipeline; plain projection runs as a fused step (exec/fusion.h).
class ProjectPhys : public PhysBase {
 public:
  static Result<PhysicalPtr> Make(PhysicalPtr input,
                                  std::vector<std::string> attrs) {
    auto p = std::unique_ptr<ProjectPhys>(new ProjectPhys());
    ULOAD_ASSIGN_OR_RETURN(p->proj_,
                           TupleProjector::Make(*input->schema(), attrs));
    p->schema_ = p->proj_->schema();
    std::vector<OrderKey> kept;
    for (const OrderKey& k : input->order().keys()) {
      if (!ResolveAttrPath(*p->schema_, k.attr).ok()) break;
      kept.push_back(k);
    }
    p->order_ = OrderDescriptor(std::move(kept));
    p->input_ = std::move(input);
    return PhysicalPtr(std::move(p));
  }
  std::string label() const override { return "Project0_phi"; }
  std::vector<PhysicalOperator*> children() const override {
    return {input_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kProject; }
  // The input's order survives for the longest key prefix whose attributes
  // all survive the projection.
  OrderDescriptor ProvableOrder() const override {
    std::vector<OrderKey> kept;
    for (const OrderKey& k : input_->order().keys()) {
      if (!ResolveAttrPath(*schema_, k.attr).ok()) break;
      kept.push_back(k);
    }
    return OrderDescriptor(std::move(kept));
  }
  // Duplicate elimination keeps the first occurrence, so the output depends
  // on the input arriving in a deterministic order.
  bool OrderSensitive() const override { return true; }
  // A projection preserves tuple order; the input's order survives for the
  // longest key prefix whose attributes are all retained (names unchanged).
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    for (const OrderKey& k : order.keys()) {
      if (!ResolveAttrPath(*schema_, k.attr).ok()) return false;
    }
    if (!input_->TryAdoptOrder(order)) return false;
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    seen_.clear();
    ReleaseMemory(held_bytes());
    return input_->Open();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    for (;;) {
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> in,
                             input_->NextBatch());
      if (!in.has_value()) return std::optional<TupleBatch>();
      TupleBatch out = NewBatch();
      int64_t added_bytes = 0;
      for (Tuple& t : in->tuples()) {
        // The input batch is exclusively ours, so steal the kept fields
        // instead of deep-copying them.
        Tuple projected = proj_->Apply(std::move(t));
        std::string key = TupleToString(projected);
        int64_t key_bytes =
            static_cast<int64_t>(sizeof(std::string) + key.capacity() + 48);
        if (!seen_.insert(std::move(key)).second) continue;
        added_bytes += key_bytes;
        out.Add(std::move(projected));
      }
      // The dedup set grows monotonically; charge its growth per input batch
      // so the tracker sees it without per-tuple atomics.
      if (added_bytes > 0) ULOAD_RETURN_NOT_OK(ChargeMemory(added_bytes));
      if (!out.empty()) return std::optional<TupleBatch>(std::move(out));
    }
  }
  void CloseImpl() override { input_->Close(); }

 private:
  ProjectPhys() = default;
  PhysicalPtr input_;
  std::optional<TupleProjector> proj_;
  std::set<std::string> seen_;
};

// --- Sort_φ ------------------------------------------------------------------

class SortPhys : public PhysBase {
 public:
  SortPhys(PhysicalPtr input, OrderDescriptor order)
      : input_(std::move(input)) {
    schema_ = input_->schema();
    order_ = std::move(order);
  }
  std::string label() const override {
    return "Sort_phi" + order_.ToString();
  }
  std::vector<PhysicalOperator*> children() const override {
    return {input_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kSort; }
  // The sort *establishes* its advertised order regardless of the input's;
  // its advertised order is always provable.
  OrderDescriptor ProvableOrder() const override { return order_; }
  // Stable sort: tuples tied on the sort keys keep their input order, so a
  // nondeterministic input makes the output nondeterministic.
  bool OrderSensitive() const override { return true; }

 protected:
  Status OpenImpl() override {
    buffer_ = NestedRelation(schema_);
    ReleaseMemory(held_bytes());
    ULOAD_RETURN_NOT_OK(input_->Open());
    input_open_ = true;
    for (;;) {
      // Materialization loop: check cancellation and charge the buffered
      // bytes once per consumed batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             input_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) buffer_.Add(std::move(t));
    }
    input_->Close();
    input_open_ = false;
    ULOAD_RETURN_NOT_OK(SortBy(order_, &buffer_));
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= buffer_.size()) return std::optional<TupleBatch>();
    TupleBatch out = NewBatch();
    while (pos_ < buffer_.size() && !out.full()) out.Add(buffer_.tuple(pos_++));
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    // Normally the input is already closed at the end of materialization;
    // an aborted Open() (cancel, budget, injected fault) leaves it open and
    // this close is what drains/joins any exchange below.
    if (input_open_) {
      input_->Close();
      input_open_ = false;
    }
    buffer_ = NestedRelation(schema_);
  }

 private:
  PhysicalPtr input_;
  NestedRelation buffer_;
  int64_t pos_ = 0;
  bool input_open_ = false;
};

// --- Streaming StackTreeDesc_φ (inner structural joins) ----------------------

// Requires both inputs in document order on the join attributes (the
// compiler guarantees it). Produces pairs ordered by the descendant side.
// Consumption is inherently cursor-style (merge of two ordered streams), so
// both inputs are read through the NextTuple() adapter; production fills a
// whole output batch per call.
class StackTreeDescPhys : public PhysBase {
 public:
  StackTreeDescPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                    int desc_idx, Axis axis)
      : anc_(std::move(anc)),
        desc_(std::move(desc)),
        anc_idx_(anc_idx),
        desc_idx_(desc_idx),
        axis_(axis) {
    schema_ = Schema::Concat(*anc_->schema(), *desc_->schema());
    order_ = OrderDescriptor::On(desc_->schema()->attr(desc_idx).name);
  }
  std::string label() const override {
    return "StackTreeDesc_phi[" + anc_->schema()->attr(anc_idx_).name + " " +
           (axis_ == Axis::kChild ? "parent-of" : "ancestor-of") + " " +
           desc_->schema()->attr(desc_idx_).name + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {anc_.get(), desc_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kStructuralJoin; }
  // The stack merge is only correct over document-ordered inputs.
  OrderDescriptor RequiredChildOrder(size_t child) const override {
    return child == 0
               ? OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name)
               : OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
  }
  // Output follows the descendant cursor: ordered on the descendant
  // attribute exactly when the descendant input is.
  OrderDescriptor ProvableOrder() const override {
    OrderDescriptor req =
        OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
    return OrderCovers(desc_->order(), req) ? order_ : OrderDescriptor();
  }
  bool OrderSensitive() const override { return true; }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(anc_->Open());
    ULOAD_RETURN_NOT_OK(desc_->Open());
    stack_.clear();
    pending_.clear();
    ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      // A selective join can consume many descendants before producing a
      // tuple; tick the cancellation check so latency stays bounded even
      // when the children hand over large prefetched batches.
      if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> d, desc_->NextTuple());
      if (!d.has_value()) break;
      const AtomicValue& did = d->fields[desc_idx_].atom();
      if (did.kind() != AtomicValue::Kind::kSid) {
        return Status::TypeError(
            "streaming structural join requires (pre, post, depth) ids");
      }
      // Pull ancestors that start before this descendant.
      while (next_anc_.has_value()) {
        const AtomicValue& aid = next_anc_->fields[anc_idx_].atom();
        if (aid.kind() != AtomicValue::Kind::kSid) {
          return Status::TypeError(
              "streaming structural join requires (pre, post, depth) ids");
        }
        if (aid.sid().pre >= did.sid().pre) break;
        while (!stack_.empty() &&
               stack_.back().fields[anc_idx_].atom().sid().post <
                   aid.sid().post) {
          stack_.pop_back();
        }
        stack_.push_back(std::move(*next_anc_));
        ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
      }
      // Pop finished ancestors.
      while (!stack_.empty() &&
             stack_.back().fields[anc_idx_].atom().sid().post <
                 did.sid().post) {
        stack_.pop_back();
      }
      for (const Tuple& a : stack_) {
        const StructuralId& asid = a.fields[anc_idx_].atom().sid();
        bool match = axis_ == Axis::kChild ? IsParent(asid, did.sid())
                                           : IsAncestor(asid, did.sid());
        if (match) pending_.push_back(ConcatTuples(a, *d));
      }
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    anc_->Close();
    desc_->Close();
  }

 private:
  PhysicalPtr anc_;
  PhysicalPtr desc_;
  int anc_idx_;
  int desc_idx_;
  Axis axis_;
  std::vector<Tuple> stack_;
  std::deque<Tuple> pending_;
  std::optional<Tuple> next_anc_;
  uint64_t ticks_ = 0;
};

// --- Streaming StackTreeAnc_φ (semi / outer / nest structural joins) ---------

// The ancestor-grouped counterpart of StackTreeDescPhys: both inputs in
// document order on the join attributes, output follows the *ancestor* side.
// Each in-flight ancestor accumulates its matching descendants; it is
// complete once the descendant cursor has passed its subtree. Ancestors
// nest, so an inner one completes before the outer one it lives in — the
// in-flight queue releases completed entries strictly front-first to keep
// the output in ancestor document order. Tuples with a null join id match
// nothing (outer/nest variants still emit them, padded/empty).
class StackTreeVariantPhys : public PhysBase {
 public:
  StackTreeVariantPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                       int desc_idx, Axis axis, JoinVariant variant,
                       const std::string& nest_as)
      : anc_(std::move(anc)),
        desc_(std::move(desc)),
        anc_idx_(anc_idx),
        desc_idx_(desc_idx),
        axis_(axis),
        variant_(variant) {
    schema_ = JoinOutputSchema(*anc_->schema(), *desc_->schema(), variant,
                               nest_as);
    order_ = OrderDescriptor::On(anc_->schema()->attr(anc_idx).name);
  }
  std::string label() const override {
    return std::string("StackTreeAnc_phi:") + JoinVariantName(variant_) +
           "[" + anc_->schema()->attr(anc_idx_).name + " " +
           (axis_ == Axis::kChild ? "parent-of" : "ancestor-of") + " " +
           desc_->schema()->attr(desc_idx_).name + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {anc_.get(), desc_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kStructuralJoin; }
  // Both cursors must advance in document order for the stack discipline to
  // see every (ancestor, descendant) containment.
  OrderDescriptor RequiredChildOrder(size_t child) const override {
    return child == 0
               ? OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name)
               : OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
  }
  // Output follows the ancestor queue: ordered on the ancestor attribute
  // exactly when the ancestor input is.
  OrderDescriptor ProvableOrder() const override {
    OrderDescriptor req =
        OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name);
    return OrderCovers(anc_->order(), req) ? order_ : OrderDescriptor();
  }
  bool OrderSensitive() const override { return true; }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(anc_->Open());
    ULOAD_RETURN_NOT_OK(desc_->Open());
    inflight_.clear();
    stack_.clear();
    pending_.clear();
    desc_done_ = false;
    ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      if (desc_done_ && inflight_.empty() && !next_anc_.has_value()) break;
      // Same bounded-latency cancellation tick as StackTreeDesc_φ.
      if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_RETURN_NOT_OK(Advance());
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    anc_->Close();
    desc_->Close();
    inflight_.clear();
    stack_.clear();
    pending_.clear();
  }

 private:
  struct AncState {
    Tuple t;
    TupleList matches;
    bool done = false;
  };

  // Consumes one descendant (or the end of the descendant stream), then
  // releases every completed front-of-queue ancestor into pending_.
  Status Advance() {
    ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> d, desc_->NextTuple());
    if (!d.has_value()) {
      desc_done_ = true;
      // No future descendant exists: every ancestor still pending is done.
      while (next_anc_.has_value()) {
        ULOAD_RETURN_NOT_OK(PushAncestor(std::move(*next_anc_)));
        ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
      }
      for (AncState& a : inflight_) a.done = true;
      stack_.clear();
      Release();
      return Status::Ok();
    }
    const AtomicValue& did = d->fields[desc_idx_].atom();
    if (did.is_null()) return Status::Ok();  // null ids match nothing
    if (did.kind() != AtomicValue::Kind::kSid) {
      return Status::TypeError(
          "streaming structural join requires (pre, post, depth) ids");
    }
    // Pull ancestors that start before this descendant.
    while (next_anc_.has_value()) {
      const AtomicValue& aid = next_anc_->fields[anc_idx_].atom();
      if (!aid.is_null()) {
        if (aid.kind() != AtomicValue::Kind::kSid) {
          return Status::TypeError(
              "streaming structural join requires (pre, post, depth) ids");
        }
        if (aid.sid().pre >= did.sid().pre) break;
      }
      ULOAD_RETURN_NOT_OK(PushAncestor(std::move(*next_anc_)));
      ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    }
    // Ancestors whose subtree ended before this descendant are complete —
    // no current or future descendant (pre-ascending) can fall inside them.
    while (!stack_.empty() &&
           stack_.back()->t.fields[anc_idx_].atom().sid().post <
               did.sid().post) {
      stack_.back()->done = true;
      stack_.pop_back();
    }
    int64_t d_bytes = -1;
    for (AncState* a : stack_) {
      const StructuralId& asid = a->t.fields[anc_idx_].atom().sid();
      bool match = axis_ == Axis::kChild ? IsParent(asid, did.sid())
                                         : IsAncestor(asid, did.sid());
      if (match) {
        if (d_bytes < 0) d_bytes = ApproxTupleBytes(*d);
        ULOAD_RETURN_NOT_OK(TrackGrow(d_bytes));
        a->matches.push_back(*d);
      }
    }
    Release();
    return Status::Ok();
  }

  Status PushAncestor(Tuple t) {
    ULOAD_RETURN_NOT_OK(TrackGrow(ApproxTupleBytes(t)));
    const AtomicValue& aid = t.fields[anc_idx_].atom();
    if (aid.is_null()) {
      // Null ids match nothing and need no stack entry; completed at once.
      inflight_.push_back(AncState{std::move(t), {}, true});
      return Status::Ok();
    }
    if (aid.kind() != AtomicValue::Kind::kSid) {
      return Status::TypeError(
          "streaming structural join requires (pre, post, depth) ids");
    }
    // Entries the new ancestor is disjoint from are complete: their whole
    // subtree precedes it, hence precedes every future descendant too.
    while (!stack_.empty() &&
           stack_.back()->t.fields[anc_idx_].atom().sid().post <
               aid.sid().post) {
      stack_.back()->done = true;
      stack_.pop_back();
    }
    inflight_.push_back(AncState{std::move(t), {}, false});
    stack_.push_back(&inflight_.back());
    return Status::Ok();
  }

  void Release() {
    while (!inflight_.empty() && inflight_.front().done) {
      AncState& a = inflight_.front();
      // The nest accumulator hands its contents to the consumer here; its
      // bytes leave this operator's account.
      TrackShrink(ApproxTupleBytes(a.t) + ApproxTupleListBytes(a.matches));
      switch (variant_) {
        case JoinVariant::kInner:
          for (Tuple& m : a.matches) {
            pending_.push_back(ConcatTuples(a.t, m));
          }
          break;
        case JoinVariant::kSemi:
          if (!a.matches.empty()) pending_.push_back(std::move(a.t));
          break;
        case JoinVariant::kLeftOuter:
          if (a.matches.empty()) {
            pending_.push_back(
                ConcatTuples(a.t, NullTuple(*desc_->schema())));
          } else {
            for (Tuple& m : a.matches) {
              pending_.push_back(ConcatTuples(a.t, m));
            }
          }
          break;
        case JoinVariant::kNestJoin:
          if (a.matches.empty()) break;
          [[fallthrough]];
        case JoinVariant::kNestOuter: {
          Tuple t = std::move(a.t);
          t.fields.emplace_back(std::move(a.matches));
          pending_.push_back(std::move(t));
          break;
        }
      }
      inflight_.pop_front();
    }
  }

  PhysicalPtr anc_;
  PhysicalPtr desc_;
  int anc_idx_;
  int desc_idx_;
  Axis axis_;
  JoinVariant variant_;
  // In-flight ancestors in arrival (document) order; a deque keeps the
  // stack_ pointers stable across push_back/pop_front.
  std::deque<AncState> inflight_;
  std::vector<AncState*> stack_;
  std::deque<Tuple> pending_;
  std::optional<Tuple> next_anc_;
  bool desc_done_ = false;
  uint64_t ticks_ = 0;
};

// --- Hash join / generic value join -----------------------------------------

class ValueJoinPhys : public PhysBase {
 public:
  ValueJoinPhys(PhysicalPtr left, PhysicalPtr right, std::string left_attr,
                Comparator cmp, std::string right_attr, JoinVariant variant,
                std::string nest_as)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_attr_(std::move(left_attr)),
        cmp_(cmp),
        right_attr_(std::move(right_attr)),
        variant_(variant) {
    schema_ = JoinOutputSchema(*left_->schema(), *right_->schema(), variant,
                               nest_as);
    order_ = left_->order();
  }
  std::string label() const override {
    std::string name =
        cmp_ == Comparator::kEq ? "HashJoin_phi" : "NestedLoopJoin_phi";
    return name + ":" + JoinVariantName(variant_) + "[" + left_attr_ + " " +
           ComparatorName(cmp_) + " " + right_attr_ + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kValueJoin; }
  // The probe side streams in order, so the left input's order survives for
  // the longest key prefix over surviving left attributes.
  OrderDescriptor ProvableOrder() const override {
    std::vector<OrderKey> kept;
    for (const OrderKey& k : left_->order().keys()) {
      if (!ResolveAttrPath(*left_->schema(), k.attr).ok()) break;
      kept.push_back(k);
    }
    return OrderDescriptor(std::move(kept));
  }
  // The probe side streams in order and each left tuple's matches are
  // emitted consecutively, so the left input's order survives for keys over
  // left attributes.
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    for (const OrderKey& k : order.keys()) {
      if (!ResolveAttrPath(*left_->schema(), k.attr).ok()) return false;
    }
    if (!left_->TryAdoptOrder(order)) return false;
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(left_->Open());
    ULOAD_RETURN_NOT_OK(right_->Open());
    // Build side: materialize right; hash it for equality joins.
    build_.clear();
    hash_.clear();
    pending_.clear();
    ReleaseMemory(held_bytes());
    ULOAD_ASSIGN_OR_RETURN(AttrPath rp,
                           ResolveAttrPath(*right_->schema(), right_attr_));
    if (rp.size() != 1) {
      return Status::NotImplemented("physical join on nested right attr");
    }
    ridx_ = rp[0];
    ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                           ResolveAttrPath(*left_->schema(), left_attr_));
    if (lp.size() != 1) {
      return Status::NotImplemented("physical join on nested left attr");
    }
    lidx_ = lp[0];
    right_open_ = true;
    for (;;) {
      // Hash-build loop: cancellation check + budget charge per batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             right_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) {
        if (cmp_ == Comparator::kEq) {
          const AtomicValue& v = t.fields[ridx_].atom();
          if (!v.is_null()) hash_[v.ToString()].push_back(build_.size());
        }
        build_.push_back(std::move(t));
      }
    }
    right_->Close();
    right_open_ = false;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> l, left_->NextTuple());
      if (!l.has_value()) break;
      std::vector<size_t> matches;
      const AtomicValue& lv = l->fields[lidx_].atom();
      if (cmp_ == Comparator::kEq) {
        if (!lv.is_null()) {
          auto it = hash_.find(lv.ToString());
          if (it != hash_.end()) matches = it->second;
        }
      } else {
        for (size_t j = 0; j < build_.size(); ++j) {
          if (CompareAtoms(lv, cmp_, build_[j].fields[ridx_].atom())) {
            matches.push_back(j);
          }
        }
      }
      Emit(*l, matches);
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    left_->Close();
    // Open only when an aborted build left it open (see Sort_φ's CloseImpl).
    if (right_open_) {
      right_->Close();
      right_open_ = false;
    }
    build_.clear();
    hash_.clear();
    pending_.clear();
  }

 private:
  void Emit(const Tuple& l, const std::vector<size_t>& matches) {
    switch (variant_) {
      case JoinVariant::kInner:
        for (size_t j : matches) pending_.push_back(ConcatTuples(l, build_[j]));
        break;
      case JoinVariant::kSemi:
        if (!matches.empty()) pending_.push_back(l);
        break;
      case JoinVariant::kLeftOuter:
        if (matches.empty()) {
          pending_.push_back(ConcatTuples(l, NullTuple(*right_->schema())));
        } else {
          for (size_t j : matches) {
            pending_.push_back(ConcatTuples(l, build_[j]));
          }
        }
        break;
      case JoinVariant::kNestJoin:
      case JoinVariant::kNestOuter: {
        if (matches.empty() && variant_ == JoinVariant::kNestJoin) break;
        TupleList nested;
        for (size_t j : matches) nested.push_back(build_[j]);
        Tuple t = l;
        t.fields.emplace_back(std::move(nested));
        pending_.push_back(std::move(t));
        break;
      }
    }
  }

  PhysicalPtr left_;
  PhysicalPtr right_;
  std::string left_attr_;
  Comparator cmp_;
  std::string right_attr_;
  JoinVariant variant_;
  int lidx_ = 0;
  int ridx_ = 0;
  std::vector<Tuple> build_;
  std::unordered_map<std::string, std::vector<size_t>> hash_;
  std::deque<Tuple> pending_;
  bool right_open_ = false;
};

// --- Product -----------------------------------------------------------------

class ProductPhys : public PhysBase {
 public:
  ProductPhys(PhysicalPtr left, PhysicalPtr right)
      : left_(std::move(left)), right_(std::move(right)) {
    schema_ = Schema::Concat(*left_->schema(), *right_->schema());
    order_ = left_->order();
  }
  std::string label() const override { return "Product_phi"; }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kProduct; }
  // Each left tuple's combinations are emitted consecutively, so the left
  // input's order survives.
  OrderDescriptor ProvableOrder() const override { return left_->order(); }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(left_->Open());
    ULOAD_RETURN_NOT_OK(right_->Open());
    build_.clear();
    ReleaseMemory(held_bytes());
    right_open_ = true;
    for (;;) {
      // Build loop: cancellation check + budget charge per batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             right_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) build_.push_back(std::move(t));
    }
    right_->Close();
    right_open_ = false;
    cur_.reset();
    rpos_ = build_.size();
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (rpos_ < build_.size()) {
        out.Add(ConcatTuples(*cur_, build_[rpos_++]));
        continue;
      }
      ULOAD_ASSIGN_OR_RETURN(cur_, left_->NextTuple());
      if (!cur_.has_value()) break;
      rpos_ = 0;
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    left_->Close();
    if (right_open_) {
      right_->Close();
      right_open_ = false;
    }
    build_.clear();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  std::vector<Tuple> build_;
  std::optional<Tuple> cur_;
  size_t rpos_ = 0;
  bool right_open_ = false;
};

// --- Union -------------------------------------------------------------------

class UnionPhys : public PhysBase {
 public:
  UnionPhys(PhysicalPtr left, PhysicalPtr right)
      : left_(std::move(left)), right_(std::move(right)) {
    schema_ = left_->schema();
  }
  std::string label() const override { return "Union_phi"; }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kUnion; }
  // Left-then-right concatenation proves no order across the seam.
  OrderDescriptor ProvableOrder() const override { return OrderDescriptor(); }

 protected:
  Status OpenImpl() override {
    on_right_ = false;
    ULOAD_RETURN_NOT_OK(left_->Open());
    return right_->Open();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    // Whole batches pass through; only the schema tag changes.
    if (!on_right_) {
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b, left_->NextBatch());
      if (b.has_value()) {
        b->set_schema(schema_);
        return b;
      }
      on_right_ = true;
    }
    ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b, right_->NextBatch());
    if (b.has_value()) b->set_schema(schema_);
    return b;
  }
  void CloseImpl() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  bool on_right_ = false;
};

// --- Compiler ----------------------------------------------------------------

class Compiler {
 public:
  Compiler(const EvalContext& ctx, size_t thread_budget, bool allow_unordered)
      : ctx_(ctx),
        thread_budget_(thread_budget == 0 ? 1 : thread_budget),
        allow_unordered_(allow_unordered) {}

  Result<PhysicalPtr> Compile(const PlanPtr& plan) {
    // Keep the logical plan alive for operators that reference it.
    roots_.push_back(plan);
    root_ = plan.get();
    if (!in_worker_ && allow_unordered_ && thread_budget_ > 1) {
      // The caller waived result order, so a root that is a plain filter
      // chain over a scan can fan out through ExchangeProduce.
      ULOAD_ASSIGN_OR_RETURN(PhysicalPtr par, TryParallelRootChain(*plan));
      if (par) return PhysicalPtr(std::move(par));
    }
    return RecFuse(*plan);
  }

  // Sort_φ elision sites of the last Compile(): each operator must keep
  // covering the order the elided enforcer would have established. Entries
  // point into the compiled tree; consume before it is destroyed.
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
  TakeObligations() {
    return std::move(obligations_);
  }

 private:
  // Wraps `input` in Sort_φ unless the stream is already ordered on `attr`
  // or the operator can prove (TryAdoptOrder) that it is — scans over
  // document-ordered relations satisfy structural-join requirements without
  // an enforcer, serially and inside Exchange worker pipelines where a
  // replicated sort would be paid once per worker. Every elision is recorded
  // as an obligation the plan verifier re-checks against the finished tree.
  PhysicalPtr EnsureOrder(PhysicalPtr input, const std::string& attr) {
    OrderDescriptor required = OrderDescriptor::On(attr);
    if ((!input->order().empty() && input->order().keys()[0].attr == attr) ||
        input->TryAdoptOrder(required)) {
      obligations_.emplace_back(input.get(), std::move(required));
      return input;
    }
    return std::make_unique<SortPhys>(std::move(input),
                                      OrderDescriptor::On(attr));
  }

  // The Scan at the bottom of a Select* chain, or nullptr for any other
  // shape. Chains are the fragments cheap enough to replicate per worker.
  static const LogicalPlan* SelectChainLeaf(const LogicalPlan& p) {
    const LogicalPlan* cur = &p;
    while (cur->op() == PlanOp::kSelect) cur = cur->left().get();
    return cur->op() == PlanOp::kScan ? cur : nullptr;
  }

  void EnterPartition(const LogicalPlan* leaf, size_t nparts) {
    in_worker_ = true;
    part_leaf_ = leaf;
    nparts_ = nparts;
  }

  void LeavePartition() {
    in_worker_ = false;
    part_leaf_ = nullptr;
    nparts_ = 1;
    part_ = 0;
  }

  // Fallback: evaluate the subtree with the materializing evaluator and
  // stream the result (covers operators without a dedicated physical
  // implementation, e.g. nested-attribute structural joins).
  Result<PhysicalPtr> Materialize(const LogicalPlan& plan,
                                  const std::string& label) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation data, Evaluate(plan, ctx_));
    return PhysicalPtr(std::make_unique<MaterialPhys>(
        std::move(data), label, OrderDescriptor()));
  }

  // Fans a Select*/Scan chain out over N workers with a partitioned scan,
  // collected in arrival order — only legal when the consumer waived order.
  // Returns nullptr when the shape or the sizes are not eligible.
  // Tuple count of a scannable leaf: a bound relation or a catalog view
  // (virtual extents report their row-set size without materializing);
  // -1 when the name resolves to neither.
  int64_t LeafSize(const std::string& name) const {
    auto it = ctx_.relations.find(name);
    if (it != ctx_.relations.end()) return it->second->size();
    auto vit = ctx_.views.find(name);
    if (vit != ctx_.views.end()) return vit->second->row_count();
    return -1;
  }

  Result<PhysicalPtr> TryParallelRootChain(const LogicalPlan& p) {
    const LogicalPlan* leaf = SelectChainLeaf(p);
    if (leaf == nullptr) return PhysicalPtr();
    int64_t size = LeafSize(leaf->relation());
    if (size < 0) return PhysicalPtr();
    size_t n = ChooseWorkerCount(size, thread_budget_);
    if (n < 2) return PhysicalPtr();
    std::vector<PhysicalPtr> workers;
    EnterPartition(leaf, n);
    for (size_t w = 0; w < n; ++w) {
      part_ = w;
      Result<PhysicalPtr> sub = RecFuse(p);
      if (!sub.ok()) {
        LeavePartition();
        return sub.status();
      }
      workers.push_back(std::move(*sub));
    }
    LeavePartition();
    return PhysicalPtr(
        std::make_unique<ExchangeProducePhys>(std::move(workers)));
  }

  // Fans an eligible inner structural join out: the descendant side is a
  // Select*/Scan chain whose scan partitions into contiguous pre-order
  // ranges, the ancestor chain is replicated per worker (the join pulls
  // ancestors lazily, so each worker reads only the prefix its slice
  // needs). Worker streams are disjoint and locally ordered on the
  // descendant attribute, so ExchangeMerge reproduces the serial engine's
  // output exactly; when this join is the plan root and the caller waived
  // order, ExchangeProduce collects in arrival order instead. Returns
  // nullptr when the shape, the sizes or the join attributes are not
  // eligible.
  Result<PhysicalPtr> TryParallelStructuralJoin(const LogicalPlan& p) {
    if (in_worker_ || thread_budget_ < 2) return PhysicalPtr();
    const LogicalPlan* anc_leaf = SelectChainLeaf(*p.left());
    const LogicalPlan* desc_leaf = SelectChainLeaf(*p.right());
    // Distinct leaves required: partitioning is keyed by plan node, and a
    // shared node would slice the ancestor side too.
    if (anc_leaf == nullptr || desc_leaf == nullptr || anc_leaf == desc_leaf) {
      return PhysicalPtr();
    }
    int64_t dsize = LeafSize(desc_leaf->relation());
    if (dsize < 0) return PhysicalPtr();
    size_t n = ChooseWorkerCount(dsize, thread_budget_);
    if (n < 2) return PhysicalPtr();
    std::vector<PhysicalPtr> workers;
    size_t mark = obligations_.size();
    EnterPartition(desc_leaf, n);
    for (size_t w = 0; w < n; ++w) {
      part_ = w;
      Result<PhysicalPtr> l = RecFuse(*p.left());
      Result<PhysicalPtr> r = RecFuse(*p.right());
      if (!l.ok() || !r.ok()) {
        LeavePartition();
        return !l.ok() ? l.status() : r.status();
      }
      std::optional<std::pair<int, int>> cols = JoinColumns(p, **l, **r);
      if (!cols) {
        LeavePartition();
        obligations_.resize(mark);
        return PhysicalPtr();
      }
      PhysicalPtr anc = EnsureOrder(std::move(*l), p.left_attr());
      PhysicalPtr desc = EnsureOrder(std::move(*r), p.right_attr());
      workers.push_back(std::make_unique<StackTreeDescPhys>(
          std::move(anc), std::move(desc), cols->first, cols->second,
          p.axis()));
    }
    LeavePartition();
    if (allow_unordered_ && &p == root_) {
      return PhysicalPtr(
          std::make_unique<ExchangeProducePhys>(std::move(workers)));
    }
    return PhysicalPtr(
        std::make_unique<ExchangeMergePhys>(std::move(workers)));
  }

  // Top-level field indexes of a structural join's attributes on its
  // compiled children; nullopt when either is nested or unresolved (the
  // streaming joins need top-level ids, the evaluator handles the rest).
  static std::optional<std::pair<int, int>> JoinColumns(
      const LogicalPlan& p, const PhysicalOperator& l,
      const PhysicalOperator& r) {
    auto lres = ResolveAttrPath(*l.schema(), p.left_attr());
    auto rres = ResolveAttrPath(*r.schema(), p.right_attr());
    if (!lres.ok() || !rres.ok() || lres->size() != 1 || rres->size() != 1) {
      return std::nullopt;
    }
    return std::make_pair((*lres)[0], (*rres)[0]);
  }

  // True when the logical operator is a non-breaking chain member, which
  // compiles only as a fused step: Select, non-dedup Project (first-wins
  // dedup buffers a seen-set — a breaker), Navigate, Rename, Retype.
  // Everything else — sorts, joins (build side or StackTree buffering),
  // Product/Union fan-in, exchanges — breaks the pipeline.
  static bool Fusable(const LogicalPlan& p) {
    switch (p.op()) {
      case PlanOp::kSelect:
      case PlanOp::kNavigate:
      case PlanOp::kPrefixNames:
      case PlanOp::kRetype:
        return true;
      case PlanOp::kProject:
        return !p.dedup();
      default:
        return false;
    }
  }

  // Compilation entry at a pipeline boundary: collapses the maximal
  // non-breaking chain rooted at `p` into one FusedPipeline_φ running a
  // single tuple loop (exec/fusion.h). Scans (a worker's partitioned slice
  // included), streaming index bindings and Unit become inline sources —
  // their operator boundary is elided too; any other source is a breaker and
  // stays an operator underneath the fused chain. A node that heads no chain
  // compiles through Rec.
  Result<PhysicalPtr> RecFuse(const LogicalPlan& p) {
    std::vector<const LogicalPlan*> chain;  // top -> bottom
    const LogicalPlan* cur = &p;
    while (Fusable(*cur)) {
      chain.push_back(cur);
      cur = cur->left().get();
    }
    if (chain.empty()) return Rec(p);

    FusedPipelineBuilder b;
    if (cur->op() == PlanOp::kScan) {
      // A worker's partitioned leaf reads its slice and keeps the
      // ParallelScan_φ member label.
      size_t part = 0;
      size_t nparts = 1;
      std::string scan = "Scan_phi(" + cur->relation();
      if (in_worker_ && part_leaf_ == cur) {
        part = part_;
        nparts = nparts_;
        scan = "ParallelScan_phi(" + cur->relation() + " " +
               std::to_string(part + 1) + "/" + std::to_string(nparts);
      }
      auto vit = ctx_.views.find(cur->relation());
      if (vit != ctx_.views.end() &&
          vit->second->virtual_store() != nullptr) {
        b.SourceColumnar(vit->second, "Columnar" + scan + ")", part, nparts);
      } else {
        auto it = ctx_.relations.find(cur->relation());
        if (it == ctx_.relations.end()) {
          return Status::NotFound("relation '" + cur->relation() +
                                  "' unbound");
        }
        b.SourceRelation(it->second, scan + ")", part, nparts);
      }
    } else if (cur->op() == PlanOp::kIndexScan && ctx_.index_bind) {
      ULOAD_ASSIGN_OR_RETURN(IndexBinding bind,
                             ctx_.index_bind(cur->relation(),
                                             cur->bindings()));
      b.SourceRows(bind.data, std::move(bind.rows),
                   "IndexScan_phi(" + cur->relation() + ")");
    } else if (cur->op() == PlanOp::kUnit) {
      NestedRelation unit(Schema::Make({}));
      unit.Add(Tuple{});
      b.SourceOwnedRelation(std::move(unit), "Unit_phi");
    } else {
      ULOAD_ASSIGN_OR_RETURN(PhysicalPtr src, Rec(*cur));
      b.SourceOperator(std::move(src));
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const LogicalPlan& n = **it;
      switch (n.op()) {
        case PlanOp::kSelect:
          ULOAD_RETURN_NOT_OK(b.AddSelect(n.predicate()));
          break;
        case PlanOp::kProject:
          ULOAD_RETURN_NOT_OK(b.AddProject(n.attrs()));
          break;
        case PlanOp::kNavigate:
          ULOAD_RETURN_NOT_OK(b.AddNavigate(&n, ctx_.document));
          break;
        case PlanOp::kPrefixNames:
          ULOAD_RETURN_NOT_OK(b.AddRename(n.nest_as()));
          break;
        case PlanOp::kRetype:
          ULOAD_RETURN_NOT_OK(b.AddRetype(n.retype_schema()));
          break;
        default:
          return Status::Internal("non-fusable operator in fused chain");
      }
    }
    return b.Build();
  }

  Result<PhysicalPtr> Rec(const LogicalPlan& p) {
    if (Fusable(p)) {
      return Status::Internal("chain operator outside a fused pipeline");
    }
    switch (p.op()) {
      case PlanOp::kScan: {
        // Virtual column-backed extents (storage/store.h) have no
        // materialized relation: route their scans straight to the columnar
        // store. Materialized views resolve through `relations` as before.
        auto vit = ctx_.views.find(p.relation());
        if (vit != ctx_.views.end() &&
            vit->second->virtual_store() != nullptr) {
          if (in_worker_ && part_leaf_ == &p) {
            return PhysicalPtr(std::make_unique<ColumnarParallelScanPhys>(
                vit->second, p.relation(), part_, nparts_));
          }
          return PhysicalPtr(
              std::make_unique<ColumnarScanPhys>(vit->second, p.relation()));
        }
        auto it = ctx_.relations.find(p.relation());
        if (it == ctx_.relations.end()) {
          return Status::NotFound("relation '" + p.relation() + "' unbound");
        }
        if (in_worker_ && part_leaf_ == &p) {
          return PhysicalPtr(std::make_unique<ParallelScanPhys>(
              it->second, p.relation(), part_, nparts_));
        }
        return PhysicalPtr(
            std::make_unique<ScanPhys>(it->second, p.relation()));
      }
      case PlanOp::kIndexScan: {
        // Preferred: the storage layer's streaming binding (view data +
        // matching row ids, no per-query materialization). The materializing
        // lookup hook stays as the fallback for hand-built contexts.
        if (ctx_.index_bind) {
          ULOAD_ASSIGN_OR_RETURN(IndexBinding b,
                                 ctx_.index_bind(p.relation(), p.bindings()));
          return PhysicalPtr(std::make_unique<IndexScanPhys>(
              b.data, std::move(b.rows), p.relation()));
        }
        if (!ctx_.index_lookup) {
          return Status::InvalidArgument("no index lookup hook");
        }
        ULOAD_ASSIGN_OR_RETURN(NestedRelation data,
                               ctx_.index_lookup(p.relation(), p.bindings()));
        return PhysicalPtr(std::make_unique<MaterialPhys>(
            std::move(data), "IndexLookup_phi(" + p.relation() + ")",
            OrderDescriptor()));
      }
      case PlanOp::kProject: {
        // Dedup only: plain projection is a fused step (rejected above).
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr in, RecFuse(*p.left()));
        return ProjectPhys::Make(std::move(in), p.attrs());
      }
      case PlanOp::kProduct: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, RecFuse(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, RecFuse(*p.right()));
        return PhysicalPtr(
            std::make_unique<ProductPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kValueJoin: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, RecFuse(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, RecFuse(*p.right()));
        return PhysicalPtr(std::make_unique<ValueJoinPhys>(
            std::move(l), std::move(r), p.left_attr(), p.comparator(),
            p.right_attr(), p.variant(), p.nest_as()));
      }
      case PlanOp::kStructuralJoin: {
        // Streaming StackTree for structural joins on top-level attrs:
        // StackTreeDesc (descendant-ordered output, Exchange-parallelizable)
        // for inner joins, the ancestor-grouped StackTreeAnc for the
        // semi/outer/nest variants. The join attributes resolve on the
        // children compiled for real; nested ones fall back to the
        // materializing evaluator, which discards those children and the
        // obligations they recorded.
        if (p.variant() == JoinVariant::kInner) {
          ULOAD_ASSIGN_OR_RETURN(PhysicalPtr par, TryParallelStructuralJoin(p));
          if (par) return PhysicalPtr(std::move(par));
        }
        size_t mark = obligations_.size();
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, RecFuse(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, RecFuse(*p.right()));
        std::optional<std::pair<int, int>> cols = JoinColumns(p, *l, *r);
        if (!cols) {
          obligations_.resize(mark);
          return Materialize(p, "StackTreeAnc_phi(materialized)");
        }
        PhysicalPtr anc = EnsureOrder(std::move(l), p.left_attr());
        PhysicalPtr desc = EnsureOrder(std::move(r), p.right_attr());
        if (p.variant() == JoinVariant::kInner) {
          return PhysicalPtr(std::make_unique<StackTreeDescPhys>(
              std::move(anc), std::move(desc), cols->first, cols->second,
              p.axis()));
        }
        return PhysicalPtr(std::make_unique<StackTreeVariantPhys>(
            std::move(anc), std::move(desc), cols->first, cols->second,
            p.axis(), p.variant(), p.nest_as()));
      }
      case PlanOp::kUnion: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, RecFuse(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, RecFuse(*p.right()));
        return PhysicalPtr(
            std::make_unique<UnionPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kSortOp: {
        // Sort_φ enforcer with elision: skipped when the input's advertised
        // order already covers the requested keys, or when the input can
        // prove (TryAdoptOrder) that its data satisfies them.
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr in, RecFuse(*p.left()));
        std::vector<OrderKey> keys;
        for (const std::string& a : p.attrs()) {
          keys.push_back(OrderKey{a, true});
        }
        OrderDescriptor required(std::move(keys));
        if (OrderCovers(in->order(), required) ||
            in->TryAdoptOrder(required)) {
          obligations_.emplace_back(in.get(), required);
          return PhysicalPtr(std::move(in));
        }
        return PhysicalPtr(
            std::make_unique<SortPhys>(std::move(in), std::move(required)));
      }
      case PlanOp::kUnit: {
        NestedRelation unit(Schema::Make({}));
        unit.Add(Tuple{});
        return PhysicalPtr(std::make_unique<MaterialPhys>(
            std::move(unit), "Unit_phi", OrderDescriptor()));
      }
      // Remaining operators materialize through the evaluator.
      case PlanOp::kDifference:
        return Materialize(p, "Difference_phi(materialized)");
      case PlanOp::kNest:
        return Materialize(p, "Nest_phi(materialized)");
      case PlanOp::kUnnest:
        return Materialize(p, "Unnest_phi(materialized)");
      case PlanOp::kXmlConstruct:
        return Materialize(p, "Xml_phi(materialized)");
      case PlanOp::kDeriveParent:
        return Materialize(p, "DeriveParent_phi(materialized)");
      case PlanOp::kSelect:
      case PlanOp::kNavigate:
      case PlanOp::kPrefixNames:
      case PlanOp::kRetype:
        break;  // fused steps, rejected above
    }
    return Status::Internal("unhandled plan operator");
  }

  const EvalContext& ctx_;
  size_t thread_budget_;
  bool allow_unordered_;
  const LogicalPlan* root_ = nullptr;
  // Worker-pipeline compilation state: while set, the scan at `part_leaf_`
  // compiles into slice `part_` of `nparts_`, and no nested exchange is
  // placed.
  bool in_worker_ = false;
  const LogicalPlan* part_leaf_ = nullptr;
  size_t part_ = 0;
  size_t nparts_ = 1;
  std::vector<PlanPtr> roots_;
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
      obligations_;
};

}  // namespace

Result<PhysicalPtr> CompilePhysicalPlan(const PlanPtr& plan,
                                        const EvalContext& ctx,
                                        ExecContext* exec) {
  Compiler compiler(ctx, exec == nullptr ? 1 : exec->thread_budget(),
                    exec != nullptr && exec->allow_unordered_root());
  ULOAD_ASSIGN_OR_RETURN(PhysicalPtr root, compiler.Compile(plan));
  if (exec != nullptr && exec->verify_plans()) {
    PhysicalVerifyOptions opts;
    opts.allow_unordered_root = exec->allow_unordered_root();
    opts.order_obligations = compiler.TakeObligations();
    ULOAD_RETURN_NOT_OK(VerifyPhysicalPlan(*root, opts));
  }
  if (exec != nullptr) root->Bind(exec);
  return root;
}

Result<NestedRelation> ExecutePhysical(PhysicalOperator* root) {
  NestedRelation out(root->schema());
  Status s = root->Open();
  if (s.ok()) {
    for (;;) {
      Result<std::optional<TupleBatch>> b = root->NextBatch();
      if (!b.ok()) {
        s = b.status();
        break;
      }
      if (!b->has_value()) break;
      for (Tuple& t : (*b)->tuples()) out.Add(std::move(t));
    }
  }
  // Close unconditionally: the error path is exactly where exchange workers
  // must be joined, queues drained, and budget charges returned.
  root->Close();
  ULOAD_RETURN_NOT_OK(s);
  return out;
}

Result<NestedRelation> ExecutePhysicalPlan(const PlanPtr& plan,
                                           const EvalContext& ctx,
                                           ExecContext* exec) {
  ULOAD_ASSIGN_OR_RETURN(PhysicalPtr root,
                         CompilePhysicalPlan(plan, ctx, exec));
  return ExecutePhysical(root.get());
}

}  // namespace uload
