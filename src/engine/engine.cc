#include "engine/engine.h"

#include <algorithm>

#include "exec/physical.h"
#include "storage/columnar/columnar_format.h"

namespace uload {

Engine::Engine(Document doc) : Engine(std::move(doc), Options()) {}

Engine::Engine(Document doc, Options options)
    : doc_(std::move(doc)), options_(options) {
  // Summary first: Build annotates every node's path_id, which the columnar
  // conversion persists into its chunk index.
  summary_ = PathSummary::Build(&doc_);
  if (options_.backend == Options::Backend::kColumnar) {
    columnar_ = ColumnarDocument::FromDocument(doc_);
    store_ = &columnar_;
  } else {
    store_ = &doc_;
  }
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
  IndexCatalog();
}

Engine::Engine(ColumnarDocument store, PathSummary summary, Options options)
    : columnar_(std::move(store)),
      store_(&columnar_),
      summary_(std::move(summary)),
      options_(options) {
  options_.backend = Options::Backend::kColumnar;
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
  IndexCatalog();
}

Result<std::unique_ptr<Engine>> Engine::Load(const std::string& path) {
  return Load(path, Options());
}

Result<std::unique_ptr<Engine>> Engine::Load(const std::string& path,
                                             Options options) {
  ULOAD_ASSIGN_OR_RETURN(LoadedColumnar lc, LoadColumnar(path));
  ULOAD_ASSIGN_OR_RETURN(PathSummary summary,
                         PathSummary::Deserialize(lc.summary_text));
  // φ must stay within the persisted summary: every chunk's summary node
  // needs a definition for the storage models built over it.
  if (lc.document.path_id_limit() > summary.size()) {
    return Status::ParseError(
        "columnar image references summary node " +
        std::to_string(lc.document.path_id_limit() - 1) +
        " but the persisted summary has only " +
        std::to_string(summary.size()) + " nodes");
  }
  return std::unique_ptr<Engine>(
      new Engine(std::move(lc.document), std::move(summary), options));
}

Status Engine::Save(const std::string& path) const {
  if (const ColumnarDocument* col = columnar_store()) {
    return SaveColumnar(*col, summary_.Serialize(), path);
  }
  // Pointer backend: convert a throwaway columnar image for the write.
  ColumnarDocument tmp = ColumnarDocument::FromDocument(doc_);
  return SaveColumnar(tmp, summary_.Serialize(), path);
}

void Engine::SetOptions(Options options) {
  options_ = std::move(options);
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
}

Status Engine::InstallModel(std::vector<NamedXam> model) {
  catalog_ = Catalog();
  Status st = Status::Ok();
  for (NamedXam& v : model) {
    st = catalog_.AddXam(v.name, std::move(v.xam), *store_);
    if (!st.ok()) break;
  }
  IndexCatalog();
  return st;
}

Status Engine::AddView(std::string name, Xam definition) {
  Status st = catalog_.AddXam(std::move(name), std::move(definition), *store_);
  IndexCatalog();
  return st;
}

void Engine::IndexCatalog() {
  rewriter_ = std::make_unique<QueryRewriter>(&summary_, &catalog_);
  rewriter_->rewriter();
}

std::shared_ptr<QueryControl> Engine::BeginQuery(ExecContext* exec,
                                                 MemoryTracker* query_mem,
                                                 const QueryOptions& q) {
  exec->set_batch_size(q.batch_size != 0 ? q.batch_size
                                         : options_.batch_size);
  exec->set_thread_budget(q.thread_budget != 0 ? q.thread_budget
                                               : options_.thread_budget);
  exec->set_verify_plans(options_.verify);
  exec->set_memory_tracker(query_mem);
  exec->set_fault(options_.fault);
  std::shared_ptr<QueryControl> control =
      q.control != nullptr ? q.control : std::make_shared<QueryControl>();
  if (q.timeout_ms > 0) {
    // Earliest deadline wins: an admission ticket may already carry the
    // admit-time budget on its control.
    int64_t candidate = QueryControl::NowNs() + q.timeout_ms * 1'000'000;
    int64_t existing = control->deadline_ns();
    if (existing == 0 || candidate < existing) {
      control->set_deadline_ns(candidate);
    }
  } else if (q.timeout_ms < 0) {
    // Testing: an already-expired deadline trips the very first check.
    control->set_deadline_ns(1);
  }
  exec->set_control(control);
  MutexLock lock(&mu_);
  inflight_.push_back(control);
  return control;
}

void Engine::EndQuery(const std::shared_ptr<QueryControl>& control,
                      const ExecContext* executed) {
  // Snapshot outside mu_: the context's registry lock is never nested
  // inside the engine lock (mu_ stays a leaf in the lock order).
  std::deque<OperatorMetrics> snapshot;
  if (executed != nullptr) snapshot = executed->MetricsSnapshot();
  MutexLock lock(&mu_);
  inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), control),
                  inflight_.end());
  if (executed != nullptr) last_metrics_ = std::move(snapshot);
}

std::deque<OperatorMetrics> Engine::LastQueryMetrics() const {
  MutexLock lock(&mu_);
  return last_metrics_;
}

int64_t Engine::LastQueryTotalTuples() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const OperatorMetrics& m : last_metrics_) total += m.tuples_produced;
  return total;
}

void Engine::Cancel() {
  MutexLock lock(&mu_);
  for (const std::shared_ptr<QueryControl>& c : inflight_) c->Cancel();
}

Result<std::string> Engine::Run(const std::string& query) {
  return Run(query, QueryOptions());
}

Result<std::string> Engine::Run(const std::string& query,
                                const QueryOptions& q) {
  ULOAD_ASSIGN_OR_RETURN(Explanation out, Serve(query, q, Mode::kRun));
  return std::move(out.result);
}

Result<Engine::Explanation> Engine::Explain(const std::string& query) {
  return Explain(query, QueryOptions());
}

Result<Engine::Explanation> Engine::Explain(const std::string& query,
                                            const QueryOptions& q) {
  return Serve(query, q, Mode::kExplain);
}

Result<Engine::Explanation> Engine::ExplainAnalyze(const std::string& query) {
  return ExplainAnalyze(query, QueryOptions());
}

Result<Engine::Explanation> Engine::ExplainAnalyze(const std::string& query,
                                                   const QueryOptions& q) {
  return Serve(query, q, Mode::kAnalyze);
}

Result<Engine::Explanation> Engine::Serve(const std::string& query,
                                          const QueryOptions& q, Mode mode) {
  // Private per-query context + governor, armed before any work: concurrent
  // queries on one engine share nothing but the document, the catalog, and
  // the engine tracker.
  ExecContext exec;
  MemoryTracker query_mem("query", q.memory_limit_bytes, &engine_memory_);
  std::shared_ptr<QueryControl> control = BeginQuery(&exec, &query_mem, q);
  Result<Explanation> out = ServeOn(query, mode, &exec);
  // Explain runs nothing, so it leaves the published counters alone.
  EndQuery(control, mode == Mode::kExplain ? nullptr : &exec);
  return out;
}

Result<Engine::Explanation> Engine::ServeOn(const std::string& query,
                                            Mode mode,
                                            ExecContext* exec) const {
  ULOAD_ASSIGN_OR_RETURN(
      QueryRewriteResult r,
      rewriter_->Prepare(query, store_, exec, options_.rewrite));
  // Rewriting makes no cooperative checks of its own: this one lets a
  // deadline, Cancel() or drain that landed during it stop the query before
  // compilation.
  ULOAD_RETURN_NOT_OK(exec->control()->CheckNow());
  Explanation out;
  if (mode != Mode::kRun) out.logical = r.plan->ToString();
  if (mode == Mode::kExplain) {
    EvalContext ctx = catalog_.MakeEvalContext(store_);
    ULOAD_ASSIGN_OR_RETURN(PhysicalPtr root,
                           CompilePhysicalPlan(r.plan, ctx, exec));
    out.physical = root->Describe();
    return out;
  }
  ULOAD_ASSIGN_OR_RETURN(
      out.result,
      rewriter_->Execute(r, store_, exec,
                         mode == Mode::kAnalyze ? &out.physical : nullptr));
  return out;
}

}  // namespace uload
